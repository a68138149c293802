import json
import math
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densq
from densq import WeightedPointMeasure, build_cantor, build_dirac
from densq.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_gen_cantor(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "cantor", "params": {"dim": 2, "s": 0.5, "depth": 3}}))
    out = tmp_path / "m.csv"
    assert run_cli("gen", str(spec), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 65   # header + 64 atoms
    captured = capsys.readouterr().out
    assert "total_mass: 1.0" in captured
    assert "atoms: 64" in captured


def test_gen_gamma_row_count(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "gamma_curve",
         "params": {"alpha": math.pi / 8, "half_extent": 4.0,
                    "spacing": 0.03125}}))
    out = tmp_path / "g.csv"
    assert run_cli("gen", str(spec), "--out", str(out)) == 0
    n_rows = len(out.read_text().splitlines()) - 1
    arc = 2 * (4.0 - 0.5) + 1.0 / math.cos(math.pi / 8)
    assert abs(n_rows - arc / 0.03125) <= 4


def test_gen_malformed_json_no_partial_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    out = tmp_path / "m.csv"
    assert run_cli("gen", str(spec), "--out", str(out)) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_gen_invalid_field_named(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "cantor",
                                "params": {"dim": 2, "s": 0.5, "depth": 3,
                                           "wrong": 1}}))
    assert run_cli("gen", str(spec), "--out", str(tmp_path / "m.csv")) == 2
    assert "wrong" in capsys.readouterr().err



@pytest.mark.parametrize("spec", [
    {"kind": "flat", "params": {"dim": 2, "k": 1, "half_extent": 1e300,
                                "spacing": 1e-300}},
    {"kind": "polyline", "params": {"vertices": [[0, 0], [1, 0]], "spacing": 1e-320}}])
def test_gen_infinite_atom_count_usage_error(tmp_path, capsys, spec):
    # an infinite atom count used to raise OverflowError from int()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "m.csv"
    assert run_cli("gen", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "atoms" in err[0]
    assert not out.exists()

@pytest.fixture
def dirac_csv(tmp_path):
    path = tmp_path / "dirac.csv"
    build_dirac(2, [0.0, 0.0], 1.0).save_csv(path)
    return path


def test_energy_wolff_dirac(dirac_csv, tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = run_cli("energy", str(dirac_csv), "--kind", "wolff", "--s", "0.5",
                 "--r-min", "1.0", "--r-max", "100.0", "--q", "1.05",
                 "--out", str(out))
    assert rc == 0
    rep = json.loads(out.read_text())
    assert abs(rep["total"] - 1.0) < 0.01
    assert "total: 1.0" in capsys.readouterr().out


def test_energy_sf_dirac(dirac_csv, tmp_path):
    out = tmp_path / "rep.json"
    rc = run_cli("energy", str(dirac_csv), "--kind", "sf", "--s", "0.5",
                 "--r-min", "1.0", "--r-max", "100.0", "--q", "1.05",
                 "--out", str(out))
    assert rc == 0
    rep = json.loads(out.read_text())
    assert abs(rep["total"] - (1 - 2 ** -0.5) ** 2) < 0.01 * rep["total"]
    assert rep["kind"] == "square_function"
    assert rep["grid"] == {"r_min": 1.0, "r_max": 100.0, "q": 1.05}


def test_energy_integer_s_warns_but_computes(dirac_csv, tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = run_cli("energy", str(dirac_csv), "--kind", "sf", "--s", "1",
                 "--r-min", "1.0", "--r-max", "10.0", "--out", str(out))
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning" in err and "non-integer" in err
    assert out.exists()


def test_energy_nonpositive_s_usage_error(dirac_csv, tmp_path, capsys):
    for kind in ("sf", "wolff", "riesz-sup"):
        out = tmp_path / f"{kind}.json"
        rc = run_cli("energy", str(dirac_csv), "--kind", kind, "--s", "0",
                     "--r-min", "1.0", "--r-max", "10.0", "--out", str(out))
        assert rc == 2
        assert "s must be positive" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan", "inf", "-1"])
def test_energy_invalid_kappa_usage_error(tmp_path, capsys, kappa):
    # with an explicit grid, nan and inf used to drop every cell and exit 0,
    # and -1 acted as 0
    csv_path = tmp_path / "c.csv"
    from densq import build_cantor
    build_cantor(2, 0.5, 3).save_csv(csv_path)
    for kind in ("sf", "wolff", "beta", "riesz-sup"):
        for grid in (["--r-min", "0.01", "--r-max", "1"], []):
            out = tmp_path / f"{kind}.json"
            rc = run_cli("energy", str(csv_path), "--kind", kind, "--s", "0.5",
                         *grid, "--kappa", kappa, "--out", str(out))
            assert rc == 2
            assert "kappa must be finite and >= 0" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
def test_energy_invalid_p_usage_error(dirac_csv, tmp_path, capsys, p):
    # --p nan used to exit 0 and print total: nan
    for kind in ("sf", "wolff", "beta"):
        out = tmp_path / f"{kind}.json"
        rc = run_cli("energy", str(dirac_csv), "--kind", kind, "--s", "0.5",
                     "--p", p, "--r-min", "1.0", "--r-max", "10.0", "--out", str(out))
        assert rc == 2
        assert "p must be finite and >= 1" in capsys.readouterr().err
        assert not out.exists()



def test_energy_infinite_r_max_usage_error(dirac_csv, tmp_path, capsys):
    # an infinite r_max used to raise OverflowError when the radii were formed
    for kind in ("sf", "wolff", "beta", "riesz-sup"):
        out = tmp_path / f"{kind}.json"
        rc = run_cli("energy", str(dirac_csv), "--kind", kind, "--s", "0.5",
                     "--r-min", "0.1", "--r-max", "inf", "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: r_max must be finite and exceed r_min"]
        assert not out.exists()

def test_energy_riesz_sup_two_atoms(tmp_path, capsys):
    csv_path = tmp_path / "two.csv"
    WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                         np.array([1.0, 1.0])).save_csv(csv_path)
    out = tmp_path / "riesz.json"
    rc = run_cli("energy", str(csv_path), "--kind", "riesz-sup", "--s", "1",
                 "--r-min", "0.5", "--r-max", "3.0", "--q", "1.3",
                 "--kappa", "0.0", "--out", str(out))
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["best"]["energy"] == pytest.approx(2.0)
    assert rep["sup_is_lower_bound"] is True
    assert "best_energy: 2.0" in capsys.readouterr().out


def test_energy_beta(tmp_path):
    csv_path = tmp_path / "m.csv"
    rng = np.random.default_rng(3)
    WeightedPointMeasure(rng.uniform(0, 1, (30, 2)),
                         np.full(30, 1 / 30)).save_csv(csv_path)
    out = tmp_path / "beta.json"
    rc = run_cli("energy", str(csv_path), "--kind", "beta",
                 "--r-min", "0.2", "--r-max", "1.0", "--out", str(out))
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "beta" and rep["total"] > 0


def test_energy_beta_p3_over_scan_budget_fails_fast(tmp_path, capsys):
    # 1,024 atoms x 103 cells asked for 105,472 direction scans (about 46
    # minutes) with no check; the alarm stops a call that takes over 5 s
    def stop(signum, frame):
        pytest.fail("densq energy --kind beta --p 3 took over 5 s")

    csv_path = tmp_path / "cantor.csv"
    build_cantor(2, 0.6, 5).save_csv(csv_path)
    out = tmp_path / "beta.json"
    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        rc = run_cli("energy", str(csv_path), "--kind", "beta", "--p", "3",
                     "--out", str(out))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "direction scans" in err[0]


def test_energy_beta_p3_over_scan_budget_builds_no_grid(tmp_path):
    # the budget holds at one radius, so the exit comes before the default
    # grid: no spacing search (densq.geometry never loads) and no scipy
    csv_path = tmp_path / "cantor.csv"
    build_cantor(2, 0.6, 6).save_csv(csv_path)
    code = ("import sys; from densq.cli import main; "
            f"rc = main(['energy', {str(csv_path)!r}, '--kind', 'beta', '--p', '3', "
            f"'--out', {str(tmp_path / 'beta.json')!r}]); "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'], "
            "'densq.geometry' in sys.modules)")
    src = str(Path(densq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["2", "[]", "False"]
    assert "direction scans" in run.stderr


def test_energy_default_grid_multi_atom(tmp_path):
    csv_path = tmp_path / "c.csv"
    from densq import build_cantor
    build_cantor(2, 0.5, 3).save_csv(csv_path)
    out = tmp_path / "rep.json"
    rc = run_cli("energy", str(csv_path), "--kind", "wolff", "--s", "0.5",
                 "--out", str(out))
    assert rc == 0
    rep = json.loads(out.read_text())
    # default grid: [4 * min_spacing, 8 * support_radius]
    m = build_cantor(2, 0.5, 3)
    assert rep["grid"]["r_min"] == pytest.approx(4 * m.min_spacing)
    assert rep["grid"]["r_max"] == pytest.approx(8 * m.support_radius)
    # report arithmetic survives the JSON round trip
    assert rep["total"] == pytest.approx(
        math.fsum(v for _, v in rep["per_scale"]) + rep["tail"], rel=1e-12)


def test_energy_unreadable_file(tmp_path):
    assert run_cli("energy", str(tmp_path / "missing.csv"), "--kind", "sf",
                   "--s", "0.5", "--out", str(tmp_path / "o.json")) == 2


def test_energy_default_grid_degenerate_dirac(dirac_csv, tmp_path):
    # no explicit grid and a single atom: no usable default, config error
    assert run_cli("energy", str(dirac_csv), "--kind", "wolff", "--s", "0.5",
                   "--out", str(tmp_path / "o.json")) == 2


def test_energy_per_point_csv(tmp_path):
    csv_path = tmp_path / "m.csv"
    rng = np.random.default_rng(4)
    WeightedPointMeasure(rng.uniform(0, 1, (10, 2)),
                         np.full(10, 0.1)).save_csv(csv_path)
    pp = tmp_path / "pp.csv"
    rc = run_cli("energy", str(csv_path), "--kind", "wolff", "--s", "0.5",
                 "--r-min", "0.1", "--r-max", "2.0",
                 "--out", str(tmp_path / "o.json"), "--per-point-csv", str(pp))
    assert rc == 0
    assert len(pp.read_text().splitlines()) == 11


def test_exp_identity_quick(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_measures": 2, "n_atoms": 20, "n_queries": 2,
                               "quad_points": 64}))
    out_dir = tmp_path / "out"
    rc = run_cli("exp", "identity", "--config", str(cfg),
                 "--out-dir", str(out_dir))
    assert rc == 0
    for name in ["result.json", "raw.csv", "plot.svg"]:
        assert (out_dir / name).exists()
    assert "[PASS] max_relative_residual" in capsys.readouterr().out


def test_exp_band_failure_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_measures": 2, "n_atoms": 20, "n_queries": 2,
                               "quad_points": 64, "tol": 1e-30}))
    rc = run_cli("exp", "identity", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 1


def test_exp_integer_s_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_list": [0.5, 1.0], "depth": 2,
                               "drift_depth": 1}))
    rc = run_cli("exp", "comparability", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "integer" in capsys.readouterr().err


def test_exp_integer_degeneracy_unresolvable_resolution_usage_error(tmp_path, capsys):
    # 21 atoms put r_lo = 6 h above every widened r_hi / q: no row to report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": [21]}))
    rc = run_cli("exp", "integer-degeneracy", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "resolution 21" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exp_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery_knob": 1}))
    rc = run_cli("exp", "identity", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_exp_unknown_name_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("exp", "nonsense", "--out-dir", str(tmp_path))
    assert exc.value.code == 2


@pytest.fixture
def cantor_csv(tmp_path):
    path = tmp_path / "cantor.csv"
    build_cantor(2, 0.5, 3).save_csv(path)
    return path


@pytest.mark.parametrize("kind", ["beta", "riesz-sup"])
def test_energy_per_point_csv_refused_for_beta_and_riesz_sup(cantor_csv, tmp_path,
                                                             capsys, kind):
    # the flag used to be ignored: exit 0 and no per-point file
    out, pp = tmp_path / "o.json", tmp_path / "pp.csv"
    rc = run_cli("energy", str(cantor_csv), "--kind", kind, "--s", "0.5",
                 "--r-min", "0.05", "--r-max", "1.0", "--out", str(out),
                 "--per-point-csv", str(pp))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and kind in err[0]
    assert "--per-point-csv" in err[0]
    assert not out.exists() and not pp.exists()


@pytest.mark.parametrize("kind", ["sf", "wolff"])
def test_energy_per_point_csv_sums_to_the_total(cantor_csv, tmp_path, kind):
    out, pp = tmp_path / "o.json", tmp_path / "pp.csv"
    assert run_cli("energy", str(cantor_csv), "--kind", kind, "--s", "0.5",
                   "--out", str(out), "--per-point-csv", str(pp)) == 0
    lines = pp.read_text().splitlines()
    assert lines[0] == "atom_index,contribution" and len(lines) == 65
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(64))
    total = math.fsum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(json.loads(out.read_text())["total"], rel=1e-12)


@pytest.mark.parametrize("bound", [["--r-min", "0.1"], ["--r-max", "1.0"]])
def test_energy_one_grid_bound_usage_error(cantor_csv, tmp_path, capsys, bound):
    out = tmp_path / "o.json"
    rc = run_cli("energy", str(cantor_csv), "--kind", "wolff", "--s", "0.5", *bound,
                 "--out", str(out))
    assert rc == 2
    assert "pass both --r-min and --r-max, or neither" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["sf", "wolff", "riesz-sup"])
@pytest.mark.parametrize("s", [None, "inf", "nan", "-1"])
def test_energy_bad_s_fails_before_the_measure_is_read(cantor_csv, tmp_path, capsys,
                                                       monkeypatch, kind, s):
    # --s inf used to escape as an OverflowError (exit 1), --s -1 to warn that
    # it is an integer, and each only after the CSV was read and min_spacing run
    def no_spacing(self):
        raise AssertionError("min_spacing was computed")
    monkeypatch.setattr(WeightedPointMeasure, "min_spacing", property(no_spacing))
    out = tmp_path / "o.json"
    argv = ["energy", str(cantor_csv), "--kind", kind, "--out", str(out)]
    assert run_cli(*argv, *([] if s is None else ["--s", s])) == 2
    want = (f"--s is required for kind={kind}" if s is None
            else f"s must be positive and finite; got {float(s)}")
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_exp_verbose_prints_the_config_first(tmp_path, capsys):
    cfg = {"n_measures": 2, "n_atoms": 20, "n_queries": 2, "quad_points": 64}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = run_cli("--verbose", "exp", "identity", "--config", str(tmp_path / "cfg.json"),
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 0
    first, *rest = capsys.readouterr().out.splitlines()
    echoed = json.loads(first)
    assert {k: echoed[k] for k in cfg} == cfg and "tol" in echoed
    assert first == json.dumps(echoed, sort_keys=True)
    assert rest[0].startswith("[PASS] max_relative_residual")


@pytest.mark.parametrize("max_radii", [0, 1])
def test_exp_small_s_max_radii_below_two_usage_error(tmp_path, capsys, max_radii):
    # the check ran before the coarsening, so it never fired: 1 gave "need 0 <
    # eps1 < eps2" and 0 "attempt to get argmax of an empty sequence"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_radii": max_radii, "depth": 3, "drift_depth": 2}))
    rc = run_cli("exp", "small-s", "--config", str(cfg), "--out-dir",
                 str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: need at least two usable radii; max_radii={max_radii}"]


def test_written_files_get_the_mode_of_a_plain_open(tmp_path, cantor_csv):
    # the temp file of an atomic write is created owner-only; the rename must
    # not carry that mode over to gen and energy outputs
    umask = os.umask(0o022)
    os.umask(umask)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "dirac",
                                "params": {"dim": 2, "location": [0, 0], "mass": 1}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_measures": 1, "n_atoms": 10, "n_queries": 1,
                               "quad_points": 64}))
    out = tmp_path / "out"
    assert run_cli("gen", str(spec), "--out", str(out / "d.csv")) == 0
    assert run_cli("energy", str(cantor_csv), "--kind", "sf", "--s", "0.5",
                   "--out", str(out / "e.json"),
                   "--per-point-csv", str(out / "pp.csv")) == 0
    assert run_cli("exp", "identity", "--config", str(cfg),
                   "--out-dir", str(out / "exp")) == 0
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == ["d.csv", "e.json", "exp/plot.svg", "exp/raw.csv",
                       "exp/result.json", "pp.csv"]
    for path in out.rglob("*"):
        if path.is_file():
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path
