import json
import math

import numpy as np
import pytest

from densq import WeightedPointMeasure, build_dirac
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
