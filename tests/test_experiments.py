import json

import numpy as np
import pytest

from densq import (
    fit_loglog_slope,
    run_comparability,
    run_identity_suite,
    run_integer_degeneracy,
    run_small_s_comparability,
)
from densq.experiments import EXPERIMENTS, SweepResult, _merge_config, write_scatter_svg


# ---------------------------------------------------------------------------
# slope fitting

def test_fit_exact_square():
    xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    slope, intercept, resid = fit_loglog_slope(xs, xs ** 2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_constant():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    slope, _, _ = fit_loglog_slope(xs, np.full(4, 3.7))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_noisy_quartic():
    rng = np.random.default_rng(1)
    xs = np.logspace(0, 1, 12)
    ys = xs ** 4 * (1.0 + 0.01 * rng.uniform(-1, 1, size=12))
    slope, _, resid = fit_loglog_slope(xs, ys)
    assert 3.9 <= slope <= 4.1
    assert resid < 0.02


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0, 3.0, -4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# configs

def test_unknown_config_key_rejected():
    with pytest.raises(ValueError, match="bogus"):
        _merge_config({"a": 1}, {"bogus": 2}, "demo")
    with pytest.raises(ValueError, match="not_a_field"):
        run_identity_suite({"not_a_field": 3})


def test_comparability_refuses_integer_s():
    with pytest.raises(ValueError, match="integer"):
        run_comparability({"s_list": [0.5, 1.0], "depth": 2, "drift_depth": 1})


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {"comparability", "integer-degeneracy",
                                "tent-counterexample", "small-s", "identity"}


# ---------------------------------------------------------------------------
# small end-to-end runs

QUICK_IDENTITY = {"n_measures": 3, "n_atoms": 25, "n_queries": 3,
                  "quad_points": 64}


def test_identity_suite_quick(tmp_path):
    res = run_identity_suite(QUICK_IDENTITY)
    assert res.passed
    res.emit(tmp_path)
    data = json.loads((tmp_path / "result.json").read_text())
    assert data["name"] == "identity"
    assert data["checks"][0]["passed"] is True
    assert (tmp_path / "raw.csv").read_text().splitlines()[0] == \
        "measure,query,profile,s,R,residual"
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.startswith("<svg") and "residual" in svg


def test_identity_suite_seed_with_edge_atom_passes():
    # at seed 92 the only atom in one bump-profile query's reach sits at the
    # edge of its support: both sides are ~1e-180 and only the absolute floor
    # of the residual's denominator keeps rounding noise from failing the band
    res = run_identity_suite({"seed": 92})
    assert res.passed
    assert res.totals["max_residual"][0] < 1e-12


def test_identity_suite_band_failure():
    res = run_identity_suite({**QUICK_IDENTITY, "tol": 1e-30})
    assert not res.passed


def test_determinism_bit_identical_any_threads(tmp_path):
    out = []
    for i, threads in enumerate([1, 4, 1]):
        d = tmp_path / f"run{i}"
        run_identity_suite(QUICK_IDENTITY, threads=threads).emit(d)
        out.append((d / "result.json").read_bytes())
    assert out[0] == out[1] == out[2]


def test_comparability_quick_structure(tmp_path):
    res = run_comparability({"s_list": [0.5, 0.7, 1.2, 1.5], "depth": 4,
                             "drift_depth": 3})
    res.emit(tmp_path)
    data = json.loads((tmp_path / "result.json").read_text())
    assert len(data["totals"]["ratio"]) == 4
    assert any(c["name"] == "ratio_spread" for c in data["checks"])
    rows = (tmp_path / "raw.csv").read_text().splitlines()
    assert len(rows) == 5
    # determinism across thread counts
    import densq.experiments as ex
    a = ex.run_comparability({"s_list": [0.5, 0.7, 1.2, 1.5], "depth": 4,
                              "drift_depth": 3}, threads=3)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(res.to_json_dict(), sort_keys=True)


def test_each_measure_gets_one_ball_mass_pass(monkeypatch):
    # comparability: per s, the deep Cantor set once for its full grid and the
    # common window, the shallow one once; integer degeneracy: per resolution,
    # one pass for every widen range and the fixed range, each distinct
    # radius counted once
    import densq.multiscale as msc
    calls, real = [], msc._mass_blocks

    def counted(family, centers, radii):
        assert len(np.unique(radii)) == len(radii)
        calls.append((family[0].n_atoms, len(radii)))
        return real(family, centers, radii)

    monkeypatch.setattr(msc, "_mass_blocks", counted)
    run_comparability({"s_list": [0.5, 0.7, 1.2, 1.5], "depth": 3, "drift_depth": 2})
    assert [n for n, _ in calls] == [64, 16] * 4
    calls.clear()
    run_integer_degeneracy({"resolutions": [101, 201], "widen_factors": [1, 4, 16]})
    assert [n for n, _ in calls] == [101, 201]
    calls.clear()
    # the default resolutions ask for 66 and 130 radii, 60 and 90 of them distinct
    run_integer_degeneracy({})
    assert calls == [(251, 60), (1001, 90)]


def test_integer_degeneracy_quick():
    res = run_integer_degeneracy({"resolutions": [251, 501],
                                  "widen_factors": [1, 4]})
    names = {c["name"] for c in res.checks}
    assert "wolff_matches_4_mass_log_range" in names
    assert "sf_fixed_range_decreases_with_h" in names
    for c in res.checks:
        if c["name"] == "sf_fixed_range_decreases_with_h":
            assert c["passed"]


def test_small_s_quick():
    res = run_small_s_comparability({"depth": 4, "drift_depth": 3})
    assert res.passed
    ratios = {c["name"]: c["value"] for c in res.checks if "ratio" in c["name"]}
    for v in ratios.values():
        assert 1 / 30 <= v <= 30


def test_small_s_near_integer_reported_only():
    res = run_small_s_comparability({"s": 0.99, "depth": 3, "drift_depth": 2})
    assert all(c["passed"] is None for c in res.checks)
    assert res.passed   # informational checks never fail the run


def _sweep(**kw):
    return SweepResult(**{"name": "demo", "config": {}, "parameters": {}, "totals": {},
                          "checks": [], "raw_columns": ["a", "b"],
                          "raw_rows": [[1, 0.5]],
                          "plot": {"series": [{"label": "a", "xs": [1, 2],
                                               "ys": [1, 2]}],
                                   "xlabel": "x", "ylabel": "y"}, **kw})


def test_emit_failure_leaves_no_partial_file(tmp_path):
    # raw.csv used to be written in place: a bad row left half a table
    with pytest.raises(TypeError):
        _sweep(raw_rows=[[1, 0.5], None]).emit(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json"]


def test_emit_writes_float_subclasses_as_floats(tmp_path):
    # repr(np.float64(0.5)) is "np.float64(0.5)" under numpy 2
    res = _sweep(raw_rows=[[np.int64(1), np.float64(0.5)]])
    assert res.fits == {} and res.notes == []
    res.emit(tmp_path)
    assert (tmp_path / "raw.csv").read_text() == "a,b\n1,0.5\n"
    assert json.loads((tmp_path / "result.json").read_text())["fits"] == {}


def test_svg_writer_without_a_plottable_point(tmp_path):
    # log axes drop every point that is not positive: the axes fall back to a
    # unit box and no marker is drawn
    write_scatter_svg(tmp_path / "p.svg", [{"label": "zero", "xs": [1, 2], "ys": [0, 0]}],
                      xlabel="x", ylabel="y")
    text = (tmp_path / "p.svg").read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert "<circle" not in text


def test_svg_writer_lin_axes(tmp_path):
    write_scatter_svg(tmp_path / "p.svg",
                      [{"label": "a", "xs": [1, 2, 3], "ys": [4, 5, 6],
                        "fit": None}],
                      xlabel="x", ylabel="y", logx=False, logy=False)
    text = (tmp_path / "p.svg").read_text()
    assert "<svg" in text and "</svg>" in text


def test_svg_writer_markers_stay_in_the_box_with_a_linear_x_axis(tmp_path):
    # only y is logarithmic: x = 0 is plottable, so it is inside the x span and
    # its marker right of the y axis (x = 70)
    write_scatter_svg(tmp_path / "p.svg", [{"label": "a", "xs": [0, 1, 2], "ys": [1, 2, 4]}],
                      xlabel="x", ylabel="y", logx=False)
    cx = [float(line.split('cx="')[1].split('"')[0])
          for line in (tmp_path / "p.svg").read_text().splitlines() if "<circle" in line]
    assert len(cx) == 3 and min(cx) >= 70
