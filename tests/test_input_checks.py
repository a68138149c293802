"""Input checks that the rest of the suite never reaches: each bad input raises
its own message, and where the command line reaches the check, the call exits
2 with a single `error:` line and writes no output file."""
import json
import re

import numpy as np
import pytest

from densq import (
    PointBudgetError,
    RadialProfile,
    ScaleGrid,
    TruncationPair,
    WeightedPointMeasure,
    ad_regularity_diagnostic,
    beta2,
    beta_energy,
    ball_masses,
    beta_inf,
    build_cantor,
    build_flat,
    build_gamma_curve,
    build_polyline,
    density,
    density_difference,
    find_thin_boundary_radius,
    local_energy_ratio,
    run_identity_suite,
    run_small_s_comparability,
    smoothed_density_difference,
    square_function_energy,
    truncated_riesz,
    verify_convolution_identity,
)
from densq.cli import main


def _usage_error(capsys, argv, message):
    """Run the CLI; it must exit 2 with one `error:` line holding message."""
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]


# ---------------------------------------------------------------------------
# through the command line

GEN_CASES = [
    ({"kind": "cantor", "params": {"dim": 0, "s": 0.5, "depth": 2}},
     "need dim >= 1 and depth >= 0"),
    ({"kind": "cantor", "params": {"dim": 2, "s": 0.5, "depth": -1}},
     "need dim >= 1 and depth >= 0"),
    ({"kind": "cantor", "params": {"dim": 2, "s": 0.5, "depth": 2, "branching": 1}},
     "branching must be in [2, 2^dim]; got 1"),
    ({"kind": "flat", "params": {"dim": 2, "k": 1, "half_extent": 0.0, "spacing": 0.1}},
     "half_extent and spacing must be positive"),
    ({"kind": "dirac", "params": {"dim": 2, "location": [0.0, 0.0], "mass": 0.0}},
     "mass must be positive"),
    ({"kind": "polyline", "params": {"vertices": [[0.0, 0.0]], "spacing": 0.1}},
     "polyline needs at least two vertices"),
    ({"kind": "polyline", "params": {"vertices": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                     "spacing": 0.1}},
     "polyline edge 0 has zero length"),
    ({"kind": "polyline", "params": {"vertices": [[0.0, 0.0], [1.0, 0.0]],
                                     "spacing": 0.0}},
     "spacing must be positive"),
    # checked before anything is allocated: nan once ended in an int() of nan
    ({"kind": "polyline", "params": {"vertices": [[0.0, 0.0], [1.0, 0.0]],
                                     "spacing": float("nan")}},
     "spacing must be positive and finite; got nan"),
    ({"kind": "polyline", "params": {"vertices": [[0.0, 0.0], [1.0, 0.0]],
                                     "spacing": float("inf")}},
     "spacing must be positive and finite; got inf"),
    ({"kind": "polyline", "params": {"vertices": [[0.0, 0.0], [1.0, float("nan")]],
                                     "spacing": 0.1}},
     "polyline vertex 1 is not finite: [1.0, nan]"),
    ({"kind": "gamma_curve", "params": {"alpha": 0.4, "half_extent": 0.5,
                                        "spacing": 1 / 32}},
     "half_extent must be >= 1"),
    ([{"kind": "dirac"}], "measure spec must be a JSON object"),
    ({"kind": "cantor"}, "measure spec needs 'kind' and 'params'"),
    # the last offsets round away and atoms collide
    ({"kind": "cantor", "params": {"dim": 2, "s": 0.2, "depth": 7}},
     "9216 of 16384 atoms are distinct"),
    ({"kind": "cantor", "params": {"dim": 1, "s": 0.2, "depth": 12}},
     "3072 of 4096 atoms are distinct"),
    ({"kind": "flat", "params": {"dim": 2, "k": 1, "half_extent": 1.0, "spacing": 0.1,
                                 "jitter": -0.5}},
     "jitter must lie in [0, 1] (and not nan); got -0.5"),
    ({"kind": "flat", "params": {"dim": 2, "k": 1, "half_extent": 1.0, "spacing": 0.1,
                                 "jitter": 1.5}},
     "jitter must lie in [0, 1] (and not nan); got 1.5"),
    ({"kind": "flat", "params": {"dim": 3, "k": 2, "half_extent": 1.0, "spacing": 0.1,
                                 "jitter": float("nan")}},
     "jitter must lie in [0, 1] (and not nan); got nan"),
]


@pytest.mark.parametrize("spec, message", GEN_CASES)
def test_gen_rejects_bad_specs(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "m.csv"
    _usage_error(capsys, ["gen", path, "--out", out], message)
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("text, message", [
    ("x0,x1,w\n0.0,0.0,1.0\n1.0,1.0\n", "row with 2 fields, expected 3"),
    ("x0,x1,w\n", "need at least one atom with coordinate vectors"),
])
def test_energy_rejects_malformed_measure_csv(tmp_path, capsys, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    _usage_error(capsys, ["energy", path, "--kind", "wolff", "--s", "0.5",
                          "--out", tmp_path / "o.json"], message)
    assert not (tmp_path / "o.json").exists()


def test_load_csv_rejects_a_short_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x0,x1,w\n0.0,0.0,1.0\n1.0,1.0\n")
    with pytest.raises(ValueError, match="row with 2 fields, expected 3"):
        WeightedPointMeasure.load_csv(path)


EXP_CASES = [
    ("comparability", {"s_list": [0.5, 2.5], "depth": 2, "drift_depth": 1},
     "s=2.5 outside (0, 2)"),
    ("tent-counterexample", {"alpha_list": [0.1, 0.2, 0.3]},
     "need at least 4 alpha values for the slope fits"),
    ("tent-counterexample", {"alpha_list": [0.1, 0.2, 0.3, 1.0]},
     "alpha values must lie in (0, pi/4]"),
    ("tent-counterexample", {"half_extent": 2.0},
     "half_extent too small for the scale caps"),
    ("small-s", {"s": 1.5}, "small-s comparability requires 0 < s < 1"),
    ("identity", {"profiles": ["gaussian", "box"]}, "unknown profile 'box'"),
]


@pytest.mark.parametrize("grid", [
    # r_max / r_min overflows: once an OverflowError traceback (exit 1)
    ["--r-min", "1e-300", "--r-max", "1e300", "--q", "1.0000001"],
    # about 6.9e14 radii: once a failed allocation of 4.91 PiB (exit 1)
    ["--r-min", "1e-150", "--r-max", "1e150", "--q", "1.000000000001", "--kappa", "0"],
])
def test_energy_rejects_a_grid_past_the_radius_budget(tmp_path, capsys, grid):
    path = tmp_path / "m.csv"
    path.write_text("x0,x1,w\n0.0,0.0,1.0\n1.0,0.5,1.0\n0.3,0.2,1.0\n")
    _usage_error(capsys, ["energy", path, "--kind", "sf", "--s", "0.5", *grid,
                          "--out", tmp_path / "o.json"], "scale grid radii: ")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("name, config, message", EXP_CASES)
def test_exp_rejects_bad_configs(tmp_path, capsys, name, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    _usage_error(capsys, ["exp", name, "--config", cfg, "--out-dir", tmp_path / "out"],
                 message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", [-2, 0])
def test_exp_rejects_a_thread_count_below_one(tmp_path, capsys, threads):
    _usage_error(capsys, ["--threads", threads, "exp", "identity", "--out-dir",
                          tmp_path / "out"], f"threads must be at least 1; got {threads}")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# API only

def _bad_derivative():
    return RadialProfile(value=lambda u: np.asarray(u) ** 2,
                         derivative=lambda u: np.asarray(u), support=1.0, name="bad")


def _tiny_support():
    # support below PROFILE_DERIV_LO: the derivative has nowhere to live
    g = RadialProfile.gaussian()
    return RadialProfile(value=g.value, derivative=g.derivative, support=1e-7,
                         name="tiny")


_M = build_cantor(2, 0.5, 3)
_X = _M.points[0]
NAN, INF = float("nan"), float("inf")

API_CASES = [
    (lambda: WeightedPointMeasure(np.zeros((0, 2)), np.zeros(0)),
     "need at least one atom with coordinate vectors"),
    (lambda: WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0, 1.0]),
     "weights must match points one-to-one"),
    (lambda: build_gamma_curve(0.4, 2.0, 1 / 32, weighting="lebesgue"),
     "unknown weighting 'lebesgue'"),
    (lambda: RadialProfile.bump(inner=2.0, outer=1.0), "need 0 < inner < outer"),
    (lambda: _bad_derivative().check_derivative(np.linspace(0.1, 0.9, 5)),
     "profile bad: derivative inconsistent"),
    (lambda: smoothed_density_difference(_M, RadialProfile.gaussian(), _X, 0.0, 0.5),
     "t must be positive"),
    (lambda: verify_convolution_identity(_M, RadialProfile.gaussian(), _X, 0.0, 0.5),
     "R must be positive"),
    (lambda: verify_convolution_identity(_M, _tiny_support(), _X, 0.1, 0.5),
     "profile tiny has empty derivative range"),
    (lambda: verify_convolution_identity(_M, RadialProfile.gaussian(), _X, NAN, 0.5),
     "R must be positive, finite and not nan; got nan"),
    (lambda: verify_convolution_identity(_M, RadialProfile.gaussian(), _X, INF, 0.5),
     "R must be positive, finite and not nan; got inf"),
    (lambda: verify_convolution_identity(_M, RadialProfile.gaussian(), _X, 0.5, NAN),
     "s must be positive and finite; got nan"),
    (lambda: verify_convolution_identity(_M, RadialProfile.bump(), [0.1, NAN], 0.5, 0.5),
     "x must be a finite vector of length 2"),
    (lambda: verify_convolution_identity(_M, RadialProfile.bump(), [0.1, 0.2, 0.3],
                                         0.5, 0.5),
     "x must be a finite vector of length 2"),
    (lambda: smoothed_density_difference(_M, RadialProfile.gaussian(), _X, NAN, 0.5),
     "t must be positive, finite and not nan; got nan"),
    (lambda: smoothed_density_difference(_M, RadialProfile.gaussian(), _X, INF, 0.5),
     "t must be positive, finite and not nan; got inf"),
    (lambda: find_thin_boundary_radius(_M, _X, 0.0), "r must be positive"),
    (lambda: find_thin_boundary_radius(_M, _X, INF),
     "r must be positive, finite and not nan; got inf"),
    (lambda: square_function_energy(_M, INF, ScaleGrid(0.1, 1.0)),
     "s must be positive and finite; got inf"),
    (lambda: density_difference(_M, _X, 0.1, INF), "s must be positive and finite; got inf"),
    (lambda: find_thin_boundary_radius(_M, _X, 0.1, lambda_grid=[]),
     "lambda_grid must be a nonempty subset of (0, 1]"),
    (lambda: find_thin_boundary_radius(_M, _X, 0.1, lambda_grid=[0.5, 2.0]),
     "lambda_grid must be a nonempty subset of (0, 1]"),
    (lambda: local_energy_ratio(_M, _X, 0.1, 0.5, delta_param=1.0),
     "delta_param must lie in (0, 1)"),
    (lambda: local_energy_ratio(_M, _X, 0.0, 0.5, delta_param=0.5),
     "r0 must be positive"),
    (lambda: local_energy_ratio(_M, _X, INF, 0.5, delta_param=0.5),
     "r0 must be positive, finite and not nan; got inf"),
    (lambda: local_energy_ratio(_M, _X, 0.1, NAN, delta_param=0.5),
     "s must be positive and finite; got nan"),
    (lambda: local_energy_ratio(_M, _X, 0.1, INF, delta_param=0.5),
     "s must be positive and finite; got inf"),
    (lambda: local_energy_ratio(_M, _X, 0.1, -1.0, delta_param=0.5),
     "s must be positive and finite; got -1.0"),
    (lambda: ad_regularity_diagnostic(_M, NAN, ScaleGrid(0.1, 1.0)),
     "s must be positive and finite; got nan"),
    (lambda: ad_regularity_diagnostic(_M, INF, ScaleGrid(0.1, 1.0)),
     "s must be positive and finite; got inf"),
    (lambda: ad_regularity_diagnostic(_M, -1.0, ScaleGrid(0.1, 1.0)),
     "s must be positive and finite; got -1.0"),
    # every grid radius is past the support diameter (about 1.2)
    (lambda: ad_regularity_diagnostic(_M, 0.5, ScaleGrid(10.0, 20.0)),
     "no grid radii inside the resolved range"),
    (lambda: ad_regularity_diagnostic(_M, 0.5, ScaleGrid(0.1, 1.0), eval_indices=[]),
     "no evaluation atoms: theta has no min or max"),
    (lambda: build_polyline([[0.0, 0.0], [INF, 1.0], [2.0, 0.0]], 0.1),
     "polyline vertex 1 is not finite: [inf, 1.0]"),
    (lambda: build_polyline([[0.0, 0.0], [1.0, 1.0]], -INF),
     "spacing must be positive and finite; got -inf"),
    (lambda: beta_energy(_M, ScaleGrid(0.1, 1.0)).save_per_point_csv("unused.csv"),
     "report carries no per-point breakdown"),
    (lambda: run_identity_suite({"n_measures": 1, "n_atoms": 8, "n_queries": 1},
                                threads=0),
     "threads must be at least 1; got 0"),
    (lambda: run_small_s_comparability({"depth": 2, "drift_depth": 1}, threads=-1),
     "threads must be at least 1; got -1"),
]


# every single-center query checks its center before it scans the atoms
_CENTER_CALLS = [
    lambda x: density(_M, x, 0.1, 0.5),
    lambda x: density_difference(_M, x, 0.1, 0.5),
    lambda x: beta2(_M, x, 0.5),
    lambda x: beta_inf(_M, x, 0.5),
    lambda x: truncated_riesz(_M, x, TruncationPair(0.1, 0.5), 0.5),
    lambda x: _M.ball_index().ball_atoms(x, 0.5),
    lambda x: _M.ball_index().mass_in_ball(x, 0.5),
    lambda x: _M.ball_index().annulus_atoms(x, 0.1, 0.5),
]
API_CASES += [(lambda f=f, x=x: f(x), "x must be a finite vector of length 2")
              for f in _CENTER_CALLS for x in ([0.1, NAN], [INF, 0.1], [0.1, 0.2, 0.3])]
# and so does every ball-mass pass, on the radial-shell and the segment engine:
# a nan center once gave mass 0.0 on the one and nan on the other
_TENT = build_gamma_curve(0.4, 1.0, 1 / 32)
API_CASES += [(lambda m=m, c=c: ball_masses(m, c, [0.1, 0.5]),
               "centers must be finite vectors of length 2")
              for m in (_M, _TENT)
              for c in ([[0.1, NAN]], [_X, [INF, 0.1]], [[0.1, 0.2, 0.3]])]
# a finite center whose squared distances from the atoms overflow: the segment
# engine once gave nan there, and the radial-shell engine 2.25 with warnings
_FLAT = build_flat(2, 1, 1.0, 0.25)
API_CASES += [(lambda m=m: ball_masses(m, [[1e160, 0.0]], [1e160, 2e160]),
               "centers too far from the atoms: squared distances overflow")
              for m in (_FLAT, WeightedPointMeasure(_FLAT.points, _FLAT.weights), _M, _TENT)]
# finite squared distances that overflow in units of the lattice step (0.25):
# the segment engine once gave nan off the line and warned on it
API_CASES += [(lambda c=c: ball_masses(_FLAT, c, [5e153]),
               "centers too far out for the lattice step: squared distances in steps overflow")
              for c in ([[0.0, 5e153]], [[5e153, 0.0]])]


@pytest.mark.parametrize("call, message", API_CASES)
def test_api_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("r_min, r_max, q, count", [
    (1e-300, 1e300, 1.0000001, "inf"),
    (1e-150, 1e150, 1.000000000001, "690714123010793"),
    (1.0, 1.0000001 ** 2_000_000 * (1.0 + 1e-13), 1.0000001, "2000001"),
])
def test_scale_grid_rejects_a_radius_count_past_the_budget(r_min, r_max, q, count):
    with pytest.raises(PointBudgetError, match=f"scale grid radii: {count} > budget 2000000"):
        ScaleGrid(r_min, r_max, q)


def test_scale_grid_takes_a_radius_count_at_the_budget():
    q = 1.0000001
    assert len(ScaleGrid(1.0, q ** 1_999_999 * (1.0 + 1e-13), q).radii) == 2_000_000

