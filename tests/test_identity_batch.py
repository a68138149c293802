"""The smoothing identity's sides, computed for several queries in one call,
against the one-query algorithm they replace, kept here as the oracle: every
query's lhs and rhs equal the oracle's bit for bit, and bad input fails with
the same errors."""
import math
import tracemalloc

import numpy as np
import pytest

from densq import RadialProfile, WeightedPointMeasure, verify_convolution_identity
from densq import multiscale

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st


PROFILES = {"gaussian": RadialProfile.gaussian(), "bump": RadialProfile.bump(),
            "logistic_cap": RadialProfile.logistic_cap(20.0)}


def one_query_sides(measure, phi, x, R, s, quad_points):
    """(lhs, rhs) at one query, as the one-query algorithm computed them: the
    atoms sorted by distance from x, the panel edges from np.unique of the
    base nodes and the jumps, and phi' evaluated on every panel."""
    d2 = measure.ball_index().sq_dist(x)
    order = np.argsort(d2, kind="stable")
    d2s, w = d2[order], measure.weights[order]
    cumw = np.concatenate([[0.0], np.cumsum(w)])
    d = np.sqrt(d2s)
    v1, v2 = phi.value(np.stack([d / R, d / (2.0 * R)]))
    lhs = math.fsum((w * (v1 / R ** s - v2 / (2.0 * R) ** s)).tolist())

    lo, hi = phi.deriv_range()
    base = np.exp(np.linspace(math.log(lo), math.log(hi), quad_points))
    jumps = np.concatenate([d / R, d / (2.0 * R)])
    edges = np.unique(np.concatenate([base, jumps[(jumps > lo) & (jumps < hi)]]))
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    r2 = (mid * R) ** 2
    masses = cumw[np.searchsorted(d2s, np.stack([r2, 4.0 * r2]), side="right")]
    delta = masses[0] - 2.0 ** -s * masses[1]
    nodes, weights = np.polynomial.legendre.leggauss(8)
    quad = (phi.derivative(mid + half * nodes[:, None]) * weights[:, None]).sum(axis=0) * half
    return lhs, -float((delta * quad).sum()) / R ** s


def _tied_query(phi, quad_points, node, k, dim):
    """(R, atom): R = 2^k and an atom at distance base[node] * R from the
    origin along the first axis. Seen from the origin, the atom's jump d / R
    is that base node exactly: scaling by 2^k is exact, and so is
    sqrt(fl(d^2)) = d."""
    lo, hi = phi.deriv_range()
    base = np.exp(np.linspace(math.log(lo), math.log(hi), quad_points))
    atom = np.zeros(dim)
    atom[0] = base[node] * 2.0 ** k
    return 2.0 ** k, atom


def assert_matches_oracle(m, phi, xs, Rs, s, quad_points):
    lhs, rhs = multiscale._identity_sides(m, phi, xs, Rs, s, quad_points)
    assert len(lhs) == len(rhs) == len(xs)
    for k, (x, R) in enumerate(zip(xs, Rs)):
        want = one_query_sides(m, phi, x, R, s, quad_points)
        assert (lhs[k].hex(), rhs[k].hex()) == tuple(v.hex() for v in want), k


@st.composite
def identity_case(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # coordinates on a grid of eighths: many atoms at equal distances
        pts = np.array(draw(st.lists(st.lists(st.integers(0, 8), min_size=dim,
                                              max_size=dim), min_size=n, max_size=n))) / 8.0
    else:
        pts = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim,
                                              max_size=dim), min_size=n, max_size=n)))
    phi = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    quad_points = draw(st.sampled_from([16, 64, 512]))
    xs, Rs, tied = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["free", "atom", "tie"]))
        if kind == "tie":
            # from the origin, one atom's jump is a base node
            R, atom = _tied_query(phi, quad_points, draw(st.integers(1, quad_points - 2)),
                                  draw(st.integers(-4, 1)), dim)
            tied.append(atom)
            x = np.zeros(dim)
        else:
            R = math.exp(draw(st.floats(math.log(0.05), math.log(3.0))))
            # a query at an atom has one distance 0
            x = (pts[draw(st.integers(0, n - 1))] if kind == "atom" else
                 np.array(draw(st.lists(st.floats(-0.25, 1.25), min_size=dim,
                                        max_size=dim))))
        xs.append(x)
        Rs.append(R)
    pts = np.vstack([pts, *tied])
    w = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=len(pts), max_size=len(pts))))
    return (WeightedPointMeasure(pts, w / len(pts)), phi, xs, Rs, draw(st.floats(0.3, 1.7)),
            quad_points)


@given(identity_case())
def test_batched_identity_sides_equal_the_one_query_algorithm(case):
    assert_matches_oracle(*case)


def test_a_jump_on_a_base_node_and_a_query_on_an_atom_match_the_oracle():
    for phi in PROFILES.values():
        R, atom = _tied_query(phi, 64, 40, -1, 2)
        pts = np.array([atom, [0.5, 0.0], [0.0, 0.5], [1.0, 0.0], [0.25, 0.25]])
        m = WeightedPointMeasure(pts, np.full(5, 0.2))
        lo, hi = phi.deriv_range()
        jumps = np.sqrt(m.ball_index().sq_dist([0.0, 0.0])) / R
        assert np.exp(np.linspace(math.log(lo), math.log(hi), 64))[40] in jumps
        assert_matches_oracle(m, phi, [[0.0, 0.0], pts[1], [0.3, 0.1], [0.0, 0.0]],
                              [R, 0.7, R, 0.3], 0.8, 64)


def test_the_suite_pairs_match_the_oracle():
    # the default identity suite's first measure, both profiles, at every query
    rng = np.random.default_rng(20240601)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    w = rng.uniform(0.5, 1.5, size=100) / 100
    s = rng.uniform(0.3, 1.7)
    queries = [(rng.uniform(-0.2, 1.2, size=2),
                math.exp(rng.uniform(math.log(0.05), math.log(3.0)))) for _ in range(20)]
    m = WeightedPointMeasure(pts, w)
    for name in ("gaussian", "bump"):
        assert_matches_oracle(m, PROFILES[name], [x for x, _ in queries],
                              [R for _, R in queries], s, 512)


@pytest.mark.parametrize("Rs, xs, quad_points, message", [
    ([0.5, float("nan"), 0.7], [[0.1, 0.2]] * 3, 64,
     "R must be positive, finite and not nan; got nan"),
    ([0.5, 0.0], [[0.1, 0.2]] * 2, 64, "R must be positive"),
    ([0.5, float("inf")], [[0.1, 0.2]] * 2, 64, "R must be positive, finite and not nan; got inf"),
    ([0.5, 0.7], [[0.1, 0.2], [0.1, float("nan")]], 64, "x must be a finite vector of length 2"),
    ([0.5, 0.7], [[0.1, 0.2], [0.1, 0.2, 0.3]], 64, "x must be a finite vector of length 2"),
    ([0.5], [[0.1, 0.2, 0.3]], 64, "x must be a finite vector of length 2"),
    ([0.5, 0.7], [[0.1, 0.2]] * 2, 8, "quad_points must be >= 16"),
])
def test_batched_identity_errors(Rs, xs, quad_points, message):
    m = WeightedPointMeasure([[0.0, 0.0], [1.0, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        multiscale._identity_sides(m, RadialProfile.gaussian(), xs, Rs, 0.8, quad_points)
    if len(Rs) == 1 or quad_points < 16:
        with pytest.raises(ValueError, match=message):
            verify_convolution_identity(m, RadialProfile.gaussian(), xs[0], Rs[0], 0.8,
                                        quad_points)


def test_no_queries_give_empty_sides():
    m = WeightedPointMeasure([[0.0, 0.0], [1.0, 0.5]], [0.5, 0.5])
    lhs, rhs = multiscale._identity_sides(m, RadialProfile.bump(), [], [], 0.8, 64)
    assert lhs.shape == rhs.shape == (0,)


def test_identity_peak_memory_does_not_grow_with_the_query_count():
    # the queries are taken a group at a time: ten times as many queries
    # leave the peak where it was (a whole (queries, atoms) matrix would not)
    rng = np.random.default_rng(3)
    m = WeightedPointMeasure(rng.uniform(size=(2000, 2)), np.full(2000, 1 / 2000))
    phi = RadialProfile.gaussian()

    def peak(n_queries):
        xs, Rs = rng.uniform(size=(n_queries, 2)), [0.3] * n_queries
        tracemalloc.start()
        try:
            multiscale._identity_sides(m, phi, xs, Rs, 0.8, 64)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)     # the ball index is built once, outside the traced calls
    assert peak(400) < 1.2 * peak(40)
