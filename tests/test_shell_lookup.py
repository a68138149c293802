"""The radial-shell lookup: its bucket table plus one predicate step must equal
`searchsorted(r2s, d2, side="left")` element for element, and `_shell_sums`
built on it must give the bytes of the plain binary-search pass."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import WeightedPointMeasure, ball_masses, betas, build_cantor, riesz
from densq import measures as ms

from conftest import whole

TINY = 5e-324          # the smallest subnormal


def lookup(r2s, d2):
    r2s, d2 = np.asarray(r2s, dtype=float), np.asarray(d2, dtype=float)
    n = len(d2)
    return ms._shell_lookup(r2s)(d2, np.empty(n, np.int64), np.empty(n, np.int64),
                                 np.empty(n, dtype=bool))


def around(values):
    """Each value, one ulp either side of it, and 0 and inf."""
    v = np.asarray(values, dtype=float)
    return np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), [0.0, np.inf]])


def assert_lookup_exact(r2s):
    r2s = np.sort(np.asarray(r2s, dtype=float))
    d2 = around(r2s)
    with np.errstate(over="ignore"):
        d2 = np.concatenate([d2, d2 * 0.5, d2 * 3.0, [TINY, 1e-300, 1e300, 1.0]])
    np.testing.assert_array_equal(lookup(r2s, d2), np.searchsorted(r2s, d2, side="left"))


GEOMETRIC = (1e-3 * 1.1 ** (np.arange(100) + 0.5)) ** 2


@pytest.mark.parametrize("r2s", [
    GEOMETRIC,                                          # a default grid: table
    np.concatenate([GEOMETRIC, 4.0 * GEOMETRIC]),       # samples and doubles
    np.concatenate([[0.0, np.inf], GEOMETRIC]),         # 0 and inf beside them
    [0.25], [0.0], [np.inf], [TINY], [],                # one radius, or none
    [0.0, TINY, 2 * TINY, 1e-310],                      # subnormals
    [1.0, np.nextafter(1.0, 2.0)],                      # a tie within one ulp
    [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0, 1e10],
    [0.0, 0.5, 0.5, 0.5, 2.0],                          # duplicates
    [0.0, 0.0, np.inf, np.inf],
    np.concatenate([[0.0, np.inf], 1.0 + np.arange(40) * 2.0 ** -52]),  # crowded
])
def test_lookup_equals_searchsorted_at_adversarial_radii(r2s):
    assert_lookup_exact(r2s)


def test_lookup_at_squared_atom_distances():
    # d2 of exact atom distances against radii that are those distances
    m = build_cantor(2, 0.7, 4)
    d2 = ((m.points[:7, None, :] - m.points[None, :, :]) ** 2).sum(-1).ravel()
    r = np.sqrt(d2[::5])
    r2s = np.sort(r * r)
    np.testing.assert_array_equal(lookup(r2s, d2), np.searchsorted(r2s, d2, side="left"))


nonneg = st.one_of(st.floats(0.0, math.inf, allow_nan=False),
                   st.sampled_from([0.0, TINY, 1e-310, 1.0, math.inf]),
                   st.integers(-30, 30).map(lambda k: 1.1 ** k))


@given(st.lists(nonneg, max_size=40), st.lists(nonneg, max_size=40), st.data())
def test_lookup_equals_searchsorted_property(radii2, extra, data):
    # squares are never -0.0
    r2s = np.sort(np.abs(radii2 + radii2[:data.draw(st.integers(0, 3))]).astype(float))
    d2 = np.concatenate([around(r2s), np.array(extra, dtype=float)])
    np.testing.assert_array_equal(lookup(r2s, d2), np.searchsorted(r2s, d2, side="left"))


def binary_search_shell_sums(points, weights, centers, radii, values, n_values):
    """The radial-shell pass as it was before the bucket table: a fresh
    binary search and fresh temporaries per chunk, and every center in one
    block."""
    radii = np.asarray(radii, dtype=float)
    r2 = radii * radii
    order = np.argsort(r2, kind="stable")
    r2s = r2[order]
    m, (n, dim) = len(radii), centers.shape
    step = ms._pair_step(n, len(points) * n_values, "radial-shell (center, atom, value) cells")
    scale = max(np.abs(points).max(), np.abs(centers).max(initial=0.0))
    pad = radii.max(initial=0.0)
    pad += 1e-9 * (pad + scale)
    out = np.empty((n_values, n, m))
    for a in range(0, n, step):
        c = centers[a:a + step]
        rows = len(c)
        pts, w = points, weights
        keep = ms._near_atoms(points, c, pad)
        if not keep.all():
            pts, w = points[keep], None if weights is None else weights[keep]
        diff = [pts[None, :, k] - c[:, k, None] for k in range(dim)]
        d2 = diff[0] ** 2
        for dk in diff[1:]:
            d2 += dk ** 2
        shell = np.searchsorted(r2s, d2, side="left")
        shell += (np.arange(rows) * (m + 1))[:, None]
        shell = shell.ravel()
        # no values: sum the weights, or count the atoms if there are none
        for v, val in enumerate([w] if values is None else values(diff, d2, w)):
            if val is not None:     # None counts the atoms
                val = np.broadcast_to(val, d2.shape).ravel()
            bins = np.bincount(shell, weights=val,
                               minlength=rows * (m + 1)).reshape(rows, m + 1)
            out[v, a:a + rows][:, order] = np.cumsum(bins[:, :m], axis=1)
    return iter([(0, out)])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("chunk, block", [(2 ** 18, 2 ** 16), (700, 300)])
def test_shell_sums_give_the_bytes_of_the_binary_search_pass(monkeypatch, dim, chunk, block):
    # small chunks prune to boxes of varying width, and small blocks split
    # them, so the reused buffers are read at many sizes; ball masses, beta_2
    # moments and Riesz kernel sums
    rng = np.random.default_rng(dim)
    monkeypatch.setattr(ms, "_CHUNK_CELLS", chunk)
    monkeypatch.setattr(ms, "_BLOCK_CELLS", block)
    for m in (build_cantor(dim, 0.6 * dim, {1: 6, 2: 3, 3: 2}[dim]),
              WeightedPointMeasure(rng.uniform(-1, 1, (120, dim)), rng.uniform(0.5, 1.5, 120))):
        centers = m.points[::3]
        d = np.sqrt(((centers[:2, None] - m.points[None]) ** 2).sum(-1)).ravel()[::13][:12]
        geometric = 0.01 * 1.2 ** np.arange(30)
        ties = np.concatenate([d, np.nextafter(d, 0.0), np.nextafter(d, 9.0)])
        evals = np.arange(0, m.n_atoms, 4)

        def run():
            got = []
            for radii in (geometric, np.concatenate([[0.0, np.inf], geometric]),
                          ties, np.array([0.3]), np.array([0.2, 0.2, 0.5]), np.array([])):
                got.append(ball_masses(m, centers, radii).tobytes())
                got.append(riesz._pair_energy_matrix(m, 0.7, radii, evals).tobytes())
                if np.all(radii > 0) and np.all(np.isfinite(radii)):
                    got.append(whole(betas._beta2_profile(m, centers, radii)).tobytes())
            return got

        fast = run()
        with monkeypatch.context() as mp:
            for mod in (ms, betas, riesz):
                mp.setattr(mod, "_shell_sums", binary_search_shell_sums)
            assert run() == fast
