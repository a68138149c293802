import numpy as np
import pytest

from densq import WeightedPointMeasure
from densq import measures as ms


def whole(blocks):
    """The matrices of a blocked pass's (a, block) pairs, each block copied as
    it comes (the engines reuse their buffers) and stacked in order: one
    matrix for an array block, one per entry for a list of them."""
    parts = [[b.copy() for b in block] if isinstance(block, list) else block.copy()
             for _, block in blocks]
    if parts and isinstance(parts[0], list):
        return [np.concatenate(col) for col in zip(*parts)]
    return np.concatenate(parts)


def brute_ball_atoms(measure, center, r):
    """Reference membership: squared-distance closed-ball scan."""
    center = np.asarray(center, dtype=float)
    d2 = ((measure.points - center) ** 2).sum(axis=1)
    return np.flatnonzero(d2 <= r * r)


def brute_mass(measure, center, r):
    return float(measure.weights[brute_ball_atoms(measure, center, r)].sum())


def random_measure(rng, n=50, dim=2, box=1.0):
    pts = rng.uniform(-box, box, size=(n, dim))
    w = rng.uniform(0.5, 1.5, size=n) / n
    return WeightedPointMeasure(pts, w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240707)


class _UnsizedChunks:
    """Stands in for `_CHUNK_CELLS`: sizing the first chunk of a pairwise pass
    fails the test."""

    def __floordiv__(self, other):
        raise AssertionError("a pairwise pass started before its budget check")


@pytest.fixture
def tiny_pair_budget(monkeypatch):
    """A pair budget of 10 pairs, and chunks that fail the test when sized: a
    pass over the budget must raise before its first chunk."""
    monkeypatch.setattr(ms, "PAIR_BUDGET", 10)
    monkeypatch.setattr(ms, "_CHUNK_CELLS", _UnsizedChunks())


try:
    from hypothesis import settings
except ImportError:      # the property tests skip themselves
    pass
else:
    # a fixed example sequence and no example database: every run of the suite
    # draws the same cases, in bounded time, and writes no files
    settings.register_profile("densq", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("densq")
