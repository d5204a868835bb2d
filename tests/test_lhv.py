"""Distance axioms, polygon inequality, and the exhaustive local bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svbell.errors import EnumerationBudgetError
from svbell.lhv import (
    lhv_minimum,
    polygon_check,
    polygon_check_batch,
)


def test_polygon_check_constant_strategy():
    assert polygon_check([3, 3, 3], [3, 3, 3]) == 0.0


def test_polygon_check_direct_arithmetic():
    # |0-0| + |5-0| + |5-0| - |0-0|
    assert polygon_check([0, 0], [0, 5]) == 10.0


def test_polygon_check_validates_input():
    with pytest.raises(ValueError):
        polygon_check([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        polygon_check([1], [2])


def test_polygon_check_batch_matches_scalar():
    rng = np.random.default_rng(3)
    alice = rng.integers(0, 9, size=(200, 4))
    bob = rng.integers(0, 9, size=(200, 4))
    batch = polygon_check_batch(alice, bob)
    for i in range(200):
        assert batch[i] == polygon_check(list(alice[i]), list(bob[i]))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_polygon_check_nonnegative_on_random_strategies(L):
    rng = np.random.default_rng(100 + L)
    alice = rng.integers(0, 13, size=(200_000, L))
    bob = rng.integers(0, 13, size=(200_000, L))
    assert polygon_check_batch(alice, bob).min() >= 0


@st.composite
def _strategy_rows(draw):
    shape = (draw(st.integers(1, 20)), draw(st.integers(2, 8)))
    counts = arrays(np.int64, shape, elements=st.integers(0, 60))
    return draw(counts), draw(counts)


@settings(max_examples=50, deadline=None)
@given(_strategy_rows())
def test_polygon_inequality_property(rows):
    alice, bob = rows
    batch = polygon_check_batch(alice, bob)
    assert np.all(batch >= 0)
    assert [float(v) for v in batch] == [polygon_check(list(a), list(b)) for a, b in zip(alice, bob)]


def test_triangle_inequality_samplewise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.integers(0, 50, size=100_000 // 20)
        w = rng.integers(0, 50, size=100_000 // 20)
        z = rng.integers(0, 50, size=100_000 // 20)
        assert np.all(np.abs(v - z) <= np.abs(v - w) + np.abs(w - z))


@pytest.mark.parametrize("L,cap", [(2, 0), (2, 1), (3, 2), (2, 4), (3, 4)])
def test_exhaustive_minimum_is_zero(L, cap):
    assert lhv_minimum(L, cap) == 0.0


def test_enumeration_budget():
    with pytest.raises(EnumerationBudgetError):
        lhv_minimum(5, 2)
    with pytest.raises(EnumerationBudgetError):
        lhv_minimum(2, 7)
    with pytest.raises(ValueError):
        lhv_minimum(1, 2)
