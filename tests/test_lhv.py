"""Distance axioms, polygon inequality, and the exact local bound."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svbell.lhv import MAX_LHV_OUTCOME, MAX_LHV_SETTINGS, _chain_minimum, _polygon_check, lhv_minimum


def test_polygon_check_constant_strategy():
    assert _polygon_check([3, 3, 3], [3, 3, 3]) == 0.0


def test_polygon_check_direct_arithmetic():
    # |0-0| + |5-0| + |5-0| - |0-0|
    assert _polygon_check([0, 0], [0, 5]) == 10.0


def test_polygon_check_validates_input():
    with pytest.raises(ValueError):
        _polygon_check([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        _polygon_check([1], [2])


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_polygon_check_nonnegative_on_random_strategies(L):
    rng = np.random.default_rng(100 + L)
    alice = rng.integers(0, 13, size=(2_000, L)).tolist()
    bob = rng.integers(0, 13, size=(2_000, L)).tolist()
    assert min(_polygon_check(a, b) for a, b in zip(alice, bob)) >= 0
    # ... and so does every strategy with counts 0..12, not just these.
    assert lhv_minimum(L, 12) == 0.0


@st.composite
def _strategy_rows(draw):
    shape = (draw(st.integers(1, 20)), draw(st.integers(2, 8)))
    counts = arrays(np.int64, shape, elements=st.integers(0, 60))
    return draw(counts), draw(counts)


@settings(max_examples=50, deadline=None)
@given(_strategy_rows())
def test_polygon_inequality_property(rows):
    alice, bob = rows
    values = [_polygon_check(a.tolist(), b.tolist()) for a, b in zip(alice, bob)]
    assert min(values) >= lhv_minimum(alice.shape[1], 60) == 0.0


def test_triangle_inequality_samplewise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.integers(0, 50, size=100_000 // 20)
        w = rng.integers(0, 50, size=100_000 // 20)
        z = rng.integers(0, 50, size=100_000 // 20)
        assert np.all(np.abs(v - z) <= np.abs(v - w) + np.abs(w - z))


@pytest.mark.parametrize(
    "L,cap",
    [(2, 0), (2, 1), (3, 2), (2, 4), (3, 4), (4, 6), (4, 12), (MAX_LHV_SETTINGS, MAX_LHV_OUTCOME)],
)
def test_exhaustive_minimum_is_zero(L, cap):
    assert lhv_minimum(L, cap) == 0.0


def _brute_force(L, cap, check=_polygon_check):
    """Minimum of ``check`` over every strategy, listed one by one."""
    return min(check(v[:L], v[L:]) for v in product(range(cap + 1), repeat=2 * L))


@pytest.mark.parametrize(
    "L,cap", [(2, 0), (2, 1), (2, 3), (2, 4), (3, 2), (3, 4), (3, 6), (4, 3), (4, 4)]
)
def test_minimum_is_the_brute_force_minimum(L, cap):
    assert lhv_minimum(L, cap) == _brute_force(L, cap)


def _squared_check(alice, bob):
    """_polygon_check with |x - y|^2, which is no distance, in place of |x - y|."""
    aligned = sum((m - n) ** 2 for n, m in zip(alice, bob))
    stepped = sum((bob[i + 1] - alice[i]) ** 2 for i in range(len(alice) - 1))
    return aligned + stepped - (bob[0] - alice[-1]) ** 2


@pytest.mark.parametrize("L,cap,expected", [(2, 3, -6), (3, 2, -2), (2, 4, -10)])
def test_recursion_finds_the_violations_of_a_cost_that_is_no_distance(L, cap, expected):
    # Without the triangle inequality the chain can be beaten, and the
    # recursion finds the same negative minimum as listing every strategy.
    # At (2, 4) one step too many would find -12: 0-1-2-3-4 beats 0-1-2-4.
    counts = np.arange(cap + 1)
    squared = (counts[:, None] - counts[None, :]) ** 2
    assert _chain_minimum(squared, L) == _brute_force(L, cap, _squared_check) == expected


def test_local_bound_budget_must_be_integers():
    # At cap 3.5, np.arange(cap + 1) would enumerate counts 0..4.
    for L, cap in [(2, 3.5), (2.5, 3)]:
        with pytest.raises(TypeError):
            lhv_minimum(L, cap)
    assert lhv_minimum(np.int64(3), np.int64(4)) == 0.0


def test_enumeration_budget():
    with pytest.raises(ValueError, match="local-bound budget"):
        lhv_minimum(MAX_LHV_SETTINGS + 1, 2)
    with pytest.raises(ValueError, match="local-bound budget"):
        lhv_minimum(2, MAX_LHV_OUTCOME + 1)
    with pytest.raises(ValueError, match="need L >= 2"):
        lhv_minimum(1, 2)
