"""Distance axioms, polygon inequality, and the exhaustive local bound."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svbell import lhv
from svbell.lhv import (
    MAX_ENUM_OUTCOME,
    MAX_ENUM_SETTINGS,
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


def test_polygon_check_batch_validates_input():
    # One setting per side has no chain: no vacuous zeros.
    with pytest.raises(ValueError, match="at least 2 settings"):
        polygon_check_batch([[3], [5]], [[0], [9]])
    for alice, bob in [([3, 5], [0, 9]), (np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))]:
        with pytest.raises(ValueError, match="at least 2 settings"):
            polygon_check_batch(alice, bob)
    with pytest.raises(ValueError, match="matching shapes"):
        polygon_check_batch([[1, 2]], [[1, 2, 3]])


def test_polygon_check_batch_matches_scalar():
    rng = np.random.default_rng(3)
    alice = rng.integers(0, 9, size=(200, 4))
    bob = rng.integers(0, 9, size=(200, 4))
    batch = polygon_check_batch(alice, bob)
    for i in range(200):
        assert batch[i] == polygon_check(list(alice[i]), list(bob[i]))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_polygon_check_batch_matches_scalar_row_by_row(L, dtype):
    rng = np.random.default_rng(L)
    # int8's whole range: a difference taken in int8 would wrap around.
    alice = rng.integers(-128, 128, size=(300, L)).astype(dtype)
    bob = rng.integers(-128, 128, size=(300, L)).astype(dtype)
    if dtype is np.float64:
        alice += rng.uniform(-0.5, 0.5, size=alice.shape)
    batch = polygon_check_batch(alice, bob)
    assert batch.dtype == (np.float64 if dtype is np.float64 else np.int64)
    expected = [polygon_check([float(v) for v in a], [float(v) for v in b]) for a, b in zip(alice, bob)]
    assert np.allclose(batch, expected, rtol=0.0, atol=1e-9 if dtype is np.float64 else 0.0)


_EXTREMES = (
    np.array([[0, 0, 0, 0], [12, 0, 12, 0], [0, 12, 0, 12]], dtype=np.int8),
    np.array([[12, 12, 12, 12], [0, 12, 0, 12], [12, 0, 12, 0]], dtype=np.int8),
)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 20).flatmap(
        lambda rows: st.tuples(
            *[arrays(np.int8, (rows, 4), elements=st.integers(0, 12)) for _ in range(2)]
        )
    )
)
@example(_EXTREMES)
def test_polygon_check_batch_is_the_same_on_int8_strategies(rows):
    # verify draws its random strategies as int8 values in 0..12.
    alice, bob = rows
    narrow = polygon_check_batch(alice, bob)
    assert narrow.dtype == np.int64
    assert np.array_equal(narrow, polygon_check_batch(alice.astype(np.int64), bob.astype(np.int64)))


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(2, 6), st.integers(0, 20)).flatmap(
        lambda shape: st.tuples(
            *[arrays(np.int8, shape, elements=st.integers(-128, 127)) for _ in range(2)]
        )
    )
)
def test_polygon_check_batch_is_the_same_on_transposed_views(rows):
    # verify and lhv_minimum pass one contiguous row per setting, as .T views.
    alice, bob = rows
    view = polygon_check_batch(alice.T, bob.T)
    assert np.array_equal(view, polygon_check_batch(np.ascontiguousarray(alice.T), np.ascontiguousarray(bob.T)))


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


@pytest.mark.parametrize("L,cap", [(2, 0), (2, 1), (3, 2), (2, 4), (3, 4), (4, 6)])
def test_exhaustive_minimum_is_zero(L, cap):
    assert lhv_minimum(L, cap) == 0.0


def _record_batches(monkeypatch, keep_rows):
    """Wrap lhv's polygon_check_batch; list each call's rows, or just their number."""
    calls = []
    check = lhv.polygon_check_batch

    def recording(alice, bob):
        calls.append(np.hstack([alice, bob]) if keep_rows else len(alice))
        return check(alice, bob)

    monkeypatch.setattr(lhv, "polygon_check_batch", recording)
    return calls


@pytest.mark.parametrize("L,cap,blocks", [(2, 3, 1), (3, 2, 1), (4, 3, 1), (3, 6, 2), (4, 4, 7)])
def test_enumeration_checks_every_strategy_once(monkeypatch, L, cap, blocks):
    calls = _record_batches(monkeypatch, keep_rows=True)
    assert lhv_minimum(L, cap) == 0.0
    assert len(calls) == blocks
    assert all(len(rows) <= 2**16 for rows in calls)
    # Each strategy as one base-(cap+1) number of its 2L values.
    codes = np.concatenate(calls).astype(np.int64) @ (cap + 1) ** np.arange(2 * L)
    assert np.array_equal(np.sort(codes), np.arange((cap + 1) ** (2 * L)))


def test_enumeration_at_the_budget_edge_stays_in_blocks(monkeypatch):
    sizes = _record_batches(monkeypatch, keep_rows=False)
    assert lhv_minimum(MAX_ENUM_SETTINGS, MAX_ENUM_OUTCOME) == 0.0
    assert sum(sizes) == (MAX_ENUM_OUTCOME + 1) ** (2 * MAX_ENUM_SETTINGS)
    assert max(sizes) <= 2**16


def test_enumeration_budget():
    with pytest.raises(ValueError, match="enumeration budget"):
        lhv_minimum(5, 2)
    with pytest.raises(ValueError, match="enumeration budget"):
        lhv_minimum(2, 7)
    with pytest.raises(ValueError, match="need L >= 2"):
        lhv_minimum(1, 2)
