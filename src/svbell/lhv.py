"""Classical side of the argument: distance axioms and local bounds.

The chained inequality is a polygon inequality for the distance |a - b| on
outcome values.  Any local deterministic strategy (a fixed count for every
setting) satisfies it term by term, and local stochastic models are convex
mixtures of deterministic ones, so an exhaustive minimum of 0 over
deterministic strategies certifies the bound for all local models.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

# Exhaustive enumeration budget: (cap+1)^(2L) strategies.
MAX_ENUM_SETTINGS = 4
MAX_ENUM_OUTCOME = 6

# Most strategy rows lhv_minimum hands polygon_check_batch in one call.
_BLOCK_ROWS = 2**16


def polygon_check(alice_values: Sequence[int], bob_values: Sequence[int]) -> float:
    """Chain combination for one deterministic strategy; always >= 0.

    With per-setting values n_i (Alice) and m_i (Bob),

        sum_i |m_i - n_i| + sum_i |m_(i+1) - n_i| - |m_1 - n_L|.
    """
    if len(alice_values) != len(bob_values):
        raise ValueError("strategy sides must list one value per setting")
    if len(alice_values) < 2:
        raise ValueError("chained inequality needs at least 2 settings")
    aligned = sum(abs(m - n) for n, m in zip(alice_values, bob_values))
    stepped = sum(
        abs(bob_values[i + 1] - alice_values[i]) for i in range(len(alice_values) - 1)
    )
    closing = abs(bob_values[0] - alice_values[-1])
    return float(aligned + stepped - closing)


def polygon_check_batch(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Vectorized polygon_check over rows of strategy matrices.

    Sums the chain's 2L terms one column pair at a time.  Integer inputs are
    widened to int64 before any difference is taken, so narrow types cannot
    overflow; float inputs give a float result.  Each side is a matrix with
    one row per strategy and one column per setting, at least 2 of them.
    """
    alice = np.asarray(alice)
    bob = np.asarray(bob)
    if alice.shape != bob.shape:
        raise ValueError("strategy matrices must have matching shapes")
    if alice.ndim != 2 or alice.shape[1] < 2:
        raise ValueError("chained inequality needs at least 2 settings")
    wide = np.int64 if np.result_type(alice, bob).kind in "biu" else None

    def distance(i: int, j: int) -> np.ndarray:
        diff = np.subtract(bob[:, i], alice[:, j], dtype=wide)
        return np.abs(diff, out=diff)

    total = distance(0, 0)
    for i in range(1, alice.shape[1]):
        total += distance(i, i)
        total += distance(i, i - 1)
    total -= distance(0, -1)
    return total


def lhv_minimum(L: int, cap: int) -> float:
    """Exhaustive minimum of polygon_check over all strategies.

    Enumerates every assignment of integers in [0, cap] to the 2L settings,
    (cap+1)^(2L) strategies in all: each side's (cap+1)^L value rows are
    listed once, and blocks of Alice's rows are paired with all of Bob's,
    at most 2^16 strategy rows per block.  Convexity extends the resulting
    bound to all local stochastic models.  The minimum is 0, attained by
    constant strategies.
    """
    if L < 2 or cap < 0:
        raise ValueError(f"need L >= 2 and cap >= 0, got L={L}, cap={cap}")
    if L > MAX_ENUM_SETTINGS or cap > MAX_ENUM_OUTCOME:
        raise ValueError(
            f"enumeration budget is L <= {MAX_ENUM_SETTINGS}, "
            f"cap <= {MAX_ENUM_OUTCOME}; got L={L}, cap={cap}"
        )
    # One column per value row: the blocks built from it hold each setting
    # as a contiguous row, which polygon_check_batch reads through .T views.
    values = np.array(list(product(range(cap + 1), repeat=L)), dtype=np.int8).T
    count = values.shape[1]
    step = max(1, _BLOCK_ROWS // count)
    minimum = np.inf
    for start in range(0, count, step):
        block = values[:, start : start + step]
        alice = np.repeat(block, count, axis=1)
        bob = np.tile(values, (1, block.shape[1]))
        minimum = min(minimum, float(polygon_check_batch(alice.T, bob.T).min()))
    return minimum
