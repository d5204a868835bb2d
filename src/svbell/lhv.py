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

from .errors import EnumerationBudgetError

# Exhaustive enumeration budget: (cap+1)^(2L) strategies.
MAX_ENUM_SETTINGS = 4
MAX_ENUM_OUTCOME = 6


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
    """Vectorized polygon_check over rows of strategy matrices."""
    alice = np.asarray(alice)
    bob = np.asarray(bob)
    if alice.shape != bob.shape:
        raise ValueError("strategy matrices must have matching shapes")
    aligned = np.abs(bob - alice).sum(axis=1)
    stepped = np.abs(bob[:, 1:] - alice[:, :-1]).sum(axis=1)
    closing = np.abs(bob[:, 0] - alice[:, -1])
    return aligned + stepped - closing


def lhv_minimum(L: int, cap: int) -> float:
    """Exhaustive minimum of polygon_check over all strategies.

    Enumerates every assignment of integers in [0, cap] to the 2L settings.
    Convexity extends the resulting bound to all local stochastic models.
    The minimum is 0, attained by constant strategies.
    """
    if L < 2 or cap < 0:
        raise ValueError(f"need L >= 2 and cap >= 0, got L={L}, cap={cap}")
    if L > MAX_ENUM_SETTINGS or cap > MAX_ENUM_OUTCOME:
        raise EnumerationBudgetError(
            f"enumeration budget is L <= {MAX_ENUM_SETTINGS}, "
            f"cap <= {MAX_ENUM_OUTCOME}; got L={L}, cap={cap}"
        )
    bob_all = np.array(list(product(range(cap + 1), repeat=L)), dtype=np.int64)
    minimum = np.inf
    for alice in product(range(cap + 1), repeat=L):
        alice_row = np.broadcast_to(np.array(alice, dtype=np.int64), bob_all.shape)
        minimum = min(minimum, float(polygon_check_batch(alice_row, bob_all).min()))
    return minimum
