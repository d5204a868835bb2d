"""Classical side of the argument: distance axioms and local bounds.

The chained inequality is a polygon inequality for the distance |a - b| on
outcome values.  Any local deterministic strategy (a fixed count for every
setting) satisfies it term by term, and local stochastic models are convex
mixtures of deterministic ones, so a minimum of 0 over every deterministic
strategy certifies the bound for all local models.  That minimum is a
shortest path along the chain's 2L settings, m_1 - n_1 - m_2 - ... - n_L,
minus the closing term (Braunstein and Caves, Ann. Phys. 202, 22 (1990)),
found exactly by a min-plus recursion instead of listing strategies.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# Largest chain and count that lhv_minimum takes: each of its 2L - 2 steps
# costs (cap+1)^3 additions.
MAX_LHV_SETTINGS = 60
MAX_LHV_OUTCOME = 60


def _polygon_check(alice_values: Sequence[int], bob_values: Sequence[int]) -> float:
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


def _chain_minimum(cost: np.ndarray, L: int) -> np.generic:
    """Minimum of the chain combination over every strategy, for a symmetric cost.

    ``reach[a, b]`` is the cheapest path from m_1 = a to the latest setting
    at b; each min-plus step adds the next edge of m_1 - n_1 - ... - n_L,
    and the closing term ``cost[a, b]`` is subtracted at the end.
    """
    reach = cost
    for _ in range(2 * L - 2):
        reach = np.min(reach[:, :, None] + cost[None, :, :], axis=1)
    return np.min(reach - cost)


def lhv_minimum(L: int, cap: int) -> float:
    """Exact minimum of the chain combination over all strategies with counts in [0, cap].

    Covers all (cap+1)^(2L) strategies in integers, at a cost of
    (2L - 2) (cap+1)^3 additions.  Convexity extends the resulting bound to
    all local stochastic models.  The minimum is 0, attained by constant
    strategies.
    """
    L, cap = operator.index(L), operator.index(cap)
    if L < 2 or cap < 0:
        raise ValueError(f"need L >= 2 and cap >= 0, got L={L}, cap={cap}")
    if L > MAX_LHV_SETTINGS or cap > MAX_LHV_OUTCOME:
        raise ValueError(
            f"local-bound budget is L <= {MAX_LHV_SETTINGS}, "
            f"cap <= {MAX_LHV_OUTCOME}; got L={L}, cap={cap}"
        )
    counts = np.arange(cap + 1)
    return float(_chain_minimum(np.abs(counts[:, None] - counts[None, :]), L))
