"""Detector loss as a Bernoulli thinning channel.

Each photon is detected independently with probability eta, identical for
both observers (asymmetric efficiencies are out of scope).  An ideal joint
count table p(n, m) therefore maps to

    P(x, y) = sum_{n>=x} sum_{m>=y} C(n,x) C(m,y) eta^(x+y)
              (1-eta)^(n+m-x-y) p(n, m),

i.e. independent binomial thinning of each observer's total count.  The
binomial table is built by Pascal's rule, one photon at a time: the n-th
photon is lost with probability 1 - eta or detected with probability eta.
Every entry is a convex combination of nonnegative numbers, so nothing
cancels; eta = 1 gives the identity and eta = 0 a row of ones, both exactly.
Column n depends only on columns < n, so each efficiency keeps one table,
built up to the largest count asked for so far and extended by continuing
the rule from its last column: every smaller table is its leading block,
bit for bit what a table built to the photon-number limit holds there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .singlet import JointCountDistribution, _check_photon_number


def _check_efficiency(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta}")


# The one-item list holds the efficiency's largest table yet, first the
# read-only table up to 0 photons: nothing present, nothing detected.  Counts
# stop at the photon-number limit, so a table is at most 61 x 61, 29 KiB, and
# the 64 efficiencies kept hold at most 64 x 61^2 x 8 B ~ 1.9 MB.
@lru_cache(maxsize=64)
def _thinning_table(eta: float) -> list[np.ndarray]:
    start = np.ones((1, 1))
    start.setflags(write=False)
    return [start]


def _thinning_matrix(max_count: int, eta: float) -> np.ndarray:
    """T[x, n] = P(detect x | n present) = Binomial(n, eta) pmf at x.

    Returns a read-only (max_count + 1)-square view of a table shared by
    every caller at this efficiency.  A larger count than any asked for
    before copies the table into a new array and continues Pascal's rule
    over the new columns; views handed out earlier keep the old one, whose
    entries are the new one's leading block.  Threads extending one
    efficiency may build it twice, never differently.
    """
    _check_efficiency(eta)
    _check_photon_number(max_count)
    held = _thinning_table(eta)
    table = held[0]
    if len(table) <= max_count:
        block, table = table, np.zeros((max_count + 1, max_count + 1))
        table[: len(block), : len(block)] = block
        for n in range(len(block), max_count + 1):
            table[:, n] = (1.0 - eta) * table[:, n - 1]
            table[1:, n] += eta * table[:-1, n - 1]
        table.setflags(write=False)
        held[0] = table
    return table[: max_count + 1, : max_count + 1]


def binomial_thin(dist: JointCountDistribution, eta: float) -> JointCountDistribution:
    """Apply the loss channel at efficiency eta to both observers' counts.

    Preserves total mass and the count-table size; thinning at eta1 then
    eta2 composes to thinning at eta1 * eta2.  A stack of tables is thinned
    in one broadcast product, each table bit for bit as if thinned alone.
    """
    t = _thinning_matrix(dist.max_count, eta)
    return JointCountDistribution(t @ dist.probs @ t.T)
