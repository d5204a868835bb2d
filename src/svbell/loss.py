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
Column n depends only on columns < n, so one table up to the photon-number
limit is built per efficiency and every smaller table is its leading block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .singlet import MAX_PHOTON_NUMBER, JointCountDistribution, _check_photon_number


def check_efficiency(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta}")


# One 61 x 61 table is 29 KiB, so the cache holds at most about 1.9 MB.
@lru_cache(maxsize=64)
def _thinning_table(eta: float) -> np.ndarray:
    size = MAX_PHOTON_NUMBER + 1
    t = np.zeros((size, size))
    t[0, 0] = 1.0
    for n in range(1, size):
        t[:, n] = (1.0 - eta) * t[:, n - 1]
        t[1:, n] += eta * t[:-1, n - 1]
    t.setflags(write=False)
    return t


def thinning_matrix(max_count: int, eta: float) -> np.ndarray:
    """T[x, n] = P(detect x | n present) = Binomial(n, eta) pmf at x.

    Returns a read-only (max_count + 1)-square view of a table that is
    built once per efficiency and shared by every caller.
    """
    check_efficiency(eta)
    _check_photon_number(max_count)
    return _thinning_table(eta)[: max_count + 1, : max_count + 1]


def binomial_thin(dist: JointCountDistribution, eta: float) -> JointCountDistribution:
    """Apply the loss channel at efficiency eta to both observers' counts.

    Preserves total mass and the count-table size; thinning at eta1 then
    eta2 composes to thinning at eta1 * eta2.
    """
    t = thinning_matrix(dist.max_count, eta)
    probs = t @ dist.probs @ t.T
    return JointCountDistribution(probs=probs, mass=float(np.add.reduce(probs, axis=None)))
