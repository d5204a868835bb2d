"""Chained Bell inequalities on photon-count distance.

For L settings per side arranged on a half-circle, every "adjacent" pair of
polarizer settings differs by theta = pi/(4L) while the closing pair differs
by theta' = (2L-1) pi/(4L).  Because the squeezed-vacuum state is invariant
under identical polarization rotations on both beams, all 2L-1 adjacent
terms share one joint distribution, and the inequality reads

    LHS = (2L-1) <|m - n|>_theta   >=   <|m - n|>_theta' = RHS.

Local models obey it; the quantum Bell parameter B = LHS - RHS turns
negative once L is large enough.  Closed forms for the L -> infinity limits
are provided alongside the finite-L evaluation.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

from .loss import binomial_thin, check_efficiency
# joint_distribution is unused here; perfbench/test_perfbench.py reads it from this module.
from .singlet import _check_photon_number, joint_distribution, mean_abs_difference
from .sv import _MAX_GAIN_E2, SVSpec, _check_gain, _lossless_pair


@dataclass(frozen=True)
class ChainSpec:
    """Integer number of settings per side (2 <= L <= max float / (2 pi)) and the angles it sets."""

    L: int

    def __post_init__(self) -> None:
        if operator.index(self.L) < 2:
            raise ValueError(f"chained inequality needs at least 2 settings, got L={self.L}")
        if self.L > sys.float_info.max / (2.0 * math.pi):
            raise ValueError(f"L={self.L} is too large for float angles: (2L-1) pi overflows")

    @property
    def theta(self) -> float:
        return math.pi / (4 * self.L)

    @property
    def theta_prime(self) -> float:
        return (2 * self.L - 1) * math.pi / (4 * self.L)


@dataclass(frozen=True)
class BellBreakdown:
    """LHS, RHS and Bell parameter of one chain evaluation.

    ``bell`` is ``lhs - rhs``, worked out on each read.  Fixed-N values are
    exact finite sums and leave ``n_max`` and ``mass`` unset.  For the
    squeezed vacuum they are read off truncated tables, and ``n_max`` and
    ``mass`` are the truncation point and weight sum of the ``SVSpec`` that
    set them (weights up to ``n_max``, not renormalized).
    """

    lhs: float
    rhs: float
    n_max: Optional[int] = None
    mass: Optional[float] = None

    @property
    def bell(self) -> float:
        return self.lhs - self.rhs


def make_chain(L: int) -> ChainSpec:
    """Settings geometry for an L-setting chain (L >= 2)."""
    return ChainSpec(L)


def _mean_distance(N: int, theta: float, eta: float) -> float:
    """Exact <|m - n|> of the 2N-photon singlet at angle theta, efficiency eta.

    1/(N+1) sum_{k<N} R_k [2 eta (1-eta) (N-k) + eta^2 sin^2(theta) (N+1-k) (N-k)],
    where R_0 = 1, R_1 = b, (k+1) R_{k+1} = (2k+1) b R_k - k c^2 R_{k-1},
    b = 1 - 2 eta (1-eta) - 2 eta^2 sin^2(theta) and c^2 = (1 - 2 eta)^2: the
    tanh(g)^2 expansion of the Gaussian closed form <|m - n|> = 2A/sqrt(1+4A)
    (Weedbrook et al., RMP 84, 621 (2012)).  No division by c, so eta = 1/2 is fine.
    """
    lost, crossed = 2.0 * eta * (1.0 - eta), eta * eta * math.sin(theta) ** 2
    b, c_sq = 1.0 - lost - 2.0 * crossed, (1.0 - 2.0 * eta) ** 2
    total, r_prev, r = 0.0, 0.0, 1.0
    for k in range(N):
        total += r * (N - k) * (lost + crossed * (N + 1 - k))
        r, r_prev = ((2 * k + 1) * b * r - k * c_sq * r_prev) / (k + 1), r
    return total / (N + 1)


def bell_fixed_N(N: int, chain: ChainSpec, eta: float = 1.0) -> BellBreakdown:
    """Bell breakdown for the 2N-photon singlet at efficiency eta, as exact finite sums."""
    check_efficiency(eta)
    _check_photon_number(N)
    lhs = (2 * chain.L - 1) * _mean_distance(N, chain.theta, eta)
    rhs = _mean_distance(N, chain.theta_prime, eta)
    return BellBreakdown(lhs, rhs)


def bell_sv(chain: ChainSpec, spec: SVSpec, eta: float = 1.0) -> BellBreakdown:
    """Bell breakdown for the squeezed vacuum, read off its mixture tables.

    Both distances are taken on the lossless mixtures truncated by ``spec``,
    thinned at eta; theta' = pi/2 - theta, so both come from one pass over
    the singlet tables at theta (see ``sv._lossless_pair``).  ``n_max`` and
    ``mass`` are ``spec.n_max`` and ``spec.mass``.  The contribution of the
    2N-photon component is ``lambda_sq(N, gamma) * bell_fixed_N(N, chain, eta).bell``.
    """
    check_efficiency(eta)
    tables = _lossless_pair(chain.theta, spec)
    adjacent, closing = (mean_abs_difference(binomial_thin(t, eta) if eta < 1.0 else t) for t in tables)
    return BellBreakdown((2 * chain.L - 1) * adjacent, closing, spec.n_max, spec.mass)


def asymptotic_bell_fixed_N(N: int) -> float:
    """Closed-form L -> infinity Bell value for the 2N-photon singlet.

    The adjacent terms vanish while the closing term saturates, leaving
    -(N^2/2 + N + 1/2)/(N+1) for odd N and -(N^2/2 + N)/(N+1) for even N,
    each one correctly rounded int / int division.  Defined for
    0 <= N <= MAX_PHOTON_NUMBER, like the count tables; a larger N raises
    ValueError, a non-integer N TypeError.
    """
    _check_photon_number(N)
    if N % 2:
        return -(N + 1) / 2
    return -(N * (N + 2)) / (2 * (N + 1))


def rhs_sv_asymptotic(gamma: float) -> float:
    """Closed-form L -> infinity RHS for the squeezed vacuum.

    Summing the fixed-N limits with weights lambda_N^2 gives
    sinh(2 gamma)^3 / sinh(4 gamma) = sinh(2 gamma) tanh(2 gamma) / 2; the
    Bell parameter approaches its negative since the LHS vanishes.  Defined
    for 0 < gamma <= asinh(max float) / 2 ~ 355.24, where sinh(2 gamma)
    still fits a float; a larger gain raises ValueError.
    """
    _check_gain(gamma, _MAX_GAIN_E2)
    return math.sinh(2.0 * gamma) * math.tanh(2.0 * gamma) / 2.0
