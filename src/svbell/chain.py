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
from dataclasses import dataclass
from typing import Optional

from .loss import binomial_thin, check_efficiency
from .singlet import joint_distribution, mean_abs_difference
from .sv import SVSpec, _check_gain, lambda_sq, n_max_for


@dataclass(frozen=True)
class ChainSpec:
    """Number of settings per side and the derived relative angles."""

    L: int
    theta: float
    theta_prime: float


@dataclass(frozen=True)
class BellBreakdown:
    """LHS, RHS and Bell parameter, with per-component contributions.

    ``bell`` always equals ``lhs - rhs`` exactly as stored.  ``per_N`` lists
    (N, contribution-to-bell) pairs for mixture evaluations.  The remaining
    fields echo the evaluated configuration.
    """

    lhs: float
    rhs: float
    bell: float
    L: int
    eta: float
    per_N: Optional[tuple[tuple[int, float], ...]] = None
    gamma: Optional[float] = None
    n_max: Optional[int] = None


def make_chain(L: int) -> ChainSpec:
    """Settings geometry for an L-setting chain (L >= 2)."""
    if L < 2:
        raise ValueError(f"chained inequality needs at least 2 settings, got L={L}")
    return ChainSpec(
        L=L,
        theta=math.pi / (4 * L),
        theta_prime=(2 * L - 1) * math.pi / (4 * L),
    )


def bell_fixed_N(N: int, chain: ChainSpec, eta: float = 1.0) -> BellBreakdown:
    """Bell breakdown for the 2N-photon singlet at efficiency eta."""
    check_efficiency(eta)
    near = joint_distribution(N, chain.theta)
    far = joint_distribution(N, chain.theta_prime)
    if eta < 1.0:
        near = binomial_thin(near, eta)
        far = binomial_thin(far, eta)
    lhs = (2 * chain.L - 1) * mean_abs_difference(near)
    rhs = mean_abs_difference(far)
    return BellBreakdown(lhs=lhs, rhs=rhs, bell=lhs - rhs, L=chain.L, eta=eta)


def bell_sv(chain: ChainSpec, spec: SVSpec, eta: float = 1.0) -> BellBreakdown:
    """Bell breakdown for the squeezed vacuum: lambda_N^2-weighted sum.

    Components run up to the truncation point of ``spec``; the per-N
    contributions (weight times component Bell value) are retained.
    """
    check_efficiency(eta)
    n_max = n_max_for(spec)
    lhs = 0.0
    rhs = 0.0
    per_n = []
    for n in range(n_max + 1):
        weight = lambda_sq(n, spec.gamma)
        component = bell_fixed_N(n, chain, eta)
        lhs += weight * component.lhs
        rhs += weight * component.rhs
        per_n.append((n, weight * component.bell))
    return BellBreakdown(
        lhs=lhs,
        rhs=rhs,
        bell=lhs - rhs,
        L=chain.L,
        eta=eta,
        per_N=tuple(per_n),
        gamma=spec.gamma,
        n_max=n_max,
    )


def asymptotic_bell_fixed_N(N: int) -> float:
    """Closed-form L -> infinity Bell value for the 2N-photon singlet.

    The adjacent terms vanish while the closing term saturates, leaving
    -(N^2/2 + N + 1/2)/(N+1) for odd N and -(N^2/2 + N)/(N+1) for even N.
    """
    if N < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    if N % 2:
        return -(N + 1) / 2.0
    return -(N * (N + 2)) / (2.0 * (N + 1))


def rhs_sv_asymptotic(gamma: float) -> float:
    """Closed-form L -> infinity RHS for the squeezed vacuum.

    Summing the fixed-N limits with weights lambda_N^2 gives
    sinh(2 gamma)^3 / sinh(4 gamma); the Bell parameter approaches its
    negative since the LHS vanishes.
    """
    _check_gain(gamma)
    return math.sinh(2.0 * gamma) ** 3 / math.sinh(4.0 * gamma)
