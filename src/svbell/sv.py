"""Four-mode squeezed vacuum: singlet weights, truncation, mixtures.

Type-II parametric down-conversion with gain gamma emits a coherent
superposition of 2N-photon polarization singlets with weights

    lambda_N^2 = cosh(gamma)^-4 (N+1) tanh(gamma)^(2N),   sum_N lambda_N^2 = 1.

Joint count predictions for the full state are the lambda_N^2-weighted
mixtures of the fixed-N tables.  The infinite sum is truncated at the
smallest N_max whose cumulative weight reaches a configured mass threshold
(0.99 by default); truncated weights are deliberately *not* renormalized,
the distribution just declares the mass it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .loss import binomial_thin, check_efficiency
from .singlet import MAX_PHOTON_NUMBER, JointCountDistribution, joint_distribution


def _check_gain(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gain must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class SVSpec:
    """Gain and truncation policy for the squeezed-vacuum state."""

    gamma: float
    mass_threshold: float = 0.99
    n_max_cap: int = MAX_PHOTON_NUMBER

    def __post_init__(self) -> None:
        _check_gain(self.gamma)
        if not 0.0 < self.mass_threshold <= 1.0:
            raise ValueError(
                f"mass threshold must lie in (0, 1], got {self.mass_threshold}"
            )
        if not 0 <= self.n_max_cap <= MAX_PHOTON_NUMBER:
            raise ValueError(
                f"photon-number cap must lie in [0, {MAX_PHOTON_NUMBER}], "
                f"got {self.n_max_cap}"
            )


def lambda_sq(N: int, gamma: float) -> float:
    """Weight of the 2N-photon singlet in the squeezed vacuum."""
    if N < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    _check_gain(gamma)
    return (N + 1) * math.tanh(gamma) ** (2 * N) / math.cosh(gamma) ** 4


def mean_photons_per_beam(gamma: float) -> float:
    """Mean photon count per beam, sum_N lambda_N^2 N = 2 sinh(gamma)^2."""
    return 2.0 * math.sinh(gamma) ** 2


def n_max_for(spec: SVSpec) -> int:
    """Smallest N_max whose cumulative weight reaches the mass threshold.

    Raises CapExceededError when the threshold is unreachable under the
    photon-number cap, i.e. the gain is too high for the configured
    accuracy.
    """
    cumulative = 0.0
    for n in range(spec.n_max_cap + 1):
        cumulative += lambda_sq(n, spec.gamma)
        if cumulative >= spec.mass_threshold:
            return n
    raise CapExceededError(
        f"cumulative singlet weight {cumulative:.6f} at N = {spec.n_max_cap} "
        f"is below the requested mass {spec.mass_threshold}; "
        f"gain {spec.gamma} is too high for this cap"
    )


def truncated_mass(spec: SVSpec) -> float:
    """Cumulative weight sum_{N <= n_max_for(spec)} lambda_N^2."""
    n_max = n_max_for(spec)
    return math.fsum(lambda_sq(n, spec.gamma) for n in range(n_max + 1))


def sv_mixture(theta: float, spec: SVSpec, eta: float = 1.0) -> JointCountDistribution:
    """Joint count table for the squeezed vacuum at relative angle theta.

    Weighted mixture of the fixed-N tables up to the truncation point, with
    detector losses applied at efficiency eta.  The declared mass is the
    truncated weight sum (weights are not renormalized).
    """
    check_efficiency(eta)
    n_max = n_max_for(spec)
    size = n_max + 1
    probs = np.zeros((size, size))
    for n in range(size):
        component = joint_distribution(n, theta)
        if eta < 1.0:
            component = binomial_thin(component, eta)
        probs[: n + 1, : n + 1] += lambda_sq(n, spec.gamma) * component.probs
    mass = math.fsum(lambda_sq(n, spec.gamma) for n in range(size))
    return JointCountDistribution(probs=probs, mass=mass)


def intensity_correlation(theta_a: float, theta_b: float, gamma: float) -> float:
    """Photon-number correlation between Alice's and Bob's analyzer outputs.

    The closed form sinh^2 cosh^2 cos^2(theta_a - theta_b) + sinh^4 shows
    the interferometric contrast that CHSH-style correlator tests rely on:
    the angle-independent sinh^4 pedestal grows faster than the modulated
    term, so the visibility degrades with gain.
    """
    _check_gain(gamma)
    sinh_sq = math.sinh(gamma) ** 2
    cosh_sq = math.cosh(gamma) ** 2
    return sinh_sq * cosh_sq * math.cos(theta_a - theta_b) ** 2 + sinh_sq**2


def correlation_visibility(gamma: float) -> float:
    """Visibility (max - min) / (max + min) of the correlation fringe.

    Equals 1 at vanishing gain and decays to 1/3 (thermal contrast) in the
    high-gain limit.
    """
    top = intensity_correlation(0.0, 0.0, gamma)
    bottom = intensity_correlation(0.0, 0.5 * math.pi, gamma)
    return (top - bottom) / (top + bottom)
