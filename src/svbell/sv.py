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
import operator
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .loss import binomial_thin, check_efficiency
from .singlet import (
    MAX_PHOTON_NUMBER,
    JointCountDistribution,
    _check_angle,
    joint_distribution,
)


# Largest gains at which the closed forms below are finite floats: 2 sinh(gamma)^2
# and sinh(2 gamma) grow like e^(2 gamma) and pass the largest float above
# asinh(max) / 2 ~ 355.24; the fringe peak sinh(gamma)^2 cosh(2 gamma) grows
# like e^(4 gamma) / 8 and passes it above log(8 max) / 4 ~ 177.97.
_MAX_GAIN_E2 = math.asinh(sys.float_info.max) / 2
_MAX_GAIN_E4 = (math.log(sys.float_info.max) + math.log(8.0)) / 4


# Largest photon number per beam whose 2N still converts to a float: above
# it the weights and the L -> infinity limits raise ValueError, not OverflowError.
_MAX_FLOAT_PHOTONS = int(sys.float_info.max) // 2


def _check_photon_count(N: int) -> None:
    if operator.index(N) < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    if N > _MAX_FLOAT_PHOTONS:
        raise ValueError(
            f"photon number per beam must be at most max float / 2 ~ {_MAX_FLOAT_PHOTONS:.3g} "
            "for this value to fit a float"
        )


def _check_gain(gamma: float, max_gain: float = math.inf) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gain must be positive and finite, got {gamma}")
    if gamma > max_gain:
        raise ValueError(f"gain must be at most {max_gain!r} for this value to fit a float, got {gamma}")


def check_mass_threshold(mass_threshold: float) -> None:
    # The weights of the infinite mixture never sum to 1, so 1 is unreachable.
    if not 0.0 < mass_threshold < 1.0:
        raise ValueError(f"mass threshold must lie in (0, 1), got {mass_threshold}")


@dataclass(frozen=True)
class SVSpec:
    """Gain and truncation mass of the squeezed-vacuum state.

    The mixture never goes above MAX_PHOTON_NUMBER photons per beam.  Each
    spec keeps the frozen lossless mixture tables of the last two angles
    ``sv_mixture`` used it at, so the adjacent and closing tables of a chain
    are built once per spec and only thinned at each efficiency.  The memo
    lives and dies with the object: it takes no part in the constructor,
    ``==``, ``hash`` or ``repr``, and ``replace`` or a new equal spec starts
    empty.  Threads sharing a spec may build a table twice, never a wrong one.
    """

    gamma: float
    mass_threshold: float = 0.99
    _mixtures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_gain(self.gamma)
        check_mass_threshold(self.mass_threshold)


def lambda_sq(N: int, gamma: float) -> float:
    """Weight of the 2N-photon singlet in the squeezed vacuum.

    Defined for 0 <= N <= max float / 2 ~ 8.99e307; a larger N raises ValueError.
    """
    _check_photon_count(N)
    _check_gain(gamma)
    weight = (N + 1) * math.tanh(gamma) ** (2 * N)
    try:
        return weight / math.cosh(gamma) ** 4
    except OverflowError:
        # Above gamma ~ 178.1 cosh^4 overflows, but there cosh = e^gamma / 2
        # to double precision, so the weight is (N+1) tanh^(2N) 16 e^(-4 gamma).
        return weight * 16.0 * math.exp(-4.0 * gamma)


def mean_photons_per_beam(gamma: float) -> float:
    """Mean photon count per beam, sum_N lambda_N^2 N = 2 sinh(gamma)^2.

    Defined for 0 < gamma <= asinh(max float) / 2 ~ 355.24; a larger gain
    overflows a float and raises ValueError.
    """
    _check_gain(gamma, _MAX_GAIN_E2)
    return 2.0 * math.sinh(gamma) ** 2


class CapExceededError(RuntimeError):
    """The weights up to MAX_PHOTON_NUMBER photons per beam sum to less than the mass threshold."""


def n_max_for(spec: SVSpec) -> int:
    """Smallest N_max whose cumulative weight reaches the mass threshold.

    Raises CapExceededError when the weights up to MAX_PHOTON_NUMBER photons
    per beam sum to less than the threshold.
    """
    cumulative = 0.0
    for n in range(MAX_PHOTON_NUMBER + 1):
        cumulative += lambda_sq(n, spec.gamma)
        if cumulative >= spec.mass_threshold:
            return n
    raise CapExceededError(
        f"at gain {spec.gamma}, the singlet weights up to N = {MAX_PHOTON_NUMBER} "
        f"sum to {cumulative!r}, below the requested mass {spec.mass_threshold}"
    )


def sv_mixture(theta: float, spec: SVSpec, eta: float = 1.0) -> JointCountDistribution:
    """Joint count table for the squeezed vacuum at relative angle theta.

    Weighted mixture of the lossless fixed-N tables up to the truncation
    point, thinned once at efficiency eta (thinning is linear).  The declared
    mass is the truncated weight sum (weights are not renormalized).  The
    lossless mixture is built once per spec and angle and kept by ``spec``
    (see SVSpec); at eta = 1 that shared, frozen table is returned itself.
    """
    check_efficiency(eta)
    _check_angle(theta)
    mixture = spec._mixtures.pop(theta, None)
    if mixture is None:
        n_max = n_max_for(spec)
        weights = [lambda_sq(n, spec.gamma) for n in range(n_max + 1)]
        probs = np.zeros((n_max + 1, n_max + 1))
        for n, weight in enumerate(weights):
            probs[: n + 1, : n + 1] += weight * joint_distribution(n, theta).probs
        probs.setflags(write=False)
        mixture = JointCountDistribution(probs=probs, mass=math.fsum(weights))
    spec._mixtures[theta] = mixture  # now the most recently used angle
    for oldest in list(spec._mixtures)[:-2]:
        spec._mixtures.pop(oldest, None)
    if eta < 1.0:
        mixture = replace(binomial_thin(mixture, eta), mass=mixture.mass)
    return mixture


def intensity_correlation(theta_a: float, theta_b: float, gamma: float) -> float:
    """Photon-number correlation between Alice's and Bob's analyzer outputs.

    The closed form sinh^2 cosh^2 cos^2(theta_a - theta_b) + sinh^4 shows
    the interferometric contrast that CHSH-style correlator tests rely on:
    the angle-independent sinh^4 pedestal grows faster than the modulated
    term, so the visibility degrades with gain.  Defined for
    0 < gamma <= log(8 max float) / 4 ~ 177.97 at every angle; a larger gain
    overflows a float and raises ValueError.
    """
    _check_gain(gamma, _MAX_GAIN_E4)
    sinh_sq = math.sinh(gamma) ** 2
    cosh_sq = math.cosh(gamma) ** 2
    return sinh_sq * cosh_sq * math.cos(theta_a - theta_b) ** 2 + sinh_sq**2


def correlation_visibility(gamma: float) -> float:
    """Visibility (max - min) / (max + min) of the correlation fringe.

    Equals 1 / (1 + 2 tanh(gamma)^2): 1 at vanishing gain, decaying to 1/3
    (thermal contrast) in the high-gain limit, finite at every gain.
    """
    _check_gain(gamma)
    return 1.0 / (1.0 + 2.0 * math.tanh(gamma) ** 2)
