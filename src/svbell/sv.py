"""Four-mode squeezed vacuum: singlet weights, truncation, mixtures.

Type-II parametric down-conversion with gain gamma emits a coherent
superposition of 2N-photon polarization singlets with weights

    lambda_N^2 = cosh(gamma)^-4 (N+1) tanh(gamma)^(2N),   sum_N lambda_N^2 = 1.

Joint count predictions for the full state are the lambda_N^2-weighted
mixtures of the fixed-N tables.  The infinite sum is truncated at the
smallest N_max whose cumulative weight reaches a configured mass threshold
(0.99 by default); truncated weights are deliberately *not* renormalized.
Only the spec declares its truncation: it works out the weights, N_max and
their sum (``n_max`` and ``mass``) once, on first use; a mixture is just its
table.  The command line checks each gain at a second, larger mass; that
guard spec shares the first spec's kept mixtures, and its mixture at each
angle continues the first one's, adding only the components above it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

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

    The mixture never goes above MAX_PHOTON_NUMBER photons per beam.  A spec
    computes its truncation (the weights up to ``n_max``, and their sum
    ``mass``) once, on first use, and keeps the frozen lossless mixture
    tables of the last two angles ``sv_mixture`` used it at, so the adjacent
    and closing tables of a chain are built once per spec and only thinned
    at each efficiency.  Both live and die with the object: they take no
    part in the constructor, ``==``, ``hash`` or ``repr``, and ``replace``
    or a new equal spec starts empty.  The command line's guard spec shares
    its default-mass spec's kept tables (see ``_at_mass``): at most two
    tables per angle, the number two separate specs would keep.  Threads
    sharing a spec may build a table twice, never a wrong one.
    """

    gamma: float
    mass_threshold: float = 0.99
    # The kept tables: angle -> {N_max: lossless mixture}, least recently used first.
    _mixtures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_gain(self.gamma)
        check_mass_threshold(self.mass_threshold)

    @cached_property
    def _truncation(self) -> tuple[list[float], float]:
        """The weights up to N_max and their correctly rounded sum.

        N_max is the first N at which the running sum reaches the mass
        threshold; CapExceededError if none up to MAX_PHOTON_NUMBER does.
        """
        weights = []
        cumulative = 0.0
        for n in range(MAX_PHOTON_NUMBER + 1):
            weights.append(lambda_sq(n, self.gamma))
            cumulative += weights[n]
            if cumulative >= self.mass_threshold:
                return weights, math.fsum(weights)
        raise CapExceededError(
            f"at gain {self.gamma}, the singlet weights up to N = {MAX_PHOTON_NUMBER} "
            f"sum to {cumulative!r}, below the requested mass {self.mass_threshold}"
        )

    @property
    def n_max(self) -> int:
        """Smallest N whose cumulative weight reaches the threshold, or CapExceededError."""
        return len(self._truncation[0]) - 1

    @property
    def mass(self) -> float:
        """The weights up to ``n_max``, correctly rounded: the mass the mixtures keep."""
        return self._truncation[1]


def _at_mass(spec: SVSpec, mass_threshold: float) -> SVSpec:
    """spec's state at another mass, sharing spec's kept tables."""
    other = replace(spec, mass_threshold=mass_threshold)
    object.__setattr__(other, "_mixtures", spec._mixtures)
    return other


def lambda_sq(N: int, gamma: float) -> float:
    """Weight of the 2N-photon singlet in the squeezed vacuum.

    Defined for 0 <= N <= max float / 2 ~ 8.99e307; a larger N raises ValueError.
    """
    _check_photon_count(N)
    _check_gain(gamma)
    if N > MAX_PHOTON_NUMBER:
        # fl(tanh)^(2N) carries about 2N ulp of relative error (and once
        # tanh rounds to 1, above gamma ~ 19.06, it stays 1); exp(2N log tanh)
        # about |2N log tanh| ulp, given log tanh to an ulp or so: from
        # log1p(-e) - log1p(e), e = e^(-2 gamma), where tanh is near 1, and
        # from log tanh where it is not, so that e is not near 1.
        e = math.exp(-2.0 * gamma)
        log_tanh = math.log1p(-e) - math.log1p(e) if e < 0.5 else math.log(math.tanh(gamma))
        weight = (N + 1) * math.exp(2 * N * log_tanh)
    else:
        # The direct factor, whose bits the tests pin: about 2N <= 120 ulp off,
        # and where tanh rounds to 1 at most 240 e^(-2 gamma) < 7e-15.
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


def sv_mixture(theta: float, spec: SVSpec, eta: float = 1.0) -> JointCountDistribution:
    """Joint count table for the squeezed vacuum at relative angle theta.

    Weighted mixture of the lossless fixed-N tables up to the truncation
    point ``spec.n_max``, thinned once at efficiency eta (thinning is
    linear).  Weights are not renormalized: the table's mass is
    ``spec.mass`` up to rounding.  The lossless mixture is built once per
    spec and angle and kept by ``spec`` (see SVSpec); at eta = 1 that
    shared, frozen table is returned itself, below it ``binomial_thin``'s.
    A build starts from the largest kept table at this angle truncated no
    later, such as the default-mass table when ``spec`` is its guard: its
    block holds the same partial sums as adding every component from N = 0,
    the rest is zero, so only the components above it are added, and the
    table is bit for bit the one a fresh spec builds.  A larger kept table
    is never cut down.
    """
    check_efficiency(eta)
    _check_angle(theta)
    weights, n_max = spec._truncation[0], spec.n_max
    kept = spec._mixtures.pop(theta, {})
    mixture = kept.get(n_max)
    if mixture is None:
        start = max((n for n in kept if n < n_max), default=-1)
        probs = np.zeros((n_max + 1, n_max + 1))
        if start >= 0:
            probs[: start + 1, : start + 1] = kept[start].probs
        for n in range(start + 1, n_max + 1):
            probs[: n + 1, : n + 1] += weights[n] * joint_distribution(n, theta).probs
        probs.setflags(write=False)
        mixture = kept[n_max] = JointCountDistribution(probs)
    spec._mixtures[theta] = kept  # now the most recently used angle
    for oldest in list(spec._mixtures)[:-2]:
        spec._mixtures.pop(oldest, None)
    return binomial_thin(mixture, eta) if eta < 1.0 else mixture


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
