"""Four-mode squeezed vacuum: singlet weights, truncation, count tables, Bell values.

Type-II parametric down-conversion with gain gamma emits a coherent
superposition of 2N-photon polarization singlets with weights

    lambda_N^2 = cosh(gamma)^-4 (N+1) tanh(gamma)^(2N),   sum_N lambda_N^2 = 1.

Every function of the gain takes 0 < gamma <= log(8 max float) / 4 ~ 177.97
and raises ValueError outside it: there the fringe peak of
``intensity_correlation``, about e^(4 gamma) / 8, is the first value to
reach the largest float.  The weights up to 60 photons per beam sum to
less than 0.99 past gamma ~ 1.8, and to less than 1e-304 past the range.

``bell_sv`` reads the lambda_N^2-weighted mixtures of the fixed-N tables,
truncated at the smallest N_max whose weights reach a mass threshold (0.99
by default), not renormalized; only the spec declares its truncation (see
``SVSpec``).  ``count_table`` is the exact lossy table, cut by its tail bound.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .chain import BellBreakdown, ChainSpec
from .loss import _check_efficiency, binomial_thin
from .singlet import (
    MAX_PHOTON_NUMBER,
    JointCountDistribution,
    _check_angle,
    _check_photon_number,
    _stacked_tables,
    joint_distribution,
    mean_abs_difference,
)


# The fringe peak sinh(gamma)^2 cosh(2 gamma) ~ e^(4 gamma) / 8 fits a float up to here.
_MAX_GAIN = (math.log(sys.float_info.max) + math.log(8.0)) / 4


def _check_gain(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gain must be positive and finite, got {gamma}")
    if gamma > _MAX_GAIN:
        raise ValueError(f"gain must be at most {_MAX_GAIN!r} for this value to fit a float, got {gamma}")


def _check_mass_threshold(mass_threshold: float) -> None:
    # The weights of the infinite mixture never sum to 1, so 1 is unreachable.
    if not 0.0 < mass_threshold < 1.0:
        raise ValueError(f"mass threshold must lie in (0, 1), got {mass_threshold}")


@dataclass(frozen=True)
class SVSpec:
    """Gain and truncation mass of the squeezed-vacuum state.

    A spec works out its truncation (the weights up to ``n_max`` <= 60, and
    their sum ``mass``) once, on first use, or the CapExceededError that every
    later read raises again.  It keeps the frozen ``_lossless_pair`` of the
    last angle it was used at, so a chain's two tables are built once per
    spec and only thinned at each efficiency.  Both go with the object: not
    in the constructor, ``==``, ``hash`` or ``repr``; ``replace`` or a new
    equal spec starts empty.  The guard spec of ``_at_mass`` shares the kept
    pairs: at most two stacks.  Threads may build a table twice, never wrongly.
    """

    gamma: float
    mass_threshold: float = 0.99
    # The kept pairs: {last angle: {N_max: stack of the tables at theta and at pi/2 - theta}}.
    _mixtures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_gain(self.gamma)
        _check_mass_threshold(self.mass_threshold)

    @cached_property
    def _truncation(self) -> tuple[list[float], float]:
        """The weights up to N_max, the first N whose running sum reaches the threshold, and their sum.

        CapExceededError if no N up to MAX_PHOTON_NUMBER does.  A cached_property
        keeps no exception, so the spec keeps the message and raises it again.
        """
        if "_unreachable" not in self.__dict__:
            weights = []
            cumulative = 0.0
            for n in range(MAX_PHOTON_NUMBER + 1):
                weights.append(lambda_sq(n, self.gamma))
                cumulative += weights[n]
                if cumulative >= self.mass_threshold:
                    return weights, math.fsum(weights)
            self.__dict__["_unreachable"] = (
                f"at gain {self.gamma}, the singlet weights up to N = {MAX_PHOTON_NUMBER} "
                f"sum to {cumulative!r}, below the requested mass {self.mass_threshold}"
            )
        raise CapExceededError(self.__dict__["_unreachable"])

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

    Defined for 0 <= N <= MAX_PHOTON_NUMBER, like the count tables; a larger
    N raises ValueError, a non-integer N TypeError.
    """
    _check_photon_number(N)
    _check_gain(gamma)
    # The direct factor, whose bits the tests pin: about 2N <= 120 ulp off,
    # and where tanh rounds to 1 at most 240 e^(-2 gamma) < 7e-15.  cosh^4
    # fits a float up to gamma ~ 178.1, past the gain range.
    return (N + 1) * math.tanh(gamma) ** (2 * N) / math.cosh(gamma) ** 4


def mean_photons_per_beam(gamma: float) -> float:
    """Mean photon count per beam, sum_N lambda_N^2 N = 2 sinh(gamma)^2."""
    _check_gain(gamma)
    return 2.0 * math.sinh(gamma) ** 2


def rhs_sv_asymptotic(gamma: float) -> float:
    """Closed-form L -> infinity RHS for the squeezed vacuum.

    Summing the fixed-N limits with weights lambda_N^2 gives
    sinh(2 gamma)^3 / sinh(4 gamma) = sinh(2 gamma) tanh(2 gamma) / 2; the
    Bell parameter approaches its negative since the LHS vanishes.
    """
    _check_gain(gamma)
    return math.sinh(2.0 * gamma) * math.tanh(2.0 * gamma) / 2.0


class CapExceededError(RuntimeError):
    """The state up to MAX_PHOTON_NUMBER photons per beam is not shown to hold the mass threshold."""


def _add_component(pairs: np.ndarray, weight: float, tables: np.ndarray) -> None:
    """Adds weight times each fixed-N table into its pair (..., 2, > N, > N), the second column-reversed."""
    size = tables.shape[-1]
    term = weight * tables
    pairs[..., 0, :size, :size] += term
    pairs[..., 1, :size, :size] += term[..., ::-1]


def _lossless_pair(theta: float, spec: SVSpec) -> JointCountDistribution:
    """Lossless mixtures truncated by spec at theta and pi/2 - theta: one frozen stack, kept by spec.

    p(n, m | pi/2 - theta) = p(n, N - m | theta), so each fixed-N table goes
    into the second mixture with its columns reversed.  A build continues the
    largest pair kept at this angle truncated no later (the default-mass pair
    when ``spec`` is its guard): its blocks hold the same partial sums, so the
    pair is bit for bit a fresh build.  A larger kept pair is never cut down.
    """
    _check_angle(theta)  # not only in joint_distribution: a bad angle raises before an unreachable mass
    weights, n_max = spec._truncation[0], spec.n_max
    kept = spec._mixtures.pop(theta, {})
    pair = kept.get(n_max)
    if pair is None:
        start = max((n for n in kept if n < n_max), default=-1)
        tables = np.zeros((2, n_max + 1, n_max + 1))
        if start >= 0:
            tables[:, : start + 1, : start + 1] = kept[start].probs
        for n in range(start + 1, n_max + 1):
            _add_component(tables, weights[n], joint_distribution(n, theta).probs)
        tables.setflags(write=False)
        pair = kept[n_max] = JointCountDistribution(tables)
    spec._mixtures.clear()  # any other angle's pairs go
    spec._mixtures[theta] = kept
    return pair


def bell_sv(chain: ChainSpec, spec: SVSpec, eta: float = 1.0) -> BellBreakdown:
    """Bell breakdown for the squeezed vacuum, read off its mixture tables.

    theta' = pi/2 - theta, so both lossless mixtures truncated by ``spec``
    come from one pass over the singlet tables at theta, as one stack (see
    ``_lossless_pair``) thinned once at eta; one reduction gives both
    distances.  ``n_max`` and ``mass`` are ``spec.n_max`` and ``spec.mass``.
    The 2N-photon component contributes ``lambda_sq(N, gamma) * bell_fixed_N(N, chain, eta).bell``.
    """
    _check_efficiency(eta)
    pair = _lossless_pair(chain.theta, spec)
    adjacent, closing = mean_abs_difference(binomial_thin(pair, eta) if eta < 1.0 else pair)
    return BellBreakdown((2 * chain.L - 1) * adjacent, closing, spec.n_max, spec.mass)


# Entries per table stack that ``_bell_sv_sweep`` steps: its memory does not grow with its chains.
_SWEEP_ENTRIES = 2**14


def _bell_sv_sweep(chains: Iterable[ChainSpec], specs: Sequence[SVSpec], eta: float) -> Iterator[tuple]:
    """``tuple(bell_sv(chain, spec, eta) for spec in specs)`` per chain, bit for bit; one gain, masses rising.

    Each block of chains steps its angles through one stacked ladder to the largest n_max, bypassing the
    rotation cache and the kept pairs; the pairs are read at each spec's n_max, thinned once, reduced once.
    """
    _check_efficiency(eta)
    weights, top, chains = specs[-1]._truncation[0], specs[-1].n_max, iter(chains)
    while block := list(itertools.islice(chains, max(1, _SWEEP_ENTRIES // (top + 1) ** 2))):
        pairs, out = np.zeros((len(block), 2, top + 1, top + 1)), []
        for n, tables in enumerate(_stacked_tables(top, [chain.theta for chain in block])):
            _add_component(pairs, weights[n], tables)
            for spec in [s for s in specs if s.n_max == n]:
                pair = JointCountDistribution(pairs[..., : n + 1, : n + 1])
                d = mean_abs_difference(binomial_thin(pair, eta) if eta < 1.0 else pair)
                out.append([BellBreakdown((2 * c.L - 1) * a, b, n, spec.mass) for c, (a, b) in zip(block, d)])
        yield from zip(*out)


def _difference_parameter(theta: float, gamma: float, eta: float) -> float:
    """A = eta s^2 (1 - eta + eta c^2 sin^2 theta), s = sinh(gamma), c = cosh(gamma).

    A <= (s c)^2 fits a float over the whole gain range.  Evaluated as
    eta s^2 (1 - eta) + (eta s c sin theta)^2, squaring the product last, so
    that A underflows only where its exact value does; sin^2 theta alone
    underflows below theta ~ 1.5e-154 at any gain.
    """
    _check_angle(theta)
    _check_efficiency(eta)
    _check_gain(gamma)
    s, c = math.sinh(gamma), math.cosh(gamma)
    return eta * s**2 * (1.0 - eta) + (eta * s * c * math.sin(theta)) ** 2


def mean_abs_count_difference(theta: float, gamma: float, eta: float = 1.0) -> float:
    """Exact E|k| = 2A / sqrt(1 + 4A) of the untruncated squeezed vacuum, k = m - n.

    A as in ``count_difference_pmf``; the truncated mixtures'
    ``mean_abs_difference`` lies below it.  Evaluated as A / sqrt(A + 1/4),
    so that 4A cannot overflow.
    """
    a = _difference_parameter(theta, gamma, eta)
    return a / math.sqrt(a + 0.25)


def count_difference_pmf(k: int, theta: float, gamma: float, eta: float = 1.0) -> float:
    """Exact probability that Bob counts k more photons than Alice (discrete Laplace).

    P(k) = (1 - r) / (1 + r) r^|k|, r = 2A / (1 + 2A + sqrt(1 + 4A)),
    A = eta s^2 (1 - eta + eta c^2 sin^2 theta), s = sinh(gamma), c = cosh(gamma)
    (Weedbrook et al., RMP 84, 621 (2012)), for integer k.
    Evaluated as exp(|k| log r) / sqrt(1 + 4A), log r = -2 asinh(1 / (2 sqrt A)):
    accurate where r is tiny and where it rounds to 1.
    """
    k = abs(operator.index(k))
    a = _difference_parameter(theta, gamma, eta)
    if a == 0.0:  # eta = 0, or eta = 1 at theta = 0: the counts agree
        return float(k == 0)
    log_r = -2.0 * math.asinh(0.5 / math.sqrt(a))
    # Past |k| = 2^1023 the exponent is below -1e150 at every allowed A: P(k) is 0 either way.
    return math.exp(log_r * min(k, 2**1023)) * 0.5 / math.sqrt(a + 0.25)


def count_table(theta: float, gamma: float, eta: float = 1.0, mass: float = 0.99) -> JointCountDistribution:
    """Exact lossy joint count table of the squeezed vacuum, counts 0..K per beam.

    Its generating function is 1 / (1 + t + A - A (zA + zB) + (A - t) zA zB),
    t = eta s^2, A as in ``count_difference_pmf``.  Each count is geometric
    with ratio q = t / (1 + t), so K is the smallest with 2 q^(K+1) <= 1 - mass
    and the table keeps at least ``mass``; CapExceededError, before any table
    is built, if K exceeds 60.  Entries far below the peak may be subnormal or 0.
    """
    a = _difference_parameter(theta, gamma, eta)
    _check_mass_threshold(mass)
    t = eta * math.sinh(gamma) ** 2
    log_q = -math.log1p(1.0 / t) if t > 0.0 else -math.inf  # 1 / t may overflow: q = 0
    k = max(0, math.ceil(math.log((1.0 - mass) / 2.0) / log_q) - 1)
    if k > MAX_PHOTON_NUMBER:
        bound = f"the tail bound needs counts up to {k} per beam, more than {MAX_PHOTON_NUMBER}"
        raise CapExceededError(f"at gain {gamma} and efficiency {eta}, {bound}, to hold mass {mass}")
    p = [[0.0] * (k + 2) for _ in range(k + 2)]  # row and column -1 stay 0
    d = 1.0 + t + a
    for n in range(k + 1):
        for m in range(k + 1):
            p[n][m] = ((n == m == 0) + a * (p[n - 1][m] + p[n][m - 1]) - (a - t) * p[n - 1][m - 1]) / d
    return JointCountDistribution(np.array(p)[:-1, :-1])


def intensity_correlation(theta_a: float, theta_b: float, gamma: float) -> float:
    """Photon-number correlation between Alice's and Bob's analyzer outputs.

    The closed form sinh^2 cosh^2 cos^2(theta_a - theta_b) + sinh^4 shows
    the interferometric contrast that CHSH-style correlator tests rely on:
    the angle-independent sinh^4 pedestal grows faster than the modulated
    term, so the visibility degrades with gain.  Both angles must be finite.
    """
    for name, angle in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not math.isfinite(angle):
            raise ValueError(f"polarizer angle {name} must be finite, got {angle}")
    _check_gain(gamma)
    sinh_sq = math.sinh(gamma) ** 2
    cosh_sq = math.cosh(gamma) ** 2
    return sinh_sq * cosh_sq * math.cos(theta_a - theta_b) ** 2 + sinh_sq**2


def correlation_visibility(gamma: float) -> float:
    """Visibility (max - min) / (max + min) of the correlation fringe.

    Equals 1 / (1 + 2 tanh(gamma)^2): 1 at vanishing gain, decaying to 1/3
    (thermal contrast) in the high-gain limit.
    """
    _check_gain(gamma)
    return 1.0 / (1.0 + 2.0 * math.tanh(gamma) ** 2)
