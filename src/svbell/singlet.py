"""Joint photon-count statistics of the 2N-photon polarization singlet.

The 2N-photon singlet carries N photons in each of two spatial beams, with
perfectly anticorrelated polarizations::

    |psi_N> = (N+1)^(-1/2) * sum_n (-1)^n |n_H, (N-n)_V>_a |(N-n)_H, n_V>_b

Alice counts ``n`` photons in her H output; Bob counts ``m`` photons in his
V+theta output, where theta is the relative polarizer angle.  Under the
Schwinger map the amplitude is an entry of the polarization rotation
restricted to N photons::

    A_N(n, m | theta) = (-1)^m D_N(theta)[n, m] / sqrt(N+1)
    p(n, m | theta)   = D_N(theta)[n, m]^2 / (N+1)

``D_N[i, k] = <i| U |k>``, where ``|k>`` holds k photons in mode a and N-k
in mode b, and U maps a+ -> c a+ + s b+ and b+ -> -s a+ + c b+ with
c = cos(theta), s = sin(theta).  D_N is built from D_0 = [[1]] one photon at
a time: each column of D_{n+1} applies U to one more creation operator on a
column of D_n, i.e. it is a weighted sum of that column and its copy shifted
down one row.  Each column adds its photon to the more occupied mode, which
keeps every division by sqrt(occupation) well conditioned: no alternating
sum cancels, and the mass stays within about 1e-14 of 1 up to N = 60.
Every off-diagonal contribution carries an explicit factor of c or s, so at
theta = 0 the table is strictly diagonal (m = n) and at theta = pi/2
strictly anti-diagonal (m = N - n), each nonzero entry equal to 1/(N+1).

D_{n+1} depends on D_n and theta alone, so the cache keeps one step per
(N, theta): a miss steps on from the cached N - 1, and the tables
N = 0..n_max at one angle cost n_max steps in all, in any request order.  It
holds at most 256 (D, table) pairs, 15.2 MB at N = 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PhotonNumberRangeError

# Largest photon number per beam the count tables support; callers reject
# larger values instead of silently extrapolating.
MAX_PHOTON_NUMBER = 60

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True, eq=False)
class JointCountDistribution:
    """Probability table over joint photon counts (n, m).

    ``probs[n, m]`` is the probability that Alice registers n photons and
    Bob m photons; ``mass`` is the declared total (1 up to rounding for
    lossless fixed-N tables, the truncated weight sum for mixtures).  Treat
    ``probs`` as read-only: fixed-N tables, and the lossless squeezed-vacuum
    tables that ``sv_mixture`` returns at eta = 1, are shared and frozen.
    """

    probs: np.ndarray
    mass: float

    @property
    def max_count(self) -> int:
        return self.probs.shape[0] - 1


def _check_photon_number(N: int) -> None:
    if N < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    if N > MAX_PHOTON_NUMBER:
        raise PhotonNumberRangeError(
            f"photon number per beam {N} exceeds supported range "
            f"N <= {MAX_PHOTON_NUMBER}"
        )


def _check_angle(theta: float) -> None:
    # Angle hygiene lives here: callers reduce to a relative angle first.
    if not 0.0 <= theta <= _HALF_PI:
        raise ValueError(f"relative polarizer angle must lie in [0, pi/2], got {theta}")


def _cos_sin(theta: float) -> tuple[float, float]:
    # math.cos(pi/2) is ~6e-17, not 0; snap so the anti-diagonal support at
    # theta = pi/2 is exact rather than 1e-33-ish.
    if theta == _HALF_PI:
        return 0.0, 1.0
    return math.cos(theta), math.sin(theta)


def _step(d: np.ndarray, c: float, s: float) -> np.ndarray:
    """D_{n+1}(theta) from D_n(theta): one more photon through the rotation."""
    n = len(d) - 1
    # root[i] = sqrt(i) is the a+ factor on row i, root[n+1-i] the b+
    # factor; rows outside D_n contribute 0.
    root = np.sqrt(np.arange(n + 2.0))
    zeros = np.zeros((1, n + 1))
    up = root[:, None] * np.vstack([zeros, d])  # sqrt(i) D_n[i-1, k]
    down = root[::-1, None] * np.vstack([d, zeros])  # sqrt(n+1-i) D_n[i, k]
    # Columns k < half gain a b photon (norm sqrt(n+1-k)), the rest an
    # a photon on column k-1 (norm sqrt(k)).
    half = (n + 2) // 2
    via_b = (c * down[:, :half] - s * up[:, :half]) / root[::-1][:half]
    via_a = (c * up[:, half - 1 :] + s * down[:, half - 1 :]) / root[half:]
    return np.hstack([via_b, via_a])


@lru_cache(maxsize=256)
def _rotation(N: int, theta: float) -> tuple[np.ndarray, JointCountDistribution]:
    """D_N(theta) and its frozen count table, one step on from the cached N - 1."""
    d = np.ones((1, 1)) if N == 0 else _step(_rotation(N - 1, theta)[0], *_cos_sin(theta))
    probs = d**2 / (N + 1)
    d.setflags(write=False)
    probs.setflags(write=False)
    return d, JointCountDistribution(probs=probs, mass=float(probs.sum()))


def singlet_amplitudes(N: int, theta: float) -> np.ndarray:
    """Signed amplitude table for Alice counting n (H) and Bob m (V+theta).

    Parameters
    ----------
    N : photons per beam, 0 <= N <= 60.
    theta : relative polarizer angle in [0, pi/2].

    Returns the (N+1) x (N+1) array ``(-1)^m D_N(theta)[n, m] / sqrt(N+1)``;
    entries off the supported correlation pattern are exact zeros.
    """
    _check_photon_number(N)
    _check_angle(theta)
    signs = (-1.0) ** np.arange(N + 1)
    return _rotation(N, theta)[0] * signs / math.sqrt(N + 1)


def joint_distribution(N: int, theta: float) -> JointCountDistribution:
    """Joint count table p(n, m | theta) for the 2N-photon singlet.

    The table is (N+1) x (N+1) and sums to 1 within 1e-9 over the whole
    supported range.  It is cached with its D and shared read-only.
    """
    _check_photon_number(N)
    _check_angle(theta)
    return _rotation(N, theta)[1]


@lru_cache(maxsize=MAX_PHOTON_NUMBER + 1)
def _distances(size: int) -> np.ndarray:
    """Integer matrix |i - j| over a size x size count table."""
    counts = np.arange(size)
    distances = np.abs(counts[:, None] - counts[None, :])
    distances.setflags(write=False)
    return distances


def mean_abs_difference(dist: JointCountDistribution) -> float:
    """Average |m - n| under a joint count distribution."""
    return float(np.sum(_distances(dist.max_count + 1) * dist.probs))
