"""Joint photon-count statistics of the 2N-photon polarization singlet.

The 2N-photon singlet carries N photons in each of two spatial beams, with
perfectly anticorrelated polarizations::

    |psi_N> = (N+1)^(-1/2) * sum_n (-1)^n |n_H, (N-n)_V>_a |(N-n)_H, n_V>_b

Alice counts ``n`` photons in her H output; Bob counts ``m`` photons in his
V+theta output, theta the relative polarizer angle: the port that holds Alice's
partner photons at theta = 0.  His H+theta port counts N - m, which gives the
table at pi/2 - theta.  Under the Schwinger map the amplitude is an entry of the
polarization rotation restricted to N photons.  Only the count tables p leave
this module; the signed D_N is the state each step carries on, not an output::

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
Bob's count at V + (pi/2 - theta) is his count at the other output of his
beam splitter at theta, so D_N(pi/2 - theta)[i, k] = (-1)^i D_N(theta)[i, N - k]
and p(n, m | pi/2 - theta) = p(n, N - m | theta) (Braunstein and Caves,
Ann. Phys. 202, 22 (1990)); ``sv`` reads both ends of a chain off one ladder.

D_{n+1} depends on D_n and theta alone, so the cache that serves
``joint_distribution`` keeps one step per (N, theta): a miss steps on from
the cached N - 1, and the tables N = 0..n_max at one angle cost n_max steps
in all, in any request order.  It holds at most 61 (D, table) pairs, one
full ladder N = 0..60 at one angle, 3.6 MB at N = 60: no command reuses
more, and a caller that cycles through several angles rebuilds an angle's
ladder (N steps) when it returns to it.  Verify's normalization and oracle
checks share one stack: their angles step together, outside the cache.
Every step reads its per-photon constants (the sqrt(i) column and its
reverse, the column norms and a -1/+1 sign row over the two column halves)
from a second cache, read-only, one entry per n = 0..59: 60,480 bytes of
data when full.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest photon number per beam the count tables support; callers reject
# larger values instead of silently extrapolating.
MAX_PHOTON_NUMBER = 60

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True, eq=False)
class JointCountDistribution:
    """Probability table over joint photon counts (n, m), or a stack of them.

    ``probs[..., n, m]`` is the probability that Alice registers n photons
    and Bob m photons; a leading axis stacks tables.  ``mass`` is each
    table's sum, worked out on each read (1 up to rounding for fixed-N
    tables, below 1 for truncated mixtures): a float, or a list for a stack.
    Treat ``probs`` as read-only: fixed-N tables and the lossless
    squeezed-vacuum pairs that ``sv`` keeps are shared and frozen.
    """

    probs: np.ndarray

    @property
    def mass(self) -> float | list:
        return np.add.reduce(self.probs, axis=(-2, -1)).tolist()

    @property
    def max_count(self) -> int:
        return self.probs.shape[-1] - 1


def _check_photon_number(N: int) -> None:
    # operator.index rejects a non-integral N, which _rotation would recurse on forever.
    if operator.index(N) < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    if N > MAX_PHOTON_NUMBER:
        raise ValueError(f"photon number per beam {N} exceeds supported range N <= {MAX_PHOTON_NUMBER}")


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


@lru_cache(maxsize=MAX_PHOTON_NUMBER)
def _step_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only constants of the step D_n -> D_{n+1}: 32 (n + 2) bytes of data.

    ``root[i] = sqrt(i)`` is the a+ factor on row i and ``root_rev[i] =
    sqrt(n+1-i)`` the b+ factor, both as (n+2, 1) columns.  Columns k < half
    of D_{n+1} gain a b photon (norm sqrt(n+1-k), sign -1 on the s term), the
    rest an a photon on column k-1 (norm sqrt(k), sign +1).
    """
    root = np.sqrt(np.arange(n + 2.0))
    half = (n + 2) // 2
    constants = (
        root[:, None],
        root[::-1, None].copy(),
        np.concatenate([root[::-1][:half], root[half:]]),
        np.repeat([-1.0, 1.0], [half, n + 2 - half]),
    )
    for array in constants:
        array.setflags(write=False)
    return constants


def _step(d: np.ndarray, c: float | np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """D_{n+1}(theta) from D_n(theta): one more photon through the rotation.

    ``d`` may be a stack of shape (..., n+1, n+1), one D_n per angle, with
    ``c`` and ``s`` broadcasting over its leading axes.  ``d`` is only read.
    """
    n = d.shape[-1] - 1
    root, root_rev, norms, signs = _step_constants(n)
    # D_n between two zero rows: rows outside D_n contribute 0.
    padded = np.zeros((*d.shape[:-2], n + 3, n + 1))
    padded[..., 1:-1, :] = d
    up = root * padded[..., :-1, :]  # sqrt(i) D_n[i-1, k]
    down = root_rev * padded[..., 1:, :]  # sqrt(n+1-i) D_n[i, k]
    # Both halves at once: via b, (c down - s up) / sqrt(n+1-k) on columns
    # k < half; via a, (c up + s down) / sqrt(k) on columns half-1.. of D_n.
    # a - s b is a + (-s) b in IEEE arithmetic, so every entry keeps its bits.
    half = (n + 2) // 2
    x = np.concatenate([down[..., :half], up[..., half - 1 :]], axis=-1)
    y = np.concatenate([up[..., :half], down[..., half - 1 :]], axis=-1)
    return (c * x + (s * signs) * y) / norms


@lru_cache(maxsize=MAX_PHOTON_NUMBER + 1)
def _rotation(N: int, theta: float) -> tuple[np.ndarray, JointCountDistribution]:
    """D_N(theta) and its frozen count table, one step on from the cached N - 1."""
    d = np.ones((1, 1)) if N == 0 else _step(_rotation(N - 1, theta)[0], *_cos_sin(theta))
    probs = d**2 / (N + 1)
    d.setflags(write=False)
    probs.setflags(write=False)
    return d, JointCountDistribution(probs)


def _stacked_tables(max_N: int, thetas: list[float]) -> Iterator[np.ndarray]:
    """The tables N = 0..max_N at every angle, stepped together: one stack per N.

    Each is fresh, (len(thetas), N + 1, N + 1), entry i bit for bit
    ``joint_distribution(N, thetas[i]).probs``; the stacked D_N bypass the
    cache.  Its caller passes 0 <= max_N <= 60 and angles in [0, pi/2].
    """
    cos_sin = np.array([_cos_sin(theta) for theta in thetas]).reshape(-1, 2, 1, 1)
    c, s = cos_sin[:, 0], cos_sin[:, 1]
    d = np.ones((len(thetas), 1, 1))
    for N in range(max_N + 1):
        if N:
            d = _step(d, c, s)
        yield d**2 / (N + 1)


def joint_distribution(N: int, theta: float) -> JointCountDistribution:
    """Joint count table p(n, m | theta) for the 2N-photon singlet.

    The table is (N+1) x (N+1) and sums to 1 within 1e-9 over the whole
    supported range.  It is cached with its D and shared read-only.
    """
    _check_photon_number(N)
    _check_angle(theta)
    return _rotation(N, theta)[1]


# Read-only float64 table |i - j| over the largest count table; a table of
# size k reads its top-left k x k block.  Its entries are small integers,
# exact in float64, so the product with a count table needs no int -> float
# cast and each entry is unchanged.
_DISTANCES = np.abs(np.arange(MAX_PHOTON_NUMBER + 1.0)[:, None] - np.arange(MAX_PHOTON_NUMBER + 1.0))
_DISTANCES.setflags(write=False)


def mean_abs_difference(dist: JointCountDistribution) -> float | list:
    """Sum of |m - n| p(n, m) over a joint count table, not divided by its mass.

    For a full table (mass 1) this is the mean |m - n|.  For a truncated
    mixture (mass < 1) it is the sum over the kept components only, which
    ``bell_sv`` reports as is: it lies below the untruncated value by at most
    sum_{N > n_max} lambda_N^2 N, the one-sided bound the benchmark's
    reference checks.  One ``np.add.reduce`` per table, as ``np.sum`` does: a float bit for bit
    ``float(np.sum(|i - j| * probs))``, or a list with one such value per table of a stack.
    """
    size = dist.max_count + 1
    return np.add.reduce(_DISTANCES[:size, :size] * dist.probs, axis=(-2, -1)).tolist()
