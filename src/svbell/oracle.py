"""Brute-force validators for the closed-form machinery.

Two independent computation paths live here:

* the 2N-photon singlet written in the Fock basis,
  sum_n (-1)^n |n_H, (N-n)_V>_a |(N-n)_H, n_V>_b / sqrt(N+1): one signed
  amplitude per n, paired with an explicit binomial expansion of rotated
  number states.  The integer part of that expansion (signed weights from
  exact integer binomials and factorials, one per power of cos and target
  cell) depends on N alone and is built once per N as one matrix.  Each
  observer's N+1 rotated states at an angle are then its row of cos/sin
  monomials times that matrix; both observers' angles go through one such
  product, one lookup of the matrix per call.  An angle set's powers of cos
  and sin, up to the tenth, are taken once and then read for every N; the
  last set of at most 64 angles stays cached.  The signed amplitude tables
  are one batched matrix product of Alice's states, weighted by the
  singlet's amplitudes, with Bob's; their square is the joint count table.
  Each table of a stack of angles is bitwise the table of its angles alone,
  and ``verify`` builds one stack per N; and
* a seeded Monte-Carlo realization of Bernoulli detector loss, drawn from
  one ``random.Random`` per call: conditional binomials spread the samples
  over the cells, then two passes over the whole table, Bob's counts and
  then Alice's.  A pass resolves each photon once, by one binomial draw for
  every group of samples with the same count and detections so far, so the
  draws number at most (k^2 - 1) + k^2 (k - 1) for a k x k table, however
  many samples.  Counts are Python ints, exact at any sample count, and
  every photon of every sample is still an independent Bernoulli(eta)
  event, as if drawn one by one.

Neither path shares code with the closed-form modules; that independence is
the point.  The Fock oracle's scale is deliberately small (N <= 10).
"""

from __future__ import annotations

import math
import operator
import random
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .singlet import JointCountDistribution

# Oracle scale: exact enumeration stays cheap and obviously correct here.
MAX_ORACLE_PHOTON_NUMBER = 10

# Largest Monte-Carlo sample count, the largest int64: counts are Python ints,
# exact at any size, and the table of counts is rescaled as float64.
MAX_MC_SAMPLES = 2**63 - 1

# The singlet's signs (-1)^n, n = 0..MAX_ORACLE_PHOTON_NUMBER.
_SIGNS = np.array([(-1.0) ** n for n in range(MAX_ORACLE_PHOTON_NUMBER + 1)])
_SIGNS.flags.writeable = False


@lru_cache(maxsize=MAX_ORACLE_PHOTON_NUMBER + 1)
def _expansion(N: int) -> np.ndarray:
    """Integer part of the binomial expansion of every rotated N-photon state.

    The state |j_{H+phi}, k_{V+phi}>, k = N - j, comes from raising the
    rotated creation operators

        c_{H+phi} = cos(phi) c_H + sin(phi) c_V
        c_{V+phi} = -sin(phi) c_H + cos(phi) c_V

    to the j-th and k-th powers.  Term (p, q) of that expansion puts
    (-1)^q C(j,p) C(k,q) sqrt(w! (N-w)! / (j! k!)) cos(phi)^a sin(phi)^(N-a)
    on |w, N-w>, with w = p + q and a = p + k - q.  Returns the read-only
    (N+1) x (N+1)^2 matrix whose entry (a, j (N+1) + w) is that weight:
    (w, a) fixes (p, q), so each term has a cell of its own.  A constant of
    N, built once.
    """
    weights = np.zeros((N + 1, (N + 1) ** 2))
    for j in range(N + 1):
        k = N - j
        for p in range(j + 1):
            for q in range(k + 1):
                w = p + q
                weights[p + k - q, j * (N + 1) + w] = (
                    (-1) ** q
                    * math.comb(j, p)
                    * math.comb(k, q)
                    * math.sqrt(
                        math.factorial(w)
                        * math.factorial(N - w)
                        / (math.factorial(j) * math.factorial(k))
                    )
                )
    weights.flags.writeable = False
    return weights


# verify reads one angle set, its 18 angles, for every N.  A set holds 176
# bytes per angle, so only sets this small are kept.
_MAX_CACHED_ANGLES = 64


@lru_cache(maxsize=1)
def _angle_powers(angles: bytes) -> tuple[np.ndarray, np.ndarray]:
    """cos^a and sin^a of each float64 angle in ``angles``, a = 0..MAX_ORACLE_PHOTON_NUMBER.

    Two read-only (k, 1, MAX_ORACLE_PHOTON_NUMBER + 1) tables for k angles,
    taken once per angle set and read for every N.  Keyed by the angles'
    bytes, so -0.0 and 0.0 stay apart.  The last set's tables stay resident
    until another set replaces them; ``_rotated_number_states`` calls the
    uncached ``_angle_powers.__wrapped__`` for a set of more than
    ``_MAX_CACHED_ANGLES`` angles.  Raises ``ValueError`` for an angle that
    is not finite; a raise is not cached, so every such call raises.
    """
    flat = np.frombuffer(angles).tolist()
    for angle in flat:
        if not math.isfinite(angle):
            raise ValueError(f"polarizer angles must be finite, got {angle}")
    # math's cos and sin, one angle at a time, as a scalar call takes them.
    cos = np.array([math.cos(angle) for angle in flat])[:, None, None]
    sin = np.array([math.sin(angle) for angle in flat])[:, None, None]
    a = np.arange(MAX_ORACLE_PHOTON_NUMBER + 1)
    powers = cos**a, sin**a
    for table in powers:
        table.flags.writeable = False
    return powers


def _rotated_number_states(N: int, phi: float | Sequence[float]) -> np.ndarray:
    """Row j: coefficients of |j_{H+phi}, (N-j)_{V+phi}> in the (H, V) Fock basis.

    Entry (j, w) multiplies |w, N-w>.  The row of monomials cos^a sin^(N-a)
    of each angle, read from ``_angle_powers``, times ``_expansion(N)``,
    reshaped.  The powers of a set of at most ``_MAX_CACHED_ANGLES`` angles
    stay cached for the next call; a larger set's are taken afresh.
    ``phi`` may be an array of angles: the result then holds one table per
    angle, each its own one-row matrix product and so bitwise the table of
    that angle alone.  Raises ``ValueError`` for an angle that is not
    finite.
    """
    angles = np.asarray(phi, dtype=float)
    powers = _angle_powers if angles.size <= _MAX_CACHED_ANGLES else _angle_powers.__wrapped__
    cos, sin = powers(angles.tobytes())
    monomials = cos[..., : N + 1] * sin[..., N::-1]
    return (monomials @ _expansion(N)).reshape(angles.shape + (N + 1, N + 1))


def _oracle_amplitudes(
    N: int, theta: float | Sequence[float], theta_alice: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Signed (N+1) x (N+1) overlap table of the singlet, by brute force.

    Entry (n, m) projects the 2N-photon singlet onto
    |n_{H+theta_alice}, (N-n)_{V+theta_alice}>_a together with
    |(N-m)_{H+theta}, m_{V+theta}>_b.  Alice's and Bob's angles broadcast
    together and are expanded in one call, each observer's N+1 rotated
    number states one matrix per angle.  The singlet's term n pairs
    Alice's H occupation n with Bob's N-n, so the table sums Alice's column
    n, times (-1)^n / sqrt(N+1), against Bob's column N-n.  A nonzero
    theta_alice checks that joint statistics depend on the polarizer angles
    only through their difference.

    ``theta`` and ``theta_alice`` may be arrays of angles that broadcast
    together; the result then stacks one table per angle pair, each bitwise
    the table of that pair alone.  Raises ``TypeError`` for an N that is
    not an integer and ``ValueError`` for a negative one or one above
    ``MAX_ORACLE_PHOTON_NUMBER``.
    """
    if operator.index(N) < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    if N > MAX_ORACLE_PHOTON_NUMBER:
        raise ValueError(f"oracle supports N <= {MAX_ORACLE_PHOTON_NUMBER}, got {N}")
    alice_angles, bob_angles = np.asarray(theta_alice, dtype=float), np.asarray(theta, dtype=float)
    if alice_angles.shape != bob_angles.shape:
        alice_angles, bob_angles = np.broadcast_arrays(alice_angles, bob_angles)
    alice, bob = _rotated_number_states(N, (alice_angles, bob_angles))
    amps = _SIGNS[: N + 1] / math.sqrt(N + 1)
    return (alice * amps) @ np.swapaxes(bob[..., ::-1, ::-1], -1, -2)


def oracle_joint_distribution(
    N: int, theta: float | Sequence[float], theta_alice: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Full (N+1) x (N+1) joint count table: the square of ``_oracle_amplitudes``.

    Like it, takes arrays of angles and returns one table per angle pair.
    The cos/sin powers of the last set of at most 64 angles stay resident,
    176 bytes per angle, so that the next N reads them.
    """
    return _oracle_amplitudes(N, theta, theta_alice) ** 2


def _stirling_tail(x: int) -> float:
    """lgamma(x + 1) less Stirling's (x + 1/2) log(x + 1) - (x + 1) + log(2 pi) / 2.

    From x = 9 up the series 1/(12 z) - 1/(360 z^3) + 1/(1260 z^5), z = x + 1,
    which is within 1e-10 there and stays so at any x; below it, lgamma.
    """
    z = x + 1.0
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z * z)) / (z * z)) / z


def _log_pmf_ratio(n: int, p: float, k: int, m: int) -> float:
    """log of P(k) / P(m) for a Binomial(n, p), from Stirling's formula.

    Each difference of logs of nearby numbers is taken as a log1p of their
    gap, so the rounding error is about 1e-16 |k - m|: below 1e-5 within
    10^11 of the mode, at any n.  Differences of lgamma would round by
    about 1e4 at n near 2^63, where lgamma is near 2e20.
    """
    return (
        (k - m) * math.log((n - k + 1) * p / ((k + 1) * (1.0 - p)))
        + (m + 0.5) * math.log1p((m - k) / (k + 1))
        + (n - m + 0.5) * math.log1p((k - m) / (n - k + 1))
        + _stirling_tail(m) + _stirling_tail(n - m) - _stirling_tail(k) - _stirling_tail(n - k)
    )


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw from ``rng``: a Python int in [0, n].

    For p above 1/2 it draws the failures, a Binomial(n, 1 - p).  Below a
    mean of 10 the geometric method counts the successes whose geometric
    gaps fit in n trials; a gap past the trials left ends the draw, so a
    subnormal p, whose gap overflows any int, draws 0.  From a mean of 10 up
    it is Hoermann's BTRS, transformed rejection with squeeze (J. Stat.
    Comput. Simul. 46, 101 (1993)), the algorithm of CPython 3.12's
    ``random.binomialvariate``, here on every Python.  CPython takes the
    log-ratio of BTRS's final acceptance test, a number of order 1, from
    differences of lgamma.  At n near 2^63 their rounding, about 1e4,
    swamps that test, and loss sampled so fails ``verify``'s L1 bound at
    most seeds; ``_log_pmf_ratio`` takes it from Stirling's formula instead.
    """
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    flip = p > 0.5
    if flip:
        p = 1.0 - p
    uniform = rng.random
    if n * p < 10.0:
        log_q = math.log1p(-p)
        k = trials = 0
        while True:
            # 1 - random() lies in (0, 1], so its log is finite.
            gap = math.log(1.0 - uniform()) / log_q
            if gap >= n - trials:
                break
            trials += math.floor(gap) + 1
            k += 1
    else:
        spq = math.sqrt(n * p * (1.0 - p))
        b = 1.15 + 2.53 * spq
        a = -0.0873 + 0.0248 * b + 0.01 * p
        c = n * p + 0.5
        vr = 0.92 - 4.2 / b
        alpha = (2.83 + 5.1 / b) * spq
        mode = math.floor((n + 1) * p)
        while True:
            u = uniform() - 0.5
            us = 0.5 - abs(u)
            if us == 0.0:  # the hat's pole: random() returned 0
                continue
            k = math.floor((2.0 * a / us + b) * u + c)
            if not 0 <= k <= n:
                continue
            v = 1.0 - uniform()
            if us >= 0.07 and v <= vr:
                break
            if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf_ratio(n, p, k, mode):
                break
    return n - k if flip else k


def _thin_columns(rng: random.Random, cells: Iterable[Sequence[int]], eta: float) -> list[list[int]]:
    """Entry (i, j): the samples of row i of ``cells`` that detect j of their photons.

    A sample in column m holds m photons.  Before round r the samples of
    column r join a pool of those with r photons left, grouped by row and
    detections so far; one ``_binomial`` draw per nonempty group detects the
    next photon of each of its samples, at most k (k - 1) / 2 draws per row
    of k cells.
    """
    thinned = []
    for row in cells:
        size = len(row)
        pool = [0] * size
        for r in range(size - 1, 0, -1):
            pool[0] += row[r]
            # Downwards, so the samples a draw moves up are not drawn again.
            for j in range(size - r - 1, -1, -1):
                if pool[j]:
                    hit = _binomial(rng, pool[j], eta)
                    pool[j] -= hit
                    pool[j + 1] += hit
        pool[0] += row[0]
        thinned.append(pool)
    return thinned


def l1_deviation_bound(cells: int, samples: int, alpha: float) -> float:
    """L1 radius that a correct sampler leaves with probability at most ``alpha``.

    The empirical distribution of ``samples`` i.i.d. draws over ``cells``
    cells obeys P(||p_hat - p||_1 >= eps) <= (2^k - 2) exp(-n eps^2 / 2)
    (Weissman et al., HP Labs HPL-2003-97) at every sample count; this is
    eps = sqrt(2 (k ln 2 + ln(1/alpha)) / n), with 2^k in place of 2^k - 2.
    Raises ``TypeError`` for ``cells`` or ``samples`` that is not an integer.
    """
    cells, samples = operator.index(cells), operator.index(samples)
    if cells < 1 or samples < 1:
        raise ValueError(f"cells and samples must be at least 1, got {cells} and {samples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(2.0 * (cells * math.log(2.0) + math.log(1.0 / alpha)) / samples)


def mc_thin(
    dist: JointCountDistribution, eta: float, samples: int, seed: int
) -> JointCountDistribution:
    """Empirical loss channel: sample joint counts, thin each binomially.

    Conditional binomials spread ``samples`` i.i.d. (n, m) pairs over the
    cells of ``dist`` (normalized by its mass): each cell in turn draws from
    the samples left, at its share of the mass left, and the last cell takes
    the rest.  Bob's pass then thins the m photons of every sample, one
    binomial draw per photon for each group of samples with the same count
    and detections, and sums m out; Alice's pass thins n the same way.  Each
    sample thus gets independent Binomial(n, eta), Binomial(m, eta) counts,
    from at most (k^2 - 1) + k^2 (k - 1) draws for a k x k table, however
    many samples.  Empty cells and groups draw nothing.  Each draw is a
    Python call, so the time grows as k^3: about 0.23 s for a 61 x 61
    table (Python 3.11, 2-core Xeon).  The output is rescaled by the
    input's mass, the sum of its table, so it estimates the same table that
    the exact channel produces.  Deterministic for a fixed seed, a
    nonnegative integer: raises ``TypeError`` for another type and
    ``ValueError`` for a negative one.  A stack of tables is rejected.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta}")
    samples = operator.index(samples)
    if not 1 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_MC_SAMPLES}], got {samples}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if dist.probs.ndim != 2:
        raise ValueError(
            f"mc_thin samples one table, got probabilities of shape {dist.probs.shape}"
        )
    flat = dist.probs.ravel()
    if not np.all(flat >= 0.0):
        raise ValueError("probabilities must be nonnegative and not NaN")
    mass = dist.mass
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    rng = random.Random(seed)
    # The mass from each cell on: at least the cell's own, so no share exceeds 1.
    tails = np.cumsum(flat[::-1])[::-1].tolist()
    left, drawn = samples, []
    for prob, tail in zip(flat[:-1].tolist(), tails):
        count = _binomial(rng, left, prob / tail) if prob and left else 0
        drawn.append(count)
        left -= count
    drawn.append(left)
    width = dist.probs.shape[1]
    cells = [drawn[i : i + width] for i in range(0, len(drawn), width)]
    bob = _thin_columns(rng, cells, eta)
    alice = _thin_columns(rng, zip(*bob), eta)
    counts = np.array(alice, dtype=float).T
    return JointCountDistribution(counts * (mass / samples))
