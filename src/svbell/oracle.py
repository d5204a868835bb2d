"""Brute-force validators for the closed-form machinery.

Two independent computation paths live here:

* the 2N-photon singlet written in the Fock basis,
  sum_n (-1)^n |n_H, (N-n)_V>_a |(N-n)_H, n_V>_b / sqrt(N+1): one signed
  amplitude per n, paired with an explicit binomial expansion of rotated
  number states.  The integer part of that expansion (signed weights from
  exact integer binomials and factorials, one per power of cos and target
  cell) depends on N alone and is built once per N as one matrix.  Each
  observer's N+1 rotated states at an angle are then its row of cos/sin
  monomials times that matrix, and the signed amplitude tables are one
  batched matrix product of Alice's states, weighted by the singlet's
  amplitudes, with Bob's; their square is the joint count table.  Each
  table of a stack of angles is bitwise the table of its angles alone, and
  ``verify`` builds one stack per N; and
* a seeded Monte-Carlo realization of Bernoulli detector loss: one
  multinomial draw of how many samples fall in each cell, then two passes
  over the whole table, Bob's counts and then Alice's.  A pass resolves
  each photon once, by one binomial draw over every group of samples with
  the same count and detections so far: 1 + 2 max_count draws per table,
  however many samples or nonzero cells.  Every photon of every sample is
  still an independent Bernoulli(eta) event, as if drawn one by one.

Neither path shares code with the closed-form modules; that independence is
the point.  The Fock oracle's scale is deliberately small (N <= 10).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

from .singlet import JointCountDistribution

# Oracle scale: exact enumeration stays cheap and obviously correct here.
MAX_ORACLE_PHOTON_NUMBER = 10

# Largest Monte-Carlo sample count: the sampler counts in int64.
MAX_MC_SAMPLES = 2**63 - 1


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


def _rotated_number_states(N: int, phi: float | Sequence[float]) -> np.ndarray:
    """Row j: coefficients of |j_{H+phi}, (N-j)_{V+phi}> in the (H, V) Fock basis.

    Entry (j, w) multiplies |w, N-w>.  The row of monomials cos^a sin^(N-a)
    of each angle times ``_expansion(N)``, reshaped.  ``phi`` may be an
    array of angles: the result then holds one table per angle, each its own
    one-row matrix product and so bitwise the table of that angle alone.
    Raises ``ValueError`` for an angle that is not finite.
    """
    angles = np.asarray(phi, dtype=float)
    flat = angles.ravel().tolist()
    for angle in flat:
        if not math.isfinite(angle):
            raise ValueError(f"polarizer angles must be finite, got {angle}")
    # math's cos and sin, one angle at a time, as a scalar call takes them.
    cos = np.array([math.cos(angle) for angle in flat])[:, None, None]
    sin = np.array([math.sin(angle) for angle in flat])[:, None, None]
    a = np.arange(N + 1)
    monomials = cos**a * sin ** (N - a)
    return (monomials @ _expansion(N)).reshape(angles.shape + (N + 1, N + 1))


def _oracle_amplitudes(
    N: int, theta: float | Sequence[float], theta_alice: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Signed (N+1) x (N+1) overlap table of the singlet, by brute force.

    Entry (n, m) projects the 2N-photon singlet onto
    |n_{H+theta_alice}, (N-n)_{V+theta_alice}>_a together with
    |(N-m)_{H+theta}, m_{V+theta}>_b.  Each observer's N+1 rotated number
    states are expanded once, as one matrix.  The singlet's term n pairs
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
    norm = 1.0 / math.sqrt(N + 1)
    amps = np.where(np.arange(N + 1) % 2, -norm, norm)
    alice = _rotated_number_states(N, theta_alice)
    bob = _rotated_number_states(N, theta)[..., ::-1, ::-1]
    return (alice * amps) @ np.swapaxes(bob, -1, -2)


def oracle_joint_distribution(
    N: int, theta: float | Sequence[float], theta_alice: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Full (N+1) x (N+1) joint count table: the square of ``_oracle_amplitudes``.

    Like it, takes arrays of angles and returns one table per angle pair.
    """
    return _oracle_amplitudes(N, theta, theta_alice) ** 2


def _thin_columns(rng: np.random.Generator, cells: np.ndarray, eta: float) -> np.ndarray:
    """Entry (i, j): the samples of row i of ``cells`` that detect j of their photons.

    A sample in column m holds m photons.  Before round r the samples of
    column r join a pool of those with r photons left, grouped by row and
    detections so far; one binomial draw detects the next photon of each.
    """
    size = cells.shape[1]
    pool = np.zeros_like(cells)
    for r in range(size - 1, 0, -1):
        pool[:, 0] += cells[:, r]
        hit = rng.binomial(pool[:, : size - r], eta)
        pool[:, : size - r] -= hit
        pool[:, 1 : size - r + 1] += hit
    pool[:, 0] += cells[:, 0]
    return pool


def l1_deviation_bound(cells: int, samples: int, alpha: float) -> float:
    """L1 radius that a correct sampler leaves with probability at most ``alpha``.

    The empirical distribution of ``samples`` i.i.d. draws over ``cells``
    cells obeys P(||p_hat - p||_1 >= eps) <= (2^k - 2) exp(-n eps^2 / 2)
    (Weissman et al., HP Labs HPL-2003-97) at every sample count; this is
    eps = sqrt(2 (k ln 2 + ln(1/alpha)) / n), with 2^k in place of 2^k - 2.
    """
    if cells < 1 or samples < 1:
        raise ValueError(f"cells and samples must be at least 1, got {cells} and {samples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(2.0 * (cells * math.log(2.0) + math.log(1.0 / alpha)) / samples)


def mc_thin(
    dist: JointCountDistribution, eta: float, samples: int, seed: int
) -> JointCountDistribution:
    """Empirical loss channel: sample joint counts, thin each binomially.

    One multinomial draw spreads ``samples`` i.i.d. (n, m) pairs over the
    cells of ``dist`` (normalized by its mass).  Bob's pass then thins the
    m photons of every sample, one binomial draw per photon for the whole
    table, and sums m out; Alice's pass thins n the same way.  Each sample
    thus gets independent Binomial(n, eta), Binomial(m, eta) counts, from
    1 + 2 max_count draws, however many samples or nonzero cells.  The
    output is rescaled by the input's mass, the sum of its table, so it
    estimates the same table that the exact channel produces.
    Deterministic for a fixed seed.  A stack of tables is rejected.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta}")
    samples = operator.index(samples)
    if not 1 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_MC_SAMPLES}], got {samples}")
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
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cells = rng.multinomial(samples, flat / mass).reshape(dist.probs.shape)
    bob = _thin_columns(rng, cells, eta)
    counts = _thin_columns(rng, bob.T, eta).T
    return JointCountDistribution(counts * (mass / samples))
