"""Brute-force validators for the closed-form machinery.

Two independent computation paths live here:

* a four-mode Fock-space construction of the 2N-photon singlet plus explicit
  binomial expansion of rotated number states.  The integer part of that
  expansion (signed weights from exact integer binomials and factorials,
  one per power of cos and target cell) depends on N alone and is built
  once per N as one matrix.  Each observer's N+1 rotated states at an
  angle are then its row of cos/sin monomials times that matrix, and the
  signed amplitude tables are one batched matrix product over the entries
  of the singlet's Fock vector; their square is the joint count table.
  Each table of a stack of angles is bitwise the table of its angles
  alone, and ``verify`` builds one stack per N; and
* a seeded Monte-Carlo realization of Bernoulli detector loss: one
  multinomial draw of how many samples fall in each cell, then the photons
  of each cell are detected one at a time, with one binomial draw per photon
  for each group of samples that has seen the same number of detections so
  far.  Every photon of every sample is still an independent Bernoulli(eta)
  event, so the law is that of one draw per sample, but the number of draws
  depends only on the table size, never on the number of samples.

Neither path shares code with the closed-form modules; that independence is
the point.  Scale is deliberately small (N <= 10).
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

_FockVector = dict[tuple[int, int, int, int], float]


def _build_singlet(N: int) -> _FockVector:
    """Sparse four-mode Fock vector of the 2N-photon singlet.

    Keys are occupations (aH, aV, bH, bV); the amplitude on
    |n, N-n>_a |N-n, n>_b is (-1)^n / sqrt(N+1).
    """
    if N < 0:
        raise ValueError(f"photon number per beam must be nonnegative, got {N}")
    if N > MAX_ORACLE_PHOTON_NUMBER:
        raise ValueError(f"oracle supports N <= {MAX_ORACLE_PHOTON_NUMBER}, got {N}")
    norm = 1.0 / math.sqrt(N + 1)
    return {(n, N - n, N - n, n): (-norm if n % 2 else norm) for n in range(N + 1)}


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


def _overlap(state: _FockVector, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Inner products of ``state`` with every pair of Alice's and Bob's states.

    Entry (n, m) sums amp * alice[n, a_H] * bob[m, b_H] over the entries of
    ``state``: one matrix product over its H occupations, batched over any
    leading (broadcast) axes of the two stacks of states.
    """
    keys = np.array(list(state))
    amps = np.fromiter(state.values(), dtype=float, count=len(state))
    return (alice[..., keys[:, 0]] * amps) @ np.swapaxes(bob[..., keys[:, 2]], -1, -2)


def _oracle_amplitudes(
    N: int, theta: float | Sequence[float], theta_alice: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Signed (N+1) x (N+1) overlap table of the singlet, by brute force.

    Entry (n, m) projects the 2N-photon singlet onto
    |n_{H+theta_alice}, (N-n)_{V+theta_alice}>_a together with
    |(N-m)_{H+theta}, m_{V+theta}>_b.  Each observer's N+1 rotated number
    states are expanded once, as one matrix, and paired with every state of
    the other observer.  A nonzero theta_alice checks that joint statistics
    depend on the polarizer angles only through their difference.

    ``theta`` and ``theta_alice`` may be arrays of angles that broadcast
    together; the result then stacks one table per angle pair, each bitwise
    the table of that pair alone.
    """
    state = _build_singlet(N)
    alice = _rotated_number_states(N, theta_alice)
    bob = _rotated_number_states(N, theta)[..., ::-1, :]
    return _overlap(state, alice, bob)


def oracle_joint_distribution(
    N: int, theta: float | Sequence[float], theta_alice: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Full (N+1) x (N+1) joint count table: the square of ``_oracle_amplitudes``.

    Like it, takes arrays of angles and returns one table per angle pair.
    """
    return _oracle_amplitudes(N, theta, theta_alice) ** 2


def _detect(rng: np.random.Generator, groups: np.ndarray, photons: int, eta: float) -> np.ndarray:
    """Detection-count histograms of groups of samples that each see ``photons``.

    ``groups`` holds sample counts of any shape; the result appends an axis of
    length ``photons + 1`` whose entry j counts the samples of that group with
    j detections.  Photons are resolved one at a time: of the samples with j
    detections so far, Binomial(count, eta) detect the next one and move to
    j + 1, so each sample ends with a Binomial(photons, eta) count.
    """
    h = np.zeros(groups.shape + (photons + 1,), dtype=np.int64)
    h[..., 0] = groups
    for k in range(photons):
        hit = rng.binomial(h[..., : k + 1], eta)
        h[..., : k + 1] -= hit
        h[..., 1 : k + 2] += hit
    return h


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
    cells of ``dist`` (normalized by its mass).  The k samples of cell (n, m)
    then lose Alice's n photons one at a time, one binomial draw per photon
    for each group of samples with the same detections so far, and Bob's m
    photons the same way inside each of Alice's groups; that fills the
    cell's (n+1) x (m+1) block of counts.  Each sample thus gets independent
    Binomial(n, eta), Binomial(m, eta) counts, as if drawn one by one, at a
    cost that does not depend on ``samples``.  The output is rescaled by the
    input's mass, the sum of its table, so it estimates the same table that
    the exact channel produces.  Deterministic for a fixed seed.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency must lie in [0, 1], got {eta}")
    samples = operator.index(samples)
    if not 1 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(f"samples must lie in [1, {MAX_MC_SAMPLES}], got {samples}")
    flat = dist.probs.ravel()
    if not np.all(flat >= 0.0):
        raise ValueError("probabilities must be nonnegative and not NaN")
    mass = dist.mass
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    size = dist.max_count + 1
    cells = rng.multinomial(samples, flat / mass)
    counts = np.zeros((size, size), dtype=np.int64)
    for cell in np.flatnonzero(cells):
        n, m = divmod(int(cell), size)
        alice = _detect(rng, cells[cell], n, eta)
        counts[: n + 1, : m + 1] += _detect(rng, alice, m, eta)
    return JointCountDistribution(counts * (mass / samples))
