"""Brute-force oracle tests: Fock amplitudes, rotations, Monte-Carlo loss."""

import ast
import itertools
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svbell.loss import binomial_thin
from svbell.oracle import (
    _expansion,
    _oracle_amplitudes,
    _rotated_number_states,
    l1_deviation_bound,
    mc_thin,
    oracle_joint_distribution,
)
from svbell import oracle, singlet
from svbell.singlet import JointCountDistribution, joint_distribution

ANGLE_GRID = [0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
# Both polarizers turned: (Alice's angle, Bob's angle).
SHARED_ROTATIONS = [(0.3, 0.75), (0.2, 1.5), (math.pi / 16, 3 * math.pi / 16), (1.1, 1.1)]


@pytest.mark.parametrize("call", [_oracle_amplitudes, oracle_joint_distribution])
def test_oracle_checks_the_photon_number(call):
    with pytest.raises(ValueError, match="oracle supports N <= 10, got 11"):
        call(11, 0.3)
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        call(-1, 0.3)
    with pytest.raises(TypeError):
        call(2.5, 0.3)
    # numpy integers are integers.
    assert np.array_equal(call(np.int64(2), 0.3), call(2, 0.3))


def test_oracle_takes_only_the_table_type_from_svbell():
    # The oracle checks the closed forms, so it may share no code with them:
    # from the rest of svbell it imports the result type and nothing else.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("svbell")):
            imported |= {(node.level, node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("svbell") for alias in node.names)
    assert imported == {(1, "singlet", "JointCountDistribution")}


def test_rotated_projection_two_photon_hand_values():
    theta = 0.61
    # |1_{H+t}, 0> = cos t |1,0> + sin t |0,1>; overlap picks the +1/sqrt(2) term.
    amps = _oracle_amplitudes(1, theta)
    assert amps[0, 0] == pytest.approx(math.cos(theta) / math.sqrt(2.0), abs=1e-14)
    assert amps[0, 1] == pytest.approx(-math.sin(theta) / math.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize("N", range(11))
def test_identity_rotation_recovers_fock_coefficients(N):
    # The singlet's amplitudes: sign (-1)^n, support on n = m, unit norm.
    amps = _oracle_amplitudes(N, 0.0)
    for n in range(N + 1):
        for m in range(N + 1):
            expected = ((-1.0) ** n) / math.sqrt(N + 1) if m == n else 0.0
            assert amps[n, m] == pytest.approx(expected, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(0, 10), phi=st.floats(allow_nan=False, allow_infinity=False))
def test_rotated_number_states_are_orthogonal(N, phi):
    states = _rotated_number_states(N, phi)
    assert np.max(np.abs(states @ states.T - np.eye(N + 1))) <= 1e-12


@pytest.mark.parametrize("N", range(11))
def test_rotated_number_states_at_zero_angle_are_the_identity(N):
    assert np.array_equal(_rotated_number_states(N, 0.0), np.eye(N + 1))


def test_expansion_is_built_once_per_photon_number_and_read_only():
    _expansion.cache_clear()
    for theta_a, theta_b in SHARED_ROTATIONS:
        _oracle_amplitudes(5, theta_b, theta_a)
    # One lookup per call: both observers' angles are expanded together.
    assert (_expansion.cache_info().hits, _expansion.cache_info().misses) == (3, 1)
    weights = _expansion(5)
    assert weights.shape == (6, 36)
    with pytest.raises(ValueError):
        weights[0, 0] = 0


@pytest.mark.parametrize("N", range(11))
def test_expansion_gives_every_term_a_cell_of_its_own(N):
    # Rotated state j has (j + 1) (N - j + 1) terms (p, q); two sharing a
    # cell would leave fewer nonzero entries.
    terms = sum((j + 1) * (N - j + 1) for j in range(N + 1))
    assert np.count_nonzero(_expansion(N)) == terms


# Any finite angle, with the grid's ends (where cos or sin is exactly 0 or 1) often.
_ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(N=st.integers(0, 10), thetas=st.lists(_ANGLES, min_size=1, max_size=40), data=st.data())
def test_stacked_oracle_slices_equal_scalar_calls(N, thetas, data):
    # theta_alice is one angle for the whole stack or one angle per table.
    theta_alice = data.draw(
        st.one_of(_ANGLES, st.lists(_ANGLES, min_size=len(thetas), max_size=len(thetas)))
    )
    alices = theta_alice if isinstance(theta_alice, list) else [theta_alice] * len(thetas)
    stacked = _oracle_amplitudes(N, thetas, theta_alice)
    assert stacked.shape == (len(thetas), N + 1, N + 1)
    for table, theta, theta_a in zip(stacked, thetas, alices):
        scalar = _oracle_amplitudes(N, theta, theta_a)
        assert scalar.shape == (N + 1, N + 1)
        assert np.array_equal(table, scalar)
    assert np.array_equal(oracle_joint_distribution(N, thetas, theta_alice), stacked**2)
    # The other direction: Alice's stack against one Bob angle.
    flipped = _oracle_amplitudes(N, thetas[0], thetas)
    assert flipped.shape == (len(thetas), N + 1, N + 1)
    for table, theta_a in zip(flipped, thetas):
        assert np.array_equal(table, _oracle_amplitudes(N, thetas[0], theta_a))


def _uncached_amplitudes(N, theta, theta_alice=0.0):
    """``_oracle_amplitudes`` as the monomial formula, each angle's powers taken afresh."""
    angles = np.asarray(np.broadcast_arrays(theta_alice, theta), dtype=float)
    flat = angles.ravel().tolist()
    cos = np.array([math.cos(angle) for angle in flat])[:, None, None]
    sin = np.array([math.sin(angle) for angle in flat])[:, None, None]
    a = np.arange(N + 1)
    alice, bob = ((cos**a * sin ** (N - a)) @ _expansion(N)).reshape(angles.shape + (N + 1, N + 1))
    norm = 1.0 / math.sqrt(N + 1)
    amps = np.where(np.arange(N + 1) % 2, -norm, norm)
    return (alice * amps) @ np.swapaxes(bob[..., ::-1, ::-1], -1, -2)


def _same_bits(x, y):
    # uint64 views: -0.0 and 0.0 differ, and so would two NaNs of other payloads.
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


# Signed zeros too: the cache keys on the angles' bytes, so 0.0 and -0.0 stay apart.
_SIGNED_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2]), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=100, deadline=None)
@given(N=st.integers(0, 10), data=st.data())
def test_cached_angle_powers_give_the_uncached_formulas_bits(N, data):
    stack = st.lists(_SIGNED_ANGLES, min_size=1, max_size=12)
    theta = data.draw(st.one_of(_SIGNED_ANGLES, stack))
    size = len(theta) if isinstance(theta, list) else 1
    theta_alice = data.draw(
        st.one_of(_SIGNED_ANGLES, st.lists(_SIGNED_ANGLES, min_size=size, max_size=size))
    )
    expected = _uncached_amplitudes(N, theta, theta_alice)
    # The first call may build the angle set's powers; the second reads them.
    for _ in range(2):
        assert _same_bits(_oracle_amplitudes(N, theta, theta_alice), expected)
        assert _same_bits(oracle_joint_distribution(N, theta, theta_alice), expected**2)
    # Another N reads the same cached powers.
    other = data.draw(st.integers(0, 10))
    assert _same_bits(_oracle_amplitudes(other, theta, theta_alice), _uncached_amplitudes(other, theta, theta_alice))


def test_angle_powers_are_cached_read_only_per_angle_set():
    # One set at a time: verify reads the same set for every N.
    assert oracle._angle_powers.cache_info().maxsize == 1
    oracle._angle_powers.cache_clear()
    _oracle_amplitudes(3, [0.0, 0.4], [-0.0, 0.1])
    cos, sin = oracle._angle_powers(np.array([[-0.0, 0.1], [0.0, 0.4]]).tobytes())
    info = oracle._angle_powers.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert cos.shape == sin.shape == (4, 1, 11)
    assert np.signbit(sin[0, 0, 1]) and not np.signbit(sin[2, 0, 1])
    for table in (cos, sin):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2.0


def test_a_large_angle_set_is_one_cache_entry_until_the_next_set():
    oracle._angle_powers.cache_clear()
    theta = np.linspace(0.0, math.pi, 64)
    amplitudes = _oracle_amplitudes(2, theta, 0.0)  # 2 x 64 angles
    info = oracle._angle_powers.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
    cos, sin = oracle._angle_powers(np.asarray(np.broadcast_arrays(0.0, theta)).tobytes())
    assert cos.shape == sin.shape == (128, 1, 11)
    assert not cos.flags.writeable and not sin.flags.writeable
    assert _same_bits(amplitudes, _uncached_amplitudes(2, theta, 0.0))
    # verify's 18 angles replace the set: one entry at a time.
    _oracle_amplitudes(2, theta[:9], theta[9:18])
    info = oracle._angle_powers.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 1)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_oracle_rejects_angles_that_are_not_finite(angle):
    oracle._angle_powers.cache_clear()
    # A raise is not cached: a repeat raises again.
    for _ in range(2):
        for call in (_oracle_amplitudes, oracle_joint_distribution):
            for theta, theta_alice in [(angle, 0.0), ([0.1, angle], 0.0), (0.1, angle), (0.1, [0.2, angle])]:
                with pytest.raises(ValueError, match=f"finite, got {angle}"):
                    call(2, theta, theta_alice)
    assert oracle._angle_powers.cache_info().currsize == 0


@pytest.mark.parametrize("N", [0, 4])
def test_stacked_rotated_number_states_keep_the_angle_shape(N):
    assert _rotated_number_states(N, 0.3).shape == (N + 1, N + 1)
    assert _rotated_number_states(N, []).shape == (0, N + 1, N + 1)
    grid = np.array(ANGLE_GRID).reshape(2, 3)
    stacked = _rotated_number_states(N, grid)
    assert stacked.shape == (2, 3, N + 1, N + 1)
    assert np.array_equal(stacked[1, 2], _rotated_number_states(N, math.pi / 2))


@pytest.mark.parametrize("N", range(9))
@pytest.mark.parametrize("theta", ANGLE_GRID)
def test_oracle_matches_closed_form(N, theta):
    closed = joint_distribution(N, theta).probs
    brute = oracle_joint_distribution(N, theta)
    assert np.max(np.abs(closed - brute)) <= 1e-10


@pytest.mark.parametrize("N", range(7))
@pytest.mark.parametrize("theta_a,theta_b", SHARED_ROTATIONS)
def test_joint_statistics_depend_only_on_relative_angle(N, theta_a, theta_b):
    absolute = oracle_joint_distribution(N, theta_b, theta_a)
    relative = joint_distribution(N, theta_b - theta_a).probs
    assert np.max(np.abs(absolute - relative)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(0, 6),
    theta_a=st.floats(-math.pi, math.pi),
    relative=st.floats(0.0, math.pi / 2),
)
def test_joint_statistics_depend_only_on_relative_angle_property(N, theta_a, relative):
    theta_b = theta_a + relative
    # Rounding can push the difference just outside the closed form's range.
    assume(0.0 <= theta_b - theta_a <= math.pi / 2)
    absolute = oracle_joint_distribution(N, theta_b, theta_a)
    relative_table = joint_distribution(N, theta_b - theta_a).probs
    assert np.max(np.abs(absolute - relative_table)) <= 1e-10


def test_amplitude_level_agreement():
    # Not just probabilities: signs of the two independent paths agree too,
    # wherever the amplitude is not zero to rounding: at relative angles 0,
    # pi/4 and pi/2 some cells vanish, and either path may round them to a
    # value near 1e-16 of either sign.  The closed form is (-1)^m D_N / sqrt(N+1),
    # built from the D the singlet module steps on.
    for N in range(11):
        signs = (-1.0) ** np.arange(N + 1) / math.sqrt(N + 1)
        for theta_a, theta_b in [(0.0, theta) for theta in ANGLE_GRID + [0.37]] + SHARED_ROTATIONS:
            closed = singlet._rotation(N, theta_b - theta_a)[0] * signs
            brute = _oracle_amplitudes(N, theta_b, theta_a)
            assert np.max(np.abs(closed - brute)) <= 1e-12, (N, theta_a, theta_b)
            nonzero = np.abs(closed) > 1e-12
            assert np.array_equal(np.sign(closed[nonzero]), np.sign(brute[nonzero])), (N, theta_a, theta_b)


def _delta_distribution(n, m, size):
    probs = np.zeros((size, size))
    probs[n, m] = 1.0
    return JointCountDistribution(probs)


def test_mc_thin_deterministic():
    dist = joint_distribution(2, math.pi / 8)
    first = mc_thin(dist, 0.7, 10_000, seed=99)
    second = mc_thin(dist, 0.7, 10_000, seed=99)
    assert np.array_equal(first.probs, second.probs)
    third = mc_thin(dist, 0.7, 10_000, seed=100)
    assert not np.array_equal(first.probs, third.probs)


def test_mc_thin_without_loss_reproduces_distribution():
    dist = joint_distribution(3, math.pi / 8)
    samples = 250_000
    empirical = mc_thin(dist, 1.0, samples, seed=5)
    assert np.max(np.abs(empirical.probs - dist.probs)) <= 4.0 / math.sqrt(samples)


def test_mc_thin_marginal_is_binomial():
    samples = 10**10
    empirical = mc_thin(_delta_distribution(3, 3, 4), 0.5, samples, seed=21)
    marginal = empirical.probs.sum(axis=1)
    expected = np.array([math.comb(3, k) for k in range(4)]) / 8
    # Alice's counts are samples i.i.d. draws over 4 cells: a correct sampler
    # fails with probability at most alpha = 1e-3 at any seed.
    assert np.abs(marginal - expected).sum() < l1_deviation_bound(4, samples, 1e-3)


def test_mc_thin_joint_histogram_is_a_product_of_binomials():
    samples = 10**10
    dist = _delta_distribution(3, 2, 5)
    empirical = mc_thin(dist, 0.5, samples, seed=23)
    counts = empirical.probs * samples / dist.mass
    assert np.all(np.abs(counts - np.rint(counts)) <= 1e-6)
    assert np.rint(counts).sum() == samples
    # Outside Alice's 0..3 and Bob's 0..2 nothing may land.
    assert np.all(empirical.probs[4:, :] == 0.0)
    assert np.all(empirical.probs[:, 3:] == 0.0)
    expected = np.outer(
        [math.comb(3, k) / 8 for k in range(4)], [math.comb(2, k) / 4 for k in range(3)]
    )
    # L1 deviation bound over the 12 support cells: a correct sampler fails
    # with probability at most alpha = 1e-3 at any seed.
    l1 = np.abs(empirical.probs[:4, :3] - expected).sum()
    assert l1 < l1_deviation_bound(expected.size, samples, 1e-3)


@pytest.mark.parametrize("N,eta,seed", [
    (1, 0.5, 31),
    (1, 0.83, 32),
    (1, 0.95, 33),
    (4, 0.5, 11),
    (4, 0.83, 34),
    (4, 0.95, 12),
    (30, 0.83, 35),
    (60, 0.83, 36),
])
def test_mc_thin_matches_exact_channel(N, eta, seed):
    dist = joint_distribution(N, math.pi / 8)
    samples = 10**10
    exact = binomial_thin(dist, eta)
    empirical = mc_thin(dist, eta, samples, seed=seed)
    # A correct sampler fails with probability at most alpha = 1e-3 at any seed.
    l1 = np.abs(empirical.probs - exact.probs).sum()
    assert l1 < l1_deviation_bound(exact.probs.size, samples, 1e-3)
    # Cells outside the thinned support must be exactly empty.
    assert np.all(empirical.probs[exact.probs == 0.0] == 0.0)


@pytest.mark.parametrize("cells,samples,alpha", [(1, 1, 0.5), (4, 10, 1e-3), (16, 10**10, 5e-4), (25, 10**6, 1e-9)])
def test_l1_deviation_bound_solves_the_weissman_inequality(cells, samples, alpha):
    # (2^k - 2) exp(-n eps^2 / 2) <= alpha, with equality when 2^k replaces 2^k - 2.
    eps = l1_deviation_bound(cells, samples, alpha)
    assert 2.0**cells * math.exp(-samples * eps**2 / 2.0) == pytest.approx(alpha, rel=1e-9)
    assert (2.0**cells - 2.0) * math.exp(-samples * eps**2 / 2.0) <= alpha
    # numpy integers are integers.
    assert l1_deviation_bound(np.int64(cells), np.int64(samples), alpha) == eps


@pytest.mark.parametrize(
    "cells,samples,alpha",
    [(0, 10, 1e-3), (4, 0, 1e-3), (4, 10, 0.0), (4, 10, 1.0), (4, 10, 2.0), (4, 10, math.nan)]
    + [(bad, 10, 1e-3) for bad in (math.nan, math.inf, 2.5)]
    + [(4, bad, 1e-3) for bad in (math.nan, math.inf, 2.5)],
)
def test_l1_deviation_bound_validates_arguments(cells, samples, alpha):
    # A count that is not an integer raises TypeError: a NaN count made the
    # radius NaN, and an infinite one made it infinite or 0, which fail or
    # pass every table.
    counts_are_ints = isinstance(cells, int) and isinstance(samples, int)
    with pytest.raises(ValueError if counts_are_ints else TypeError):
        l1_deviation_bound(cells, samples, alpha)


def test_mc_thin_validates_arguments():
    dist = joint_distribution(1, 0.0)
    with pytest.raises(ValueError):
        mc_thin(dist, 1.5, 100, seed=0)
    with pytest.raises(ValueError):
        mc_thin(dist, 0.5, 0, seed=0)
    with pytest.raises(ValueError):
        mc_thin(dist, 0.5, 2**63, seed=0)
    # A fractional sample count: the rescale would divide by 10.5 counts
    # that are not whole.  numpy integers stay valid.
    with pytest.raises(TypeError):
        mc_thin(dist, 0.5, 10.5, seed=0)
    assert mc_thin(dist, 0.5, np.int64(10), seed=0).mass == pytest.approx(1.0)
    assert np.array_equal(mc_thin(dist, 0.5, 100, seed=np.int64(4)).probs, mc_thin(dist, 0.5, 100, seed=4).probs)
    # A negative entry (the table still sums to 1); a NaN entry, named as
    # such before its NaN mass is.
    invalid = ([[0.6, -0.1], [0.0, 0.5]], [[0.6, math.nan], [0.0, 0.4]])
    for probs in invalid:
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            mc_thin(JointCountDistribution(np.array(probs)), 0.5, 100, seed=0)
    # A table whose mass is not positive and finite: no division by it.
    for probs in ([[0.0, 0.0], [0.0, 0.0]], [[math.inf, 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="positive and finite"):
            mc_thin(JointCountDistribution(np.array(probs)), 0.5, 100, seed=0)


def _thinned_support(probs, eta):
    """Cells that Bernoulli(eta) loss can reach from the nonzero cells of probs."""
    support = probs > 0.0
    if eta == 0.0:
        reach = np.zeros_like(support)
        reach[0, 0] = support.any()
        return reach
    if eta == 1.0:
        return support
    # (a, b) is reachable when some (n, m) >= (a, b) holds mass.
    return np.flip(np.logical_or.accumulate(np.logical_or.accumulate(support[::-1, ::-1], 0), 1), (0, 1))


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(0, 30),
    theta=st.floats(0.0, math.pi / 2),
    eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    samples=st.integers(1, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_thin_counts_stay_on_the_thinned_support(N, theta, eta, samples, seed):
    dist = joint_distribution(N, theta)
    empirical = mc_thin(dist, eta, samples, seed=seed)
    counts = empirical.probs * (samples / dist.mass)
    assert np.all(np.abs(counts - np.rint(counts)) <= 1e-6)
    assert np.rint(counts).sum() == samples
    assert np.all(empirical.probs[~_thinned_support(dist.probs, eta)] == 0.0)
    if eta == 0.0:
        assert empirical.probs[0, 0] == pytest.approx(dist.mass, rel=1e-12)
    if eta == 1.0:
        # Without loss every sample stays in its cell; a cell expecting 50 or
        # more samples is missed with probability below e^-50.
        assert np.all(empirical.probs[dist.probs * samples >= 50.0] > 0.0)


def test_mc_thin_cost_does_not_grow_with_the_samples():
    # A sampler that draws per sample cannot even allocate 2^62 results.
    dist = joint_distribution(3, math.pi / 8)
    samples = 2**62
    empirical = mc_thin(dist, 0.83, samples, seed=7)
    counts = empirical.probs * (samples / dist.mass)
    assert counts.sum() == pytest.approx(samples, rel=1e-12)


@pytest.mark.parametrize("N", [0, 3, 30, 60])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_mc_thin_draws_once_per_photon_for_the_whole_table(monkeypatch, N, eta):
    # The draws are bounded by the table's size, not by the number of
    # samples: conditional binomials over all cells but the last, then one
    # binomial per photon of each group of each pass, at most
    # (k^2 - 1) + k^2 (k - 1) draws for a k x k table.  Empty cells and
    # groups draw nothing.
    binomial = oracle._binomial
    calls = []

    def counted(rng, n, p):
        calls.append(n)
        return binomial(rng, n, p)

    monkeypatch.setattr(oracle, "_binomial", counted)
    dist = joint_distribution(N, math.pi / 8)
    k = dist.max_count + 1
    for samples in (10**6, 2**62):
        calls.clear()
        mc_thin(dist, eta, samples, seed=3)
        assert len(calls) <= (k**2 - 1) + k**2 * (k - 1)
        assert 0 not in calls


def test_mc_thin_rejects_a_stack_before_any_draw(monkeypatch):
    # A leading axis stacks tables; the sampler takes one table.
    def no_draw(rng, n, p):
        raise AssertionError("mc_thin drew before rejecting its input")

    monkeypatch.setattr(oracle, "_binomial", no_draw)
    stack = JointCountDistribution(np.stack([joint_distribution(3, 0.3).probs] * 2))
    with pytest.raises(ValueError, match=r"one table, got probabilities of shape \(2, 4, 4\)"):
        mc_thin(stack, 0.5, 100, seed=0)


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError), ("1", TypeError)])
def test_mc_thin_takes_a_nonnegative_integer_seed_before_any_draw(monkeypatch, seed, error):
    # random.Random would seed -s like s and take a float or a str.
    def no_draw(rng, n, p):
        raise AssertionError("mc_thin drew before rejecting its seed")

    monkeypatch.setattr(oracle, "_binomial", no_draw)
    with pytest.raises(error):
        mc_thin(joint_distribution(3, 0.3), 0.5, 100, seed=seed)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_binomial_of_no_trials_is_zero(p):
    assert oracle._binomial(random.Random(1), 0, p) == 0


@pytest.mark.parametrize("n", [1, 7, 1000, 2**63 - 1])
def test_binomial_at_certain_outcomes_is_exact(n):
    rng = random.Random(2)
    assert oracle._binomial(rng, n, 0.0) == 0
    assert oracle._binomial(rng, n, 1.0) == n


@pytest.mark.parametrize("n,p", [(20, 0.75), (40, 0.875), (10**6, 0.625)])
def test_binomial_above_one_half_draws_the_failures(n, p):
    # 1 - p is exact for these p, so both draws read the same stream.
    for seed in range(20):
        assert oracle._binomial(random.Random(seed), n, p) == n - oracle._binomial(random.Random(seed), n, 1.0 - p)


@pytest.mark.parametrize("n", [1, 10**6, 2**63 - 1])
@pytest.mark.parametrize("p", [8.5e-315, 5e-324])
def test_binomial_at_a_subnormal_p_draws_no_success(n, p):
    # Each gap is log(u) / log1p(-p), far past any int: the draw ends at once.
    rng = random.Random(3)
    assert all(oracle._binomial(rng, n, p) == 0 for _ in range(100))
    assert all(oracle._binomial(rng, n, 1.0 - p) == n for _ in range(100))


@pytest.mark.parametrize("p", [1e-19, 0.25, 0.5, 0.75, 1.0 - 1e-16])
def test_binomial_of_the_largest_sample_count_is_an_int_in_range(p):
    n = 2**63 - 1
    rng = random.Random(4)
    for _ in range(200):
        k = oracle._binomial(rng, n, p)
        assert type(k) is int and 0 <= k <= n


@pytest.mark.parametrize("n,p", [(1000, 0.3), (10**12, 0.7), (2**63 - 1, 0.5)])
def test_btrs_redraws_at_the_pole_of_its_hat(n, p):
    # random() = 0 puts u at -1/2, where the hat a / us^2 has its pole: the
    # draw is discarded, and the rest of the stream gives Random(5)'s draw.
    rng = random.Random(5)
    stream = itertools.chain([0.0], iter(random.Random(5).random, None))
    stub = types.SimpleNamespace(random=stream.__next__)
    assert oracle._binomial(stub, n, p) == oracle._binomial(rng, n, p)
    assert stub.random() == rng.random()  # the pole cost one draw, no more


@pytest.mark.parametrize("n,p", [(34, 0.3), (1000, 0.5), (10**5, 0.01), (10**5, 0.3)])
def test_log_pmf_ratio_matches_lgamma_where_lgamma_is_exact(n, p):
    m = math.floor((n + 1) * p)
    lpq = math.log(p / (1.0 - p))
    for k in sorted({0, 1, 2, 9, 10, m - 1, m, m + 1, n // 2, n - 10, n - 1, n}):
        exact = math.lgamma(m + 1) + math.lgamma(n - m + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        exact += (k - m) * lpq
        assert oracle._log_pmf_ratio(n, p, k, m) == pytest.approx(exact, rel=1e-9, abs=1e-9), k


@pytest.mark.parametrize("p", [1e-6, 0.5])
def test_binomial_of_the_largest_sample_count_is_normal(p):
    # At n = 2^63 - 1 the binomial is normal to about 1e-9.  Differences of
    # lgamma in BTRS's acceptance test put about 0.035 (p = 1e-6) to 0.15
    # (p = 1/2) of L1 between these bins and the normal's.
    n, draws = 2**63 - 1, 10**5
    sd = math.sqrt(n * p * (1.0 - p))
    rng = random.Random(5)
    scores = [(oracle._binomial(rng, n, p) - n * p) / sd for _ in range(draws)]
    edges = [-math.inf, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, math.inf]
    histogram = np.histogram(scores, bins=edges)[0] / draws
    normal = np.diff([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in edges])
    # A correct sampler fails with probability at most alpha = 1e-3.
    assert np.abs(histogram - normal).sum() < l1_deviation_bound(len(normal), draws, 1e-3)


@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("n", [33, 34])
def test_binomial_histogram_matches_the_pmf(n, p):
    # n min(p, 1 - p) is 9.9 at n = 33 (geometric method) and 10.2 at n = 34 (BTRS).
    draws = 10**5
    rng = random.Random(1000 * n + int(10 * p))
    histogram = np.bincount([oracle._binomial(rng, n, p) for _ in range(draws)], minlength=n + 1)
    pmf = np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
    # A correct sampler fails with probability at most alpha = 1e-3.
    assert np.abs(histogram / draws - pmf).sum() < l1_deviation_bound(n + 1, draws, 1e-3)
