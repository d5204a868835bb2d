"""Closed-form singlet statistics against hand-derived tables and the oracle."""

import dataclasses
import gc
import math
import sys
import threading
import weakref
from contextlib import contextmanager
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresh_rotation import fresh_rotation, fresh_rotations, reflected_rotation
from gaussian_series import kept_mixture
from svbell import singlet
from svbell.chain import BellBreakdown, asymptotic_bell_fixed_N, bell_fixed_N, make_chain
from svbell.loss import _thinning_matrix, binomial_thin
from svbell.oracle import mc_thin, oracle_joint_distribution
from svbell.singlet import (
    MAX_PHOTON_NUMBER,
    JointCountDistribution,
    _DISTANCES,
    joint_distribution,
    mean_abs_difference,
)
from svbell.sv import SVSpec, count_table, lambda_sq

HALF_PI = 0.5 * math.pi


def signed_amplitudes(N, theta):
    """A_N(n, m | theta) = (-1)^m D_N(theta)[n, m] / sqrt(N+1), from the D the cached step keeps."""
    return singlet._rotation(N, theta)[0] * (-1.0) ** np.arange(N + 1) / math.sqrt(N + 1)


def test_two_photon_amplitudes_closed_form():
    theta = 0.37
    amp = signed_amplitudes(1, theta)[0, 0]
    assert amp > 0.0
    assert amp == pytest.approx(math.cos(theta) / math.sqrt(2), rel=1e-14)
    assert amp**2 == pytest.approx(math.cos(theta) ** 2 / 2, rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 5, 10, 30, 60])
def test_diagonal_amplitude_at_zero_angle(N):
    amps = signed_amplitudes(N, 0.0)
    for n in [0, N // 2, N]:
        assert amps[n, n] ** 2 == pytest.approx(1.0 / (N + 1), rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 5, 10, 30, 60])
def test_antidiagonal_amplitude_at_right_angle(N):
    amps = signed_amplitudes(N, HALF_PI)
    for n in [0, N // 2, N]:
        assert amps[n, N - n] ** 2 == pytest.approx(1.0 / (N + 1), rel=1e-12)


def test_range_and_argument_errors():
    with pytest.raises(ValueError, match="exceeds supported range"):
        joint_distribution(61, 0.1)
    with pytest.raises(ValueError):
        joint_distribution(2, -0.1)
    with pytest.raises(ValueError):
        joint_distribution(2, HALF_PI + 1e-6)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda N: joint_distribution(N, 0.3).probs,
        lambda N: lambda_sq(N, 0.5),
        asymptotic_bell_fixed_N,
        lambda N: bell_fixed_N(N, make_chain(3), 0.9).bell,
        lambda N: _thinning_matrix(N, 0.5),
    ],
    ids=["joint_distribution", "lambda_sq", "asymptotic_bell_fixed_N", "bell_fixed_N", "thinning_matrix"],
)
def test_photon_numbers_must_be_integers(evaluate):
    # No half-integer N may reach _rotation's recursion, a power of tanh or a range().
    with pytest.raises(TypeError):
        evaluate(1.5)
    assert np.array_equal(evaluate(np.int64(3)), evaluate(3))
    # One range for every entry point: the count tables' 0 <= N <= MAX_PHOTON_NUMBER.
    evaluate(MAX_PHOTON_NUMBER)
    with pytest.raises(ValueError, match=r"^photon number per beam 61 exceeds supported range N <= 60$"):
        evaluate(MAX_PHOTON_NUMBER + 1)
    with pytest.raises(ValueError, match=r"^photon number per beam must be nonnegative, got -1$"):
        evaluate(-1)


def test_cached_tables_are_frozen():
    dist = joint_distribution(2, 0.3)
    with pytest.raises(ValueError):
        dist.probs[0, 0] = 5.0
    with pytest.raises(ValueError):
        singlet._rotation(2, 0.3)[0][0, 0] = 5.0
    assert abs(joint_distribution(2, 0.3).mass - 1.0) <= 1e-12
    # The whole table, mass included, is built once and shared.
    assert joint_distribution(2, 0.3) is dist
    with pytest.raises(ValueError):
        _DISTANCES[0, 1] = 7


MAX_PAIRS = singlet._rotation.cache_info().maxsize
BUILD_PAIR = singlet._rotation.__wrapped__  # one step, uncached


@contextmanager
def empty_rotation_cache(maxsize=MAX_PAIRS, build=BUILD_PAIR):
    # The step looks _rotation up as a module global, so it recurses through
    # this cache.
    with patch.object(singlet, "_rotation", lru_cache(maxsize)(build)) as rotation:
        yield rotation


@settings(max_examples=60, deadline=None)
@given(
    requests=st.lists(
        st.tuples(
            st.integers(0, MAX_PHOTON_NUMBER),
            st.one_of(st.sampled_from([0.0, HALF_PI, 0.3, 1.1]), st.floats(0.0, HALF_PI)),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    order=st.sampled_from(["as drawn", "increasing N", "decreasing N"]),
    max_pairs=st.sampled_from([8, 30, MAX_PAIRS]),
)
def test_rotation_cache_tables_are_the_fresh_tables(requests, order, max_pairs):
    # Any order of (N, theta) requests, with pairs dropped and rebuilt under
    # a small cache, gives the table a from-scratch build gives.
    if order != "as drawn":
        requests.sort(key=lambda r: r[0], reverse=order == "decreasing N")
    with empty_rotation_cache(max_pairs) as rotation:
        for N, theta, signed in requests:
            d = fresh_rotation(N, theta)
            if signed:  # D's bits feed every later step
                assert np.array_equal(singlet._rotation(N, theta)[0], d)
                continue
            dist = joint_distribution(N, theta)
            assert np.array_equal(dist.probs, d**2 / (N + 1))
            assert dist.mass == float(dist.probs.sum())
            assert not dist.probs.flags.writeable
            assert joint_distribution(N, theta) is dist
        assert rotation.cache_info().currsize <= max_pairs


def test_rotation_cache_is_bounded():
    # Tables at more angles than fit hold no more than one ladder's pairs
    # (D and table alike) of N = 60: every pair the cache let go is freed.
    held = []

    def recorded(N, theta):
        d, table = BUILD_PAIR(N, theta)
        held.extend([weakref.ref(d), weakref.ref(table.probs)])
        return d, table

    thetas = [float(t) for t in np.linspace(0.1, 1.4, 30)]
    with empty_rotation_cache(build=recorded) as rotation:
        for theta in thetas:
            joint_distribution(MAX_PHOTON_NUMBER, theta)
        gc.collect()
        live = [array for array in (ref() for ref in held) if array is not None]
        assert len(live) == 2 * rotation.cache_info().currsize <= 2 * MAX_PAIRS
        assert MAX_PAIRS == MAX_PHOTON_NUMBER + 1
        # Worst case: every kept pair is two 61 x 61 float arrays, 3.6 MB.
        bound = 2 * MAX_PAIRS * (MAX_PHOTON_NUMBER + 1) ** 2 * 8
        assert sum(array.nbytes for array in live) <= bound
        assert max(array.nbytes for array in live) == (MAX_PHOTON_NUMBER + 1) ** 2 * 8
        for theta in thetas:  # tiny tables at many angles are bounded by count
            for n in range(3):
                joint_distribution(n, theta / 7)
        assert rotation.cache_info().currsize <= MAX_PAIRS


def test_one_angle_costs_one_step_per_photon(monkeypatch):
    steps = []
    step = singlet._step

    def counted(*args):
        steps.append(args[0].shape[0] - 1)
        return step(*args)

    monkeypatch.setattr(singlet, "_step", counted)
    with empty_rotation_cache():
        for n in range(MAX_PHOTON_NUMBER + 1):
            joint_distribution(n, 0.7)
        assert steps == list(range(MAX_PHOTON_NUMBER))
        for n in reversed(range(MAX_PHOTON_NUMBER + 1)):  # all read from the cache
            joint_distribution(n, 0.7)
        assert len(steps) == MAX_PHOTON_NUMBER


# Stacks of 2-25 angles holding both endpoints, in any order.
ANGLE_STACKS = st.lists(st.floats(0.0, HALF_PI), max_size=23).flatmap(
    lambda rest: st.permutations([0.0, HALF_PI, *rest])
)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(0, MAX_PHOTON_NUMBER), thetas=ANGLE_STACKS)
@example(N=MAX_PHOTON_NUMBER, thetas=[0.0])
@example(N=MAX_PHOTON_NUMBER, thetas=[HALF_PI])
def test_stacked_steps_are_the_fresh_rotations(N, thetas):
    cos_sin = np.array([singlet._cos_sin(theta) for theta in thetas]).reshape(-1, 2, 1, 1)
    d = np.ones((len(thetas), 1, 1))
    for _ in range(N):
        d = singlet._step(d, cos_sin[:, 0], cos_sin[:, 1])
    assert d.shape == (len(thetas), N + 1, N + 1)
    for slab, theta in zip(d, thetas):
        assert np.array_equal(slab, fresh_rotation(N, theta))
        if theta in (0.0, HALF_PI):
            support = np.eye(N + 1, dtype=bool)
            support = support if theta == 0.0 else np.fliplr(support)
            assert np.all(slab[~support] == 0.0)


def same_bits(a, b):
    # np.array_equal takes -0.0 for 0.0; the uint64 view does not.
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=10, deadline=None)
@given(drawn=st.lists(st.floats(0.0, HALF_PI), max_size=4))
@example(drawn=[])
def test_steps_keep_every_bit_of_the_fresh_rotations(drawn):
    # D_N at pi/2 holds -0.0 entries, so a reordered sum would show here.
    thetas = [0.0, 0.25 * math.pi, HALF_PI, *drawn]
    cos_sin = np.array([singlet._cos_sin(theta) for theta in thetas]).reshape(-1, 2, 1, 1)
    stack = np.ones((len(thetas), 1, 1))
    singles = [np.ones((1, 1)) for _ in thetas]
    fresh = [list(fresh_rotations(MAX_PHOTON_NUMBER, theta)) for theta in thetas]
    for N in range(MAX_PHOTON_NUMBER + 1):
        if N:
            stack = singlet._step(stack, cos_sin[:, 0], cos_sin[:, 1])
            singles = [singlet._step(d, *singlet._cos_sin(t)) for d, t in zip(singles, thetas)]
        for i in range(len(thetas)):
            assert same_bits(singles[i], fresh[i][N]) and same_bits(stack[i], fresh[i][N])
    at_right_angle = fresh[2][MAX_PHOTON_NUMBER]
    assert np.any(np.signbit(at_right_angle) & (at_right_angle == 0.0))


def test_step_reads_its_input_only():
    thetas = (0.4, HALF_PI)
    cos_sin = np.array([singlet._cos_sin(theta) for theta in thetas]).reshape(-1, 2, 1, 1)
    one_angle = (fresh_rotation(7, thetas[0]), *singlet._cos_sin(thetas[0]))
    stack = (np.stack([fresh_rotation(7, t) for t in thetas]), cos_sin[:, 0], cos_sin[:, 1])
    for d, c, s in (one_angle, stack):
        before = d.copy()
        d.setflags(write=False)  # a write into d would raise
        out = singlet._step(d, c, s)
        assert same_bits(d, before)
        assert out.flags.writeable and not np.shares_memory(out, d)
        assert not any(np.shares_memory(out, array) for array in singlet._step_constants(7))


def test_step_constants_cache_is_bounded_and_frozen():
    # One entry per step n = 0..59, four read-only float arrays of n + 2
    # entries each: 32 * (2 + ... + 61) = 60,480 bytes of data in all.
    maxsize = singlet._step_constants.cache_info().maxsize
    assert maxsize == MAX_PHOTON_NUMBER
    empty = lru_cache(maxsize)(singlet._step_constants.__wrapped__)
    with patch.object(singlet, "_step_constants", empty) as constants:
        with empty_rotation_cache():
            for theta in (0.3, 1.2):
                joint_distribution(MAX_PHOTON_NUMBER, theta)
        list(singlet._stacked_tables(MAX_PHOTON_NUMBER, [0.0, 0.7, HALF_PI]))
        # The second angle and the stack step on the first angle's constants.
        assert constants.cache_info().misses == constants.cache_info().currsize == MAX_PHOTON_NUMBER
        arrays = [array for n in range(MAX_PHOTON_NUMBER) for array in constants(n)]
    assert not any(array.flags.writeable for array in arrays)
    assert sum(array.nbytes for array in arrays) == 60_480 <= 64_000


@settings(max_examples=40, deadline=None)
@given(
    max_N=st.integers(0, MAX_PHOTON_NUMBER),
    thetas=st.lists(
        st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI)), max_size=32
    ),
)
def test_stacked_table_masses_are_the_cached_tables_masses(max_N, thetas):
    stacks = list(singlet._stacked_tables(max_N, thetas))
    assert len(stacks) == max_N + 1
    for N, stack in enumerate(stacks):
        cached = [joint_distribution(N, theta) for theta in thetas]
        assert stack.shape == (len(thetas), N + 1, N + 1) and stack.flags.writeable
        assert all(same_bits(probs, table.probs) for probs, table in zip(stack, cached))
        assert not any(np.shares_memory(stack, table.probs) for table in cached)
        assert np.add.reduce(stack, axis=(-2, -1)).tolist() == [table.mass for table in cached]


def test_threads_sharing_the_rotation_cache_get_the_tables_they_ask_for():
    thetas = [0.2, 0.9, 1.3]
    expected = {(N, t): fresh_rotation(N, t) ** 2 / (N + 1) for N in range(40) for t in thetas}
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(150):
                key = (int(rng.integers(0, 40)), thetas[rng.integers(0, 3)])
                if not np.array_equal(joint_distribution(*key).probs, expected[key]):
                    wrong.append(key)
        except Exception as exc:  # reported by the assert below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with empty_rotation_cache(61):  # pairs dropped and rebuilt often
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_two_photon_table_at_pi_over_4():
    dist = joint_distribution(1, math.pi / 4)
    assert dist.probs == pytest.approx(np.full((2, 2), 0.25), abs=1e-14)


def test_six_photon_table_at_zero_angle():
    dist = joint_distribution(3, 0.0)
    assert np.diag(dist.probs) == pytest.approx(np.full(4, 0.25), abs=1e-14)
    off_diagonal = dist.probs[~np.eye(4, dtype=bool)]
    assert np.all(off_diagonal == 0.0)


def test_four_photon_table_closed_form():
    # Hand-derived 3x3 table: p(0,0)=p(2,2)=c^4/3, p(1,1)=cos(2t)^2/3,
    # p(0,2)=p(2,0)=s^4/3, all |m-n|=1 entries (2/3)s^2c^2.
    theta = math.pi / 8
    s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    expected = np.array(
        [
            [c2 * c2 / 3, 2 * s2 * c2 / 3, s2 * s2 / 3],
            [2 * s2 * c2 / 3, math.cos(2 * theta) ** 2 / 3, 2 * s2 * c2 / 3],
            [s2 * s2 / 3, 2 * s2 * c2 / 3, c2 * c2 / 3],
        ]
    )
    dist = joint_distribution(2, theta)
    assert np.max(np.abs(dist.probs - expected)) <= 1e-14
    # and the independent Fock-space route agrees entrywise
    assert np.max(np.abs(dist.probs - oracle_joint_distribution(2, theta))) <= 1e-10


@pytest.mark.parametrize("N", range(MAX_PHOTON_NUMBER + 1))
def test_normalization_over_random_angles(N):
    rng = np.random.default_rng(1000 + N)
    for theta in rng.uniform(0.0, HALF_PI, size=50):
        assert abs(joint_distribution(N, float(theta)).mass - 1.0) <= 1e-9


@pytest.mark.parametrize("N", [1, 4, 9, 15, 30, 60])
def test_support_is_exact_at_both_endpoints(N):
    at_zero = joint_distribution(N, 0.0).probs
    assert np.all(at_zero[~np.eye(N + 1, dtype=bool)] == 0.0)
    at_right_angle = joint_distribution(N, HALF_PI).probs
    anti = np.fliplr(np.eye(N + 1, dtype=bool))
    assert np.all(at_right_angle[~anti] == 0.0)
    assert at_right_angle[anti] == pytest.approx(np.full(N + 1, 1.0 / (N + 1)), rel=1e-12)


# The two rotation ladders round differently.  Over 3000 seeded angles in
# [0, pi/4] and every N <= 60, the signed D_N differ by at most 6.1e-14 and
# the count tables by at most 3.7e-16.
REFLECTION_D_TOL = 1e-13
REFLECTION_TABLE_TOL = 1e-15


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(0, MAX_PHOTON_NUMBER),
    theta=st.one_of(st.sampled_from([0.0, math.pi / 8, math.pi / 4]), st.floats(0.0, math.pi / 4)),
)
def test_the_closing_angle_is_the_adjacent_one_with_bobs_count_reversed(N, theta):
    # D_N(pi/2 - theta)[i, k] = (-1)^i D_N(theta)[i, N - k]: Bob's V + (pi/2 - theta)
    # output is his H + theta output.
    reflected = reflected_rotation(N, theta)
    d, table = singlet._rotation(N, HALF_PI - theta)
    assert np.max(np.abs(d - reflected)) <= REFLECTION_D_TOL
    assert np.max(np.abs(table.probs - reflected**2 / (N + 1))) <= REFLECTION_TABLE_TOL
    assert np.max(np.abs(table.probs - joint_distribution(N, theta).probs[:, ::-1])) <= REFLECTION_TABLE_TOL


def test_the_right_angle_is_the_zero_angle_reflected_bit_for_bit():
    # With cos snapped to 0 the table at pi/2 is exactly anti-diagonal, each
    # entry the zero-angle diagonal's, so the reflection holds in every bit.
    for N in range(MAX_PHOTON_NUMBER + 1):
        at_zero, at_right_angle = joint_distribution(N, 0.0).probs, joint_distribution(N, HALF_PI).probs
        assert at_right_angle.tobytes() == np.ascontiguousarray(at_zero[:, ::-1]).tobytes()
        assert np.array_equal(singlet._rotation(N, HALF_PI)[0], reflected_rotation(N, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(0, MAX_PHOTON_NUMBER),
    theta=st.floats(0.0, HALF_PI, allow_nan=False),
)
def test_table_has_uniform_marginals_and_exchange_symmetry(N, theta):
    probs = joint_distribution(N, theta).probs
    uniform = np.full(N + 1, 1.0 / (N + 1))
    assert np.max(np.abs(probs.sum(axis=0) - uniform)) <= 1e-12
    assert np.max(np.abs(probs.sum(axis=1) - uniform)) <= 1e-12
    assert np.max(np.abs(probs - probs.T)) <= 1e-12
    assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("N", [2, 5, 9, 12])
@pytest.mark.parametrize("theta", [0.2, math.pi / 8, 1.1])
def test_table_symmetric_under_count_exchange(N, theta):
    probs = joint_distribution(N, theta).probs
    assert np.max(np.abs(probs - probs.T)) <= 1e-12


def test_mean_abs_difference_two_photons():
    assert mean_abs_difference(joint_distribution(1, 0.0)) == 0.0
    for theta in [0.2, 0.9, 1.4]:
        assert mean_abs_difference(joint_distribution(1, theta)) == pytest.approx(
            math.sin(theta) ** 2, rel=1e-12
        )


@pytest.mark.parametrize("N", range(1, 21))
def test_mean_abs_difference_at_right_angle(N):
    value = mean_abs_difference(joint_distribution(N, HALF_PI))
    if N % 2:
        expected = (N * N / 2 + N + 0.5) / (N + 1)
    else:
        expected = (N * N / 2 + N) / (N + 1)
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("size", range(1, MAX_PHOTON_NUMBER + 2))
def test_mean_abs_difference_matches_the_explicit_formula(size):
    dist = joint_distribution(size - 1, 0.7)
    counts = np.arange(size)
    expected = float(np.sum(np.abs(counts[:, None] - counts[None, :]) * dist.probs))
    assert mean_abs_difference(dist) == expected


@pytest.mark.parametrize("size", range(1, MAX_PHOTON_NUMBER + 2))
def test_a_stack_is_measured_bit_for_bit_as_each_table_alone(size):
    # One reduction over each table's two count axes: a stack gives one value
    # per table, each the value that table gives alone, and one table a float.
    probs = np.random.default_rng(size).random((2, size, size))
    stack = JointCountDistribution(probs)
    assert stack.max_count == size - 1
    for measure in (lambda dist: dist.mass, mean_abs_difference):
        alone = [measure(JointCountDistribution(table)) for table in probs]
        assert all(type(value) is float for value in alone)
        assert [value.hex() for value in measure(stack)] == [value.hex() for value in alone]
    assert alone[0] == float(np.sum(_DISTANCES[:size, :size] * probs[0]))


def _assert_the_bitwise_distance_and_thinning_contract(table, eta):
    # The explicit int |i - j| formula and the explicit products, compared with ==.
    size = table.max_count + 1
    counts = np.arange(size)
    explicit = np.abs(counts[:, None] - counts[None, :])
    assert mean_abs_difference(table) == float(np.sum(explicit * table.probs))
    thinned = binomial_thin(table, eta)
    t = _thinning_matrix(table.max_count, eta)
    assert np.array_equal(thinned.probs, t @ table.probs @ t.T)
    assert thinned.mass == float(thinned.probs.sum())
    distances = _DISTANCES[:size, :size]
    assert distances.dtype == np.float64 and not distances.flags.writeable
    assert np.array_equal(distances, explicit)


@settings(max_examples=150, deadline=None)
@given(
    N=st.integers(0, MAX_PHOTON_NUMBER),
    theta=st.floats(0.0, HALF_PI),
    eta=st.floats(0.0, 1.0),
)
@example(N=0, theta=0.3, eta=0.5)
@example(N=MAX_PHOTON_NUMBER, theta=HALF_PI, eta=0.9)
def test_fixed_N_tables_keep_their_distance_and_thinning_bits(N, theta, eta):
    _assert_the_bitwise_distance_and_thinning_contract(joint_distribution(N, theta), eta)


@settings(max_examples=150, deadline=None)
@given(
    gamma=st.floats(1e-3, 1.8),
    theta=st.floats(0.0, HALF_PI),
    eta=st.floats(0.0, 1.0),
)
@example(gamma=1e-3, theta=0.7, eta=0.5)  # n_max 0: 1 x 1 tables
@example(gamma=1.8, theta=1.1, eta=0.9)  # n_max 60: 61 x 61 tables
def test_mixture_tables_keep_their_distance_and_thinning_bits(gamma, theta, eta):
    spec = SVSpec(gamma)
    _assert_the_bitwise_distance_and_thinning_contract(kept_mixture(theta, spec, eta), eta)
    _assert_the_bitwise_distance_and_thinning_contract(kept_mixture(theta, spec), eta)
    _assert_the_bitwise_distance_and_thinning_contract(count_table(theta, gamma, eta), eta)


def test_four_photon_mean_abs_difference_closed_form():
    # Hand-derived: d_2(theta) = (8/3) s^2 c^2 + (4/3) s^4.
    for theta in [0.15, math.pi / 8, 1.0]:
        s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
        assert mean_abs_difference(joint_distribution(2, theta)) == pytest.approx(
            (8 / 3) * s2 * c2 + (4 / 3) * s2 * s2, rel=1e-12
        )


def test_tables_and_breakdowns_store_their_inputs_only():
    assert [f.name for f in dataclasses.fields(JointCountDistribution)] == ["probs"]
    assert [f.name for f in dataclasses.fields(BellBreakdown)] == ["lhs", "rhs", "n_max", "mass"]


def test_every_producers_mass_is_the_sum_of_its_table():
    spec = SVSpec(0.8)
    tables = [
        joint_distribution(5, 0.3),
        binomial_thin(joint_distribution(5, 0.3), 0.7),
        kept_mixture(0.3, spec),
        kept_mixture(0.3, spec, 0.7),
        count_table(0.3, 0.8, 0.7),
        mc_thin(joint_distribution(3, 0.3), 0.7, 10_000, seed=1),
    ]
    for table in tables:
        assert table.mass.hex() == float(np.add.reduce(table.probs, axis=None)).hex()
