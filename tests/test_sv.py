"""Squeezed-vacuum weights, truncation policy, mixtures, exact count tables, and correlations."""

import math
import random
import sys
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresh_rotation import fresh_rotations
from gaussian_series import kept_mixture, series_weight
from svbell.chain import make_chain
from svbell.loss import binomial_thin
from svbell.oracle import mc_thin
from svbell.singlet import MAX_PHOTON_NUMBER, JointCountDistribution, joint_distribution, mean_abs_difference
import svbell.sv
from svbell.cli import GUARD_MASS
from svbell.sv import (
    CapExceededError,
    SVSpec,
    _at_mass,
    bell_sv,
    correlation_visibility,
    count_difference_pmf,
    count_table,
    intensity_correlation,
    lambda_sq,
    mean_abs_count_difference,
    mean_photons_per_beam,
    rhs_sv_asymptotic,
)


def test_vacuum_dominates_at_zero_gain():
    assert lambda_sq(0, 1e-9) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 0.8, 1.2, 1.5])
def test_weights_sum_to_one(gamma):
    total = math.fsum(series_weight(n, gamma) for n in range(201))
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8, 1.2])
def test_weights_reproduce_mean_photon_number(gamma):
    # Truncate once the cumulative weight is within 1e-12 of full mass.
    mean = 0.0
    cumulative = 0.0
    for n in range(1000):
        w = series_weight(n, gamma)
        cumulative += w
        mean += w * n
        if 1.0 - cumulative < 1e-12:
            break
    assert mean == pytest.approx(mean_photons_per_beam(gamma), abs=1e-8)
    assert mean_photons_per_beam(gamma) == pytest.approx(2 * math.sinh(gamma) ** 2)


def test_partial_sums_monotone():
    weights = [lambda_sq(n, 0.8) for n in range(60)]
    assert all(w > 0.0 for w in weights)
    partial = np.cumsum(weights)
    # Increments underflow once the sum saturates at 1.0, hence >= not >.
    assert np.all(np.diff(partial) >= 0.0)
    assert partial[-1] <= 1.0 + 1e-12
    assert partial[-1] == pytest.approx(1.0, abs=1e-9)


# The one gain range ends where the fringe peak, about e^(4 gamma) / 8, passes the largest float.
GAIN_LIMIT = (math.log(sys.float_info.max) + math.log(8.0)) / 4


def test_weights_keep_their_bits_below_the_float_range_of_cosh4():
    # cosh^4 fits a float up to gamma ~ 178.1, so one formula holds across the range.
    rng = random.Random(43)
    seeded = [GAIN_LIMIT * (1.0 - rng.random()) ** 4 for _ in range(40)]  # in (0, GAIN_LIMIT]
    for gamma in [1e-9, 0.3, 0.8, 1.5, 20.0, 177.0, GAIN_LIMIT] + seeded:
        for n in range(MAX_PHOTON_NUMBER + 1):
            assert lambda_sq(n, gamma) == (n + 1) * math.tanh(gamma) ** (2 * n) / math.cosh(gamma) ** 4


def test_weights_of_huge_photon_numbers_vanish_or_name_the_float_range():
    # The weights stop where the count tables do, at MAX_PHOTON_NUMBER.
    for N in [61, 10**20, 10**400]:
        with pytest.raises(ValueError, match="exceeds supported range N <= 60"):
            lambda_sq(N, 0.5)


def exact_weight(N, gamma):
    """(N+1) tanh^(2N) / cosh^4 to 60 digits, and its exponent 2N log tanh."""
    with localcontext() as ctx:
        # Digits enough that 1 - e and 1 + e keep 60 digits of e = e^(-2 gamma).
        ctx.prec = 60 + math.ceil(2 * gamma / math.log(10))
        g = Decimal(gamma)
        e = (-2 * g).exp()
        log_tanh = ((1 - e) / (1 + e)).ln()
        log_cosh = g + ((1 + e) / 2).ln()
        exponent = 2 * N * log_tanh
        return float((Decimal(N + 1).ln() + exponent - 4 * log_cosh).exp()), float(exponent)


@pytest.mark.parametrize("gamma", [19.5, 20.0, 60.0, 150.0, GAIN_LIMIT])
def test_weights_where_tanh_rounds_to_one_match_exact_arithmetic(gamma):
    # tanh(gamma) is 1.0 in floats here, yet the weights carry tanh^(2N).
    # Allowed relative error: 32 ulp for the direct factor up to N = 60
    # (off by up to 240 e^(-2 gamma) ~ 30 ulp) and cosh^4, plus one ulp per
    # unit of the exponent 2N log tanh, far below one here.
    assert math.tanh(gamma) == 1.0
    for N in [0, 1, 60]:
        weight = lambda_sq(N, gamma)
        exact, exponent = exact_weight(N, gamma)
        assert 0.0 <= weight <= 1.0
        assert abs(weight - exact) <= (32 + abs(exponent)) * 2.0**-52 * exact


@pytest.mark.parametrize("gamma", [178.2, 200.0, 800.0, 1e308])
def test_weights_past_the_float_range_of_cosh4_are_negligible(gamma):
    # There tanh^(2N) <= 1 and cosh^4 > e^(4 gamma) / 16, so the weights up to
    # N = 60 sum to less than (1 + 2 + ... + 61) 16 e^(-4 gamma): rejecting
    # these gains loses no weight worth keeping.
    assert 1891 * 16 * math.exp(-4.0 * gamma) < 1e-300
    for evaluate in (SVSpec, lambda g: lambda_sq(0, g)):
        with pytest.raises(ValueError, match="for this value to fit a float"):
            evaluate(gamma)


def test_truncation_point_small_gain():
    assert SVSpec(gamma=0.1).n_max == 1


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8, 0.9])
def test_truncation_point_below_ten_for_moderate_gain(gamma):
    assert SVSpec(gamma=gamma).n_max <= 10


def test_truncation_cap_exceeded_at_high_gain():
    cumulative = 0.0
    for n in range(61):
        cumulative += lambda_sq(n, 3.0)
    message = f"at gain 3.0, the singlet weights up to N = 60 sum to {cumulative!r}, below the requested mass 0.99"
    for read in ("n_max", "mass"):
        with pytest.raises(CapExceededError) as raised:
            getattr(SVSpec(gamma=3.0), read)
        assert str(raised.value) == message


def test_an_unreachable_mass_is_summed_once_and_raised_on_every_read(monkeypatch):
    calls = []

    def counted(N, gamma):
        calls.append(N)
        return lambda_sq(N, gamma)

    monkeypatch.setattr(svbell.sv, "lambda_sq", counted)
    spec = SVSpec(1.7, GUARD_MASS)
    raised = []
    for read in [lambda: spec.n_max, lambda: spec.mass, lambda: kept_mixture(0.3, spec), lambda: spec.n_max]:
        with pytest.raises(CapExceededError) as info:
            read()
        raised.append(info)
    assert calls == list(range(61))
    assert len({str(info.value) for info in raised}) == 1
    assert str(raised[0].value).startswith("at gain 1.7, the singlet weights up to N = 60 sum to ")
    # Each read raises a fresh error from the kept message: no traceback piles up frames.
    assert len(raised[0].traceback) == len(raised[-1].traceback)


def test_truncated_mass_reaches_threshold():
    spec = SVSpec(gamma=0.8)
    assert spec.mass == math.fsum(lambda_sq(n, spec.gamma) for n in range(spec.n_max + 1))
    assert spec.mass >= spec.mass_threshold
    assert spec.mass <= 1.0
    # The mixture keeps that mass up to the rounding of its own sum.
    assert kept_mixture(0.3, spec).mass == pytest.approx(spec.mass, abs=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        SVSpec(gamma=0.0)
    with pytest.raises(ValueError):
        SVSpec(gamma=0.5, mass_threshold=0.0)
    with pytest.raises(ValueError, match="must lie in \\(0, 1\\)"):
        SVSpec(gamma=0.5, mass_threshold=1.0)  # the weights never sum to 1
    with pytest.raises(ValueError):
        lambda_sq(-1, 0.5)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "evaluate",
    [
        SVSpec,
        lambda g: lambda_sq(0, g),
        lambda g: intensity_correlation(0.0, 0.3, g),
        correlation_visibility,
        rhs_sv_asymptotic,
        mean_photons_per_beam,
        lambda g: mean_abs_count_difference(0.3, g, 0.9),
        lambda g: count_difference_pmf(1, 0.3, g, 0.9),
        lambda g: count_table(0.3, g, 0.9),
    ],
    ids=["SVSpec", "lambda_sq", "intensity_correlation", "correlation_visibility", "rhs_sv_asymptotic",
         "mean_photons_per_beam", "mean_abs_count_difference", "count_difference_pmf", "count_table"],
)
def test_gain_must_be_positive_and_finite(evaluate, gamma):
    with pytest.raises(ValueError, match="gain must be positive and finite"):
        evaluate(gamma)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda g: SVSpec(g, mass_threshold=1e-310).mass,  # the weights up to N = 60 sum to ~2e-305 at the limit
        lambda g: lambda_sq(60, g),
        mean_photons_per_beam,
        rhs_sv_asymptotic,
        lambda g: intensity_correlation(0.3, 0.3, g),
        correlation_visibility,
        lambda g: mean_abs_count_difference(HALF_PI, g, 1.0),
        lambda g: count_difference_pmf(1, HALF_PI, g, 1.0),
    ],
    ids=["SVSpec", "lambda_sq", "mean_photons_per_beam", "rhs_sv_asymptotic", "intensity_correlation",
         "correlation_visibility", "mean_abs_count_difference", "count_difference_pmf"],
)
def test_closed_forms_are_finite_up_to_their_gain_limit_and_reject_larger_gains(evaluate):
    assert 0.0 < evaluate(GAIN_LIMIT) < math.inf
    for gamma in [math.nextafter(GAIN_LIMIT, math.inf), 1e308]:
        with pytest.raises(ValueError) as raised:
            evaluate(gamma)
        assert str(raised.value) == f"gain must be at most {GAIN_LIMIT!r} for this value to fit a float, got {gamma}"


@pytest.mark.parametrize("delta", [0.1, 0.7, 0.5 * math.pi])
def test_intensity_correlation_is_finite_at_its_gain_limit_at_every_angle(delta):
    # Within a factor 4 of the largest float at every angle, so the limit is tight.
    assert sys.float_info.max / 4 <= intensity_correlation(0.0, delta, GAIN_LIMIT) <= sys.float_info.max


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_intensity_correlation_rejects_angles_that_are_not_finite(bad):
    for name, angles in (("theta_a", (bad, 0.3)), ("theta_b", (0.3, bad))):
        with pytest.raises(ValueError) as raised:
            intensity_correlation(*angles, 0.8)
        assert str(raised.value) == f"polarizer angle {name} must be finite, got {bad}"


def test_mixture_is_vacuum_at_vanishing_gain():
    dist = kept_mixture(0.4, SVSpec(gamma=1e-4))
    assert dist.max_count == 0
    assert dist.probs[0, 0] == pytest.approx(1.0, abs=1e-7)


def test_mixture_has_diagonal_support_at_zero_angle():
    dist = kept_mixture(0.0, SVSpec(gamma=0.8))
    assert dist.mass >= 0.99
    size = dist.max_count + 1
    assert np.all(dist.probs[~np.eye(size, dtype=bool)] == 0.0)
    assert dist.probs.sum() == pytest.approx(dist.mass, abs=1e-9)


def test_mixture_mass_equals_truncated_weight_sum():
    spec = SVSpec(gamma=0.8)
    dist = kept_mixture(math.pi / 8, spec, eta=0.9)
    expected_mass = math.fsum(lambda_sq(n, 0.8) for n in range(dist.max_count + 1))
    assert dist.mass == pytest.approx(expected_mass, abs=1e-12)
    assert dist.probs.sum() == pytest.approx(expected_mass, abs=1e-9)


def fresh_mixture(theta, spec, eta, reflected=False):
    """kept_mixture's table built with no shared state: fresh singlet tables, thinned.

    ``reflected`` builds the table at pi/2 - theta the way a spec keeps it:
    each component at theta with Bob's count reversed.
    """
    size = spec.n_max + 1
    probs = np.zeros((size, size))
    for n, d in enumerate(fresh_rotations(size - 1, theta)):
        table = (d[:, ::-1] if reflected else d) ** 2 / (n + 1)
        probs[: n + 1, : n + 1] += lambda_sq(n, spec.gamma) * table
    return binomial_thin(JointCountDistribution(probs), eta).probs if eta < 1.0 else probs


def test_kept_mixture_matches_a_fresh_build_at_every_efficiency():
    spec, theta = SVSpec(0.9), math.pi / 12
    etas = [i / 10 for i in range(11)]
    expected = [fresh_mixture(theta, spec, eta) for eta in etas]
    assert spec.mass == math.fsum(lambda_sq(n, spec.gamma) for n in range(spec.n_max + 1))
    for _ in range(2):  # the first call builds the lossless table; every later one reuses it
        for eta, probs in zip(etas, expected):
            dist = kept_mixture(theta, spec, eta)
            assert np.array_equal(dist.probs, probs)
            assert dist.mass == pytest.approx(spec.mass, abs=1e-14)


def test_kept_mixture_is_shared_and_read_only():
    spec = SVSpec(0.8)
    table = kept_mixture(0.3, spec)
    pair = spec._mixtures[0.3][spec.n_max].probs
    # A read-only view of the kept pair's first table: shared, not copied.
    assert np.shares_memory(kept_mixture(0.3, spec).probs, table.probs)
    assert np.shares_memory(table.probs, pair) and table.probs.base is pair
    with pytest.raises(ValueError):
        table.probs[0, 0] = 1.0
    thinned = kept_mixture(0.3, spec, 0.5)
    assert not np.shares_memory(thinned.probs, pair)
    thinned.probs[0, 0] = 1.0  # a thinned table is the caller's own
    again = kept_mixture(0.3, spec)
    assert np.shares_memory(again.probs, pair) and again.probs[0, 0] == table.probs[0, 0] != 1.0


def test_a_spec_keeps_the_pair_of_the_last_angle_it_was_used_at():
    spec = SVSpec(0.8)
    first = kept_mixture(0.1, spec)
    assert not np.shares_memory(kept_mixture(0.1, spec, 0.7).probs, first.probs)
    assert np.shares_memory(kept_mixture(0.1, spec).probs, first.probs)
    # The kept pair: one stack of the table at the angle and the one at pi/2 minus it.
    assert list(spec._mixtures) == [0.1] and list(spec._mixtures[0.1]) == [spec.n_max]
    pair = spec._mixtures[0.1][spec.n_max].probs
    assert pair.shape == (2, spec.n_max + 1, spec.n_max + 1) and not pair.flags.writeable
    assert first.probs.base is pair and np.array_equal(pair[0], first.probs)
    assert np.array_equal(pair[1], fresh_mixture(0.1, spec, 1.0, reflected=True))
    second = kept_mixture(0.2, spec)  # a new angle: 0.1's pair goes
    assert list(spec._mixtures) == [0.2]
    rebuilt = kept_mixture(0.1, spec)
    assert not np.shares_memory(rebuilt.probs, first.probs) and np.array_equal(rebuilt.probs, first.probs)
    assert list(spec._mixtures) == [0.1] and not np.shares_memory(kept_mixture(0.2, spec).probs, second.probs)
    for theta in np.linspace(0.0, 0.5 * math.pi, 9):
        kept_mixture(float(theta), spec)
        assert list(spec._mixtures) == [float(theta)] and len(spec._mixtures[float(theta)]) == 1


def test_the_kept_tables_belong_to_one_spec_object():
    spec = SVSpec(0.8)
    before = hash(spec)
    table = kept_mixture(0.3, spec)
    assert spec == SVSpec(0.8) and hash(spec) == before == hash(SVSpec(0.8))
    assert repr(spec) == "SVSpec(gamma=0.8, mass_threshold=0.99)"
    for other in [SVSpec(0.8), replace(spec), replace(spec, mass_threshold=0.999)]:
        assert other._mixtures == {}
        assert not np.shares_memory(kept_mixture(0.3, other).probs, table.probs)
    assert np.array_equal(kept_mixture(0.3, SVSpec(0.8)).probs, table.probs)


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.05, 1.5),
    theta=st.floats(0.0, 0.5 * math.pi),
    eta=st.floats(0.0, 1.0),
    guard_first=st.booleans(),
)
@example(gamma=0.8, theta=0.3, eta=0.5, guard_first=True)  # a larger kept table is never cut down
def test_guard_mixtures_continue_the_default_mass_ones_bit_for_bit(gamma, theta, eta, guard_first):
    spec = SVSpec(gamma)
    guard = _at_mass(spec, GUARD_MASS)
    order = [guard, spec] if guard_first else [spec, guard]
    for _ in range(2):  # built, then read from the kept tables
        for which in order:
            fresh = SVSpec(which.gamma, which.mass_threshold)  # shares nothing
            assert which.mass == fresh.mass == math.fsum(lambda_sq(n, gamma) for n in range(fresh.n_max + 1))
            for e in [eta, 1.0]:
                dist = kept_mixture(theta, which, e)
                assert dist.probs.view(np.uint64).tolist() == fresh_mixture(theta, fresh, e).view(np.uint64).tolist()


# The closing distance read off the adjacent angle's tables rounds
# differently from a direct build at theta'.  Over 3000 seeded draws of gain
# in [0.05, 1.5], efficiency, L in 2..400 and either mass, the two differed
# by at most 2.7e-15 of the direct value.
CLOSING_REL_TOL = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.05, 1.5),
    eta=st.floats(0.0, 1.0),
    L=st.integers(2, 400),
    guard=st.booleans(),
)
@example(gamma=0.8, eta=1.0, L=2, guard=True)
def test_the_closing_term_is_read_off_the_adjacent_angles_tables(gamma, eta, L, guard):
    chain, spec = make_chain(L), SVSpec(gamma)
    which = _at_mass(spec, GUARD_MASS) if guard else spec
    if guard:
        bell_sv(chain, spec, eta)  # the guard's pair continues this one
    result = bell_sv(chain, which, eta)
    fresh = SVSpec(gamma, which.mass_threshold)  # shares nothing
    direct = mean_abs_difference(kept_mixture(chain.theta_prime, fresh, eta))
    assert abs(result.rhs - direct) <= CLOSING_REL_TOL * direct
    # Both terms are bit for bit the fresh builds, the closing one reflected.
    adjacent = JointCountDistribution(fresh_mixture(chain.theta, fresh, eta))
    closing = JointCountDistribution(fresh_mixture(chain.theta, fresh, eta, reflected=True))
    assert result.lhs == (2 * L - 1) * mean_abs_difference(adjacent)
    assert result.rhs == mean_abs_difference(closing)
    # The kept stack: the adjacent ladder, and the same ladder with Bob's count reversed.
    kept = which._mixtures[chain.theta][which.n_max].probs
    assert kept[0].tobytes() == fresh_mixture(chain.theta, fresh, 1.0).tobytes()
    assert kept[1].tobytes() == fresh_mixture(chain.theta, fresh, 1.0, reflected=True).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(0.005, 1.75),
    mass=st.floats(0.5, 0.99),
    eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    lo=st.integers(2, 400),
    count=st.integers(1, 71),
)
@example(gamma=0.01, mass=0.99, eta=0.5, lo=2, count=3)  # n_max 0 at both masses
@example(gamma=1.75, mass=0.99, eta=0.9, lo=2, count=69)  # guard out of reach; 14 blocks of at most 5 chains
@example(gamma=1.2, mass=0.99, eta=1.0, lo=2, count=60)  # blocks of 26 chains, at the guard's n_max 24
def test_a_stacked_sweep_is_each_chains_bell_sv_bit_for_bit(gamma, mass, eta, lo, count):
    spec = SVSpec(gamma, mass)
    specs = [spec, _at_mass(spec, GUARD_MASS)]
    try:
        specs[1].n_max
    except CapExceededError:  # the command line then reads the default mass alone
        specs.pop()
    chains = [make_chain(L) for L in range(lo, lo + count)]
    stacked = list(svbell.sv._bell_sv_sweep(iter(chains), specs, eta))
    assert spec._mixtures == {}  # nothing kept, nothing read from the kept pairs
    expected = [tuple(bell_sv(chain, which, eta) for which in specs) for chain in chains]
    assert repr(stacked) == repr(expected)  # repr tells every float bit apart


def test_a_spec_computes_each_weight_once(monkeypatch):
    calls = []

    def counted(N, gamma):
        calls.append(N)
        return lambda_sq(N, gamma)

    monkeypatch.setattr(svbell.sv, "lambda_sq", counted)
    spec = SVSpec(0.9)
    guard = _at_mass(spec, GUARD_MASS)
    for which in [spec, guard]:
        calls.clear()
        for theta in np.linspace(0.0, 0.5 * math.pi, 5):
            for eta in [0.3, 0.8, 1.0]:
                kept_mixture(float(theta), which, eta)
        assert calls == list(range(which.n_max + 1))


def test_only_the_guard_helper_shares_the_kept_state():
    spec = SVSpec(0.8)
    guard = _at_mass(spec, GUARD_MASS)
    assert guard == SVSpec(0.8, GUARD_MASS) and repr(guard) == "SVSpec(gamma=0.8, mass_threshold=0.999)"
    assert guard._mixtures is spec._mixtures
    kept_mixture(0.3, guard)
    for other in [SVSpec(0.8), replace(spec), replace(guard), replace(guard, mass_threshold=0.99)]:
        assert other._mixtures == {} and "_truncation" not in vars(other)
    # Two specs share at most two angles' tables, one per truncation.
    for theta in np.linspace(0.0, 0.5 * math.pi, 9):
        for which in [spec, guard]:
            kept_mixture(float(theta), which, 0.5)
        assert len(spec._mixtures) <= 2
        assert sorted(spec._mixtures[float(theta)]) == [spec.n_max, guard.n_max]


def test_threads_sharing_a_spec_and_its_guard_get_the_right_tables():
    gammas, thetas, masses = [0.9, 1.1], [0.1, 0.4, 0.7], [0.99, GUARD_MASS]
    expected = {
        (g, m, t): kept_mixture(t, SVSpec(g, m)).probs for g in gammas for m in masses for t in thetas
    }
    pairs = []
    for _ in range(20):
        for g in gammas:
            spec = SVSpec(g)
            pairs.append((spec, _at_mass(spec, GUARD_MASS)))
    wrong = []
    start = threading.Barrier(8, timeout=60)

    def work(seed):
        rng = random.Random(seed)
        try:
            for spec_and_guard in pairs:
                start.wait()  # every thread on fresh specs at once
                for _ in range(6):
                    which, theta = rng.choice(spec_and_guard), rng.choice(thetas)
                    table = kept_mixture(theta, which).probs
                    if not np.array_equal(table, expected[which.gamma, which.mass_threshold, theta]):
                        wrong.append((which, theta))
        except Exception as exc:  # reported by the assert below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_lossy_mixture_against_monte_carlo():
    spec = SVSpec(gamma=0.8)
    exact = kept_mixture(math.pi / 8, spec, eta=0.9)
    lossless = kept_mixture(math.pi / 8, spec, eta=1.0)
    samples = 500_000
    empirical = mc_thin(lossless, 0.9, samples, seed=404)
    sigma = np.sqrt(np.maximum(exact.probs * (1.0 - exact.probs), 1e-12) / samples)
    assert np.all(np.abs(empirical.probs - exact.probs) <= 4.0 * sigma + 1e-9)


def test_intensity_correlation_closed_form_identities():
    for gamma in [0.2, 0.8, 1.7]:
        sinh_sq = math.sinh(gamma) ** 2
        cosh_sq = math.cosh(gamma) ** 2
        aligned = intensity_correlation(0.3, 0.3, gamma)
        assert aligned == pytest.approx(sinh_sq * cosh_sq + sinh_sq**2, abs=1e-12)
        crossed = intensity_correlation(0.0, 0.5 * math.pi, gamma)
        assert crossed == pytest.approx(sinh_sq**2, abs=1e-12)


def test_intensity_correlation_against_truncated_fock_sum():
    # Independent route: sum n*m over the weighted joint count tables.
    gamma = 0.3
    for delta in [0.0, 0.4]:
        total = 0.0
        cumulative = 0.0
        for n_photons in range(40):
            w = lambda_sq(n_photons, gamma)
            cumulative += w
            counts = np.arange(n_photons + 1)
            table = joint_distribution(n_photons, delta).probs
            total += w * float(counts @ table @ counts)
            if 1.0 - cumulative < 1e-12:
                break
        assert total == pytest.approx(intensity_correlation(0.0, delta, gamma), abs=1e-8)


@pytest.mark.parametrize("gamma", [20.0, 60.0, 120.0, GAIN_LIMIT])
def test_visibility_is_a_third_up_to_the_gain_limit(gamma):
    # Where tanh rounds to 1 the visibility is the thermal contrast, up to the
    # gain where the fringe's sinh^2 cosh^2 reaches the largest float.
    assert abs(correlation_visibility(gamma) - 1.0 / 3.0) <= 1e-15


@pytest.mark.parametrize("gamma", [0.05, 0.8, 6.0, 177.0])
def test_visibility_is_the_fringe_contrast(gamma):
    top = intensity_correlation(0.0, 0.0, gamma)
    bottom = intensity_correlation(0.0, 0.5 * math.pi, gamma)
    assert correlation_visibility(gamma) == pytest.approx((top - bottom) / (top + bottom), rel=1e-15)


def test_visibility_limits():
    assert correlation_visibility(0.05) >= 0.99
    assert correlation_visibility(6.0) == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert correlation_visibility(1e-6) == pytest.approx(1.0, abs=1e-9)
    gammas = [0.1, 0.5, 1.0, 2.0, 4.0]
    values = [correlation_visibility(g) for g in gammas]
    assert all(a > b for a, b in zip(values, values[1:]))


HALF_PI = 0.5 * math.pi


def exact_difference_law(theta, gamma, eta, ks):
    """E|k|, and P(k) with |k log r| for each k, from 60-digit decimal arithmetic.

    sin is its Taylor series, and 1 - r = (1 + sqrt(1 + 4A)) / (1 + 2A + sqrt(1 + 4A))
    has no cancellation, nor has log r = log(1 - (1 - r)), summed as a series where r >= 1/2.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        g, e, t = Decimal(gamma), Decimal(eta), Decimal(theta)
        sin, term, n = t, t, 1
        while abs(term) > Decimal(10) ** -70:
            term = -term * t * t / ((2 * n) * (2 * n + 1))
            sin, n = sin + term, n + 1
        exp_g = g.exp()
        s, c = (exp_g - 1 / exp_g) / 2, (exp_g + 1 / exp_g) / 2
        a = e * s * s * (1 - e + e * c * c * sin * sin)
        if a == 0:
            return 0.0, [(Decimal(k == 0), 0.0) for k in ks]
        root = (1 + 4 * a).sqrt()
        r, q = 2 * a / (1 + 2 * a + root), (1 + root) / (1 + 2 * a + root)
        if r < Decimal("0.5"):
            log_r = r.ln()
        else:  # r's own digits would round towards 1
            log_r, term, j = Decimal(0), q, 1
            while term > Decimal(10) ** -70 * q:
                log_r, term, j = log_r - term / j, term * q, j + 1
        exponents = [abs(k) * log_r for k in ks]
        law = [(q / (1 + r) * x.exp() if x > -800 else Decimal(0), float(-x)) for x in exponents]
        return float(2 * a / root), law


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(math.log(1e-6), math.log(GAIN_LIMIT)).map(lambda x: min(math.exp(x), GAIN_LIMIT)),
    eta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    theta=st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI)),
)
@example(gamma=GAIN_LIMIT, eta=1.0, theta=HALF_PI)  # the largest A, where r rounds to 1
@example(gamma=1e-6, eta=1.0, theta=1e-3)  # A ~ 1e-18, where r is tiny
# sin(theta)^2 underflows at these angles, though A does not: A ~ 1e-192,
# then A subnormal, where squaring sin(theta) first lost all or most of it.
@example(gamma=148.4131591025766, eta=1.0, theta=4.7515727952447306e-225)
@example(gamma=math.e, eta=1.0, theta=1.0753713455245772e-162)
@example(gamma=7.38905609893065, eta=5e-324, theta=0.0)  # A subnormal through eta: eta s^2 rounds once
def test_count_difference_law_matches_60_digit_arithmetic(gamma, eta, theta):
    # A rounds within a few ulp, or a few units of 2^-1074 where it is
    # subnormal; P(k) = exp(|k| log r) / sqrt(1 + 4A) adds one ulp per unit
    # of its exponent.  Below 1e-300 P(k) may be subnormal.
    ks = [0, 1, -1, 2, -7, 30, -1000, 10**6, 10**12, 10**400]
    mean, law = exact_difference_law(theta, gamma, eta, ks)
    assert abs(mean_abs_count_difference(theta, gamma, eta) - mean) <= 8 * max(2.0**-52 * mean, 2.0**-1074)
    for k, (exact, exponent) in zip(ks, law):
        p = count_difference_pmf(k, theta, gamma, eta)
        if exact > Decimal("1e-300"):
            assert abs(Decimal(p) - exact) <= Decimal(8 * (1 + exponent) * 2.0**-52) * exact, k
        else:
            assert 0.0 <= p <= 1e-300, k


def test_count_difference_law_fits_a_float_up_to_its_gain_limit():
    # A <= sinh(2 gamma)^2 / 4 ~ e^(4 gamma) / 16 <= max float / 2 at the limit.
    mean = mean_abs_count_difference(HALF_PI, GAIN_LIMIT, 1.0)
    assert mean == pytest.approx(math.sqrt(sys.float_info.max / 2), rel=1e-12)
    # r rounds to 1 there, yet P(k) still falls off with |k|.
    top = count_difference_pmf(0, HALF_PI, GAIN_LIMIT, 1.0)
    assert 0.0 < count_difference_pmf(10**150, HALF_PI, GAIN_LIMIT, 1.0) < top
    for gamma in [math.nextafter(GAIN_LIMIT, math.inf), 356.0, 1e300]:
        for evaluate in (mean_abs_count_difference, lambda *args: count_difference_pmf(0, *args)):
            with pytest.raises(ValueError, match="for this value to fit a float"):
                evaluate(0.0, gamma, 0.0)
    with pytest.raises(TypeError):
        count_difference_pmf(1.0, 0.3, 0.8, 0.9)


@pytest.mark.parametrize(
    "gamma, eta, theta",
    [(0.3, 1.0, 0.4), (0.8, 0.9, math.pi / 8), (0.5, 0.5, HALF_PI), (0.7, 0.75, 0.0), (0.9, 1.0, 1.1)],
)
def test_count_difference_law_is_the_mixture_histogram_plus_its_tail(gamma, eta, theta):
    # The mixture keeps mass 1 - 1e-13 of the state and drops the rest, so
    # P(k) lies above its histogram of k = m - n, and the gaps sum to the
    # dropped mass.  Both sides round within a few ulp of 1.
    spec = SVSpec(gamma, 1.0 - 1e-13)
    table = kept_mixture(theta, spec, eta).probs
    size = spec.n_max + 1
    histogram = {k: math.fsum(np.diagonal(table, offset=k)) for k in range(1 - size, size)}
    ks = range(-2 * size, 2 * size + 1)
    gaps = [count_difference_pmf(k, theta, gamma, eta) - histogram.get(k, 0.0) for k in ks]
    slack = 2e-15
    assert min(gaps) >= -slack
    assert abs(math.fsum(gaps) - (1.0 - spec.mass)) <= slack


def geometric_ratio(gamma, eta):
    """t = eta sinh(gamma)^2, each count's mean, and q = t / (1 + t), its geometric ratio."""
    t = eta * math.sinh(gamma) ** 2
    return t, t / (1.0 + t)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(math.log(1e-6), math.log(3.0)).map(math.exp),
    eta=st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)),
    theta=st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI)),
    mass=st.one_of(st.sampled_from([0.99, 1.0 - 2.0**-53]), st.floats(1e-6, 1.0, exclude_max=True)),
)
@example(gamma=1.9, eta=0.9, theta=0.3, mass=0.99)  # 54 counts per beam
@example(gamma=1.914, eta=1.0, theta=HALF_PI, mass=0.99)  # 61 counts per beam, the most
@example(gamma=2.5, eta=1.0, theta=0.0, mass=0.99)  # 197 counts per beam: CapExceededError
def test_count_table_is_nonnegative_and_stops_at_the_first_count_its_tail_bound_allows(gamma, eta, theta, mass):
    # Entries far below the peak underflow to subnormals, or to 0, in large
    # tables: that is expected, and they stay nonnegative.
    t, q = geometric_ratio(gamma, eta)
    try:
        table = count_table(theta, gamma, eta, mass)
    except CapExceededError as raised:
        assert 2.0 * q ** (MAX_PHOTON_NUMBER + 1) > (1.0 - mass) * (1.0 - 1e-9)
        assert str(raised).startswith(f"at gain {gamma} and efficiency {eta}, the tail bound needs counts up to ")
        return
    k = table.max_count
    assert table.probs.shape == (k + 1, k + 1) and np.all(table.probs >= 0.0)
    # The sum rounds within a few ulp of 1: only a mass within 1e-15 of 1 sees that.
    assert table.mass >= (mass if mass <= 1.0 - 1e-15 else mass - 1e-15)
    assert 2.0 * q ** (k + 1) <= (1.0 - mass) * (1.0 + 1e-9)
    assert k == 0 or 2.0 * q**k > (1.0 - mass) * (1.0 - 1e-9)


def test_count_table_raises_past_60_counts_before_building_anything():
    count_table(0.3, 0.5)  # a first call, so that tracing sees no one-time imports or caches
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as raised:
            count_table(0.0, 2.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == (
        "at gain 2.5 and efficiency 1.0, the tail bound needs counts up to 196 per beam, more than 60, "
        "to hold mass 0.99"
    )
    # A 197 x 197 table of floats alone would take 310 kB.
    assert peak < 20_000
    assert count_table(0.3, 1.914).max_count == MAX_PHOTON_NUMBER


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(0.01, 1.8), eta=st.floats(0.0, 1.0), theta=st.floats(0.0, HALF_PI))
@example(gamma=1.8, eta=1.0, theta=1.1)  # a 61 x 61 mixture
@example(gamma=0.8, eta=1.0, theta=0.0)  # diagonal support
def test_count_table_lies_above_the_default_mass_mixture_by_at_most_its_dropped_weight(gamma, eta, theta):
    # Every entry of the untruncated state is the mixture's plus the
    # components above n_max, which sum to 1 - spec.mass.
    spec = SVSpec(gamma)
    table, mixture = count_table(theta, gamma, eta).probs, kept_mixture(theta, spec, eta).probs
    size = min(len(table), len(mixture))
    gap = table.copy()
    gap[:size, :size] -= mixture[:size, :size]
    slack = 1e-14
    assert gap.min() >= -slack
    assert gap.max() <= 1.0 - spec.mass + slack


@pytest.mark.parametrize(
    "gamma, eta, theta",
    [(0.3, 1.0, 0.4), (0.8, 0.9, math.pi / 8), (0.5, 0.5, HALF_PI), (0.7, 0.75, 0.0), (1.0, 1.0, 1.1)],
)
def test_count_table_is_the_high_mass_mixture_and_its_diagonals_the_count_difference_law(gamma, eta, theta):
    mass = 1.0 - 1e-13
    table = count_table(theta, gamma, eta, mass).probs
    mixture = kept_mixture(theta, SVSpec(gamma, mass), eta).probs
    size = min(len(table), len(mixture))
    assert np.abs(table[:size, :size] - mixture[:size, :size]).max() <= 1e-14
    # P(k) lies above the table's histogram of k = m - n, and the gaps sum to
    # the mass the table drops, up to P(|k| > 2 size) <= 2 q^(2 size + 1) ~ 1e-26.
    size = len(table)
    histogram = {k: math.fsum(np.diagonal(table, offset=k)) for k in range(1 - size, size)}
    gaps = [count_difference_pmf(k, theta, gamma, eta) - histogram.get(k, 0.0) for k in range(-2 * size, 2 * size + 1)]
    slack = 2e-15
    assert min(gaps) >= -slack
    assert abs(math.fsum(gaps) - (1.0 - math.fsum(table.ravel()))) <= slack


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(0.01, 1.9),
    eta=st.floats(0.0, 1.0),
    theta=st.floats(0.0, HALF_PI),
    mass=st.sampled_from([0.5, 0.99, 1.0 - 1e-9, 1.0 - 2.0**-53]),
)
@example(gamma=1.9, eta=1.0, theta=HALF_PI, mass=0.99)
def test_count_table_marginals_are_thermal(gamma, eta, theta, mass):
    # Each count is geometric, P(n) = (1 - q) q^n with mean t; the table
    # drops P(n, m > K) <= q^(K+1) of row n, and the same of column n.
    try:
        table = count_table(theta, gamma, eta, mass)
    except CapExceededError:
        return
    t, q = geometric_ratio(gamma, eta)
    k = table.max_count
    for counts in (table.probs, table.probs.T):
        for n, row in enumerate(counts):
            exact = q**n / (1.0 + t)
            dropped = exact - math.fsum(row)
            assert -1e-14 * exact <= dropped <= q ** (k + 1) + 1e-14 * exact


@pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0, 1.9])
def test_count_table_at_crossed_polarizers_without_loss_is_two_independent_geometric_counts(gamma):
    # At theta = pi/2, A - t = t^2: the generating function factors.  The
    # recurrence adds a few ulp per step, up to 2K = 120 steps to the far
    # corner: at most 4.2e-13 relative over gains 1.5 to 1.914.
    t, q = geometric_ratio(gamma, 1.0)
    table = count_table(HALF_PI, gamma).probs
    counts = np.arange(len(table))
    geometric = q**counts / (1.0 + t)
    product = geometric[:, None] * geometric[None, :]
    assert np.all(np.abs(table - product) <= 1e-12 * product)
