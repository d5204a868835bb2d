"""Chained-inequality geometry, Bell parameters, and closed-form limits."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussian_series import kept_mixture, mean_distance, series_weight
import svbell.loss
import svbell.singlet
from svbell.chain import (
    ChainSpec,
    _mean_distance,
    asymptotic_bell_fixed_N,
    bell_fixed_N,
    make_chain,
)
from svbell.loss import binomial_thin
from svbell.singlet import MAX_PHOTON_NUMBER, joint_distribution, mean_abs_difference
from svbell.cli import GUARD_MASS
from svbell.sv import (
    SVSpec,
    _MAX_GAIN,
    _at_mass,
    bell_sv,
    lambda_sq,
    mean_abs_count_difference,
    rhs_sv_asymptotic,
)


def test_make_chain_examples():
    chain = make_chain(2)
    assert chain.theta == pytest.approx(math.pi / 8, abs=1e-15)
    assert chain.theta_prime == pytest.approx(3 * math.pi / 8, abs=1e-15)
    chain = make_chain(10)
    assert chain.theta == pytest.approx(math.pi / 40, abs=1e-15)
    assert chain.theta_prime == pytest.approx(19 * math.pi / 40, abs=1e-15)


@pytest.mark.parametrize("L", [2, 3, 10, 100, 10_000])
def test_chain_angle_identities(L):
    chain = make_chain(L)
    assert 2 * L * chain.theta == pytest.approx(math.pi / 2, rel=1e-14)
    assert chain.theta_prime == pytest.approx(math.pi / 2 - chain.theta, rel=1e-14)
    assert chain.theta_prime < math.pi / 2


def test_make_chain_rejects_short_chains():
    for L in [-1, 0, 1]:
        with pytest.raises(ValueError):
            make_chain(L)


def test_a_chain_length_must_be_an_integer():
    with pytest.raises(TypeError):
        make_chain(2.5)
    assert make_chain(np.int64(3)) == make_chain(3)


def test_a_chain_is_its_number_of_settings():
    # The angles follow from L alone, so no chain carries angles of its own.
    with pytest.raises(ValueError, match="at least 2 settings, got L=1"):
        ChainSpec(1)
    assert make_chain is ChainSpec
    for L in [2, 3, 7, 10_000]:
        chain = make_chain(L)
        assert chain == ChainSpec(L)
        assert chain.theta == math.pi / (4 * L)
        assert chain.theta_prime == (2 * L - 1) * math.pi / (4 * L)


def test_a_chain_needs_float_angles():
    # (2L - 1) pi stays finite up to L = max float / (2 pi), and no further.
    largest = int(sys.float_info.max / (2 * math.pi))
    chain = make_chain(largest)
    assert 0.0 < chain.theta < 1e-307 and chain.theta_prime == math.pi / 2
    for L in [largest + 1, 10**308, 10**400]:
        with pytest.raises(ValueError, match=f"L={L} is too large for float angles"):
            make_chain(L)


def test_two_photon_two_settings_closed_form():
    # 3 sin^2(pi/8) - sin^2(3pi/8) simplifies to 1 - sqrt(2).
    res = bell_fixed_N(1, make_chain(2))
    expected = 3 * math.sin(math.pi / 8) ** 2 - math.sin(3 * math.pi / 8) ** 2
    assert res.bell == pytest.approx(expected, abs=1e-12)
    assert res.bell == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert res.bell == res.lhs - res.rhs


def test_two_photon_ten_settings_closed_form():
    res = bell_fixed_N(1, make_chain(10))
    expected = 19 * math.sin(math.pi / 40) ** 2 - math.sin(19 * math.pi / 40) ** 2
    assert res.bell == pytest.approx(expected, abs=1e-12)
    assert res.bell == pytest.approx(-0.876883, abs=1e-6)


def test_no_violation_at_low_efficiency():
    assert bell_fixed_N(1, make_chain(2), eta=0.5).bell > 0.0


def test_bell_nonincreasing_in_efficiency():
    chain = make_chain(2)
    values = [bell_fixed_N(1, chain, eta).bell for eta in np.linspace(0.7, 1.0, 13)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(0, 60),
    theta=st.floats(0.0, math.pi / 2),
    eta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
@example(N=60, theta=math.pi / 2, eta=0.5)
@example(N=60, theta=0.0, eta=0.0)
@example(N=60, theta=math.pi / 4, eta=1.0)
def test_mean_distance_matches_the_thinned_table(N, theta, eta):
    table = mean_abs_difference(binomial_thin(joint_distribution(N, theta), eta))
    # A priori bound: one rounding per cell of the (N+1) x (N+1) table.
    bound = (N + 1) ** 2 * 2.0**-52 * max(1.0, table)
    assert abs(_mean_distance(N, theta, eta) - table) <= bound


@pytest.mark.parametrize(
    "gamma, eta, theta",
    [(0.3, 1.0, 0.4), (0.8, 0.9, math.pi / 8), (1.2, 0.5, 1.3), (0.6, 0.75, 0.0), (0.05, 1.0, 0.3),
     (1.0, 0.2, math.pi / 2), (1.2, 1.0, math.pi / 2), (0.9, 1.0, 0.0)],
)
def test_weighted_fixed_N_sums_give_the_gaussian_closed_form(gamma, eta, theta):
    # The fixed-N sums are the tanh(g)^2 expansion of 2A / sqrt(1 + 4A),
    # A = eta s^2 (1 - eta + eta c^2 sin^2 theta): two exact paths agree.
    # sv's law evaluates A / sqrt(A + 1/4), the same bits as this copy.
    gaussian = mean_distance(gamma, eta, theta)
    assert mean_abs_count_difference(theta, gamma, eta) == gaussian
    series = math.fsum(series_weight(n, gamma) * _mean_distance(n, theta, eta) for n in range(600))
    # lambda_sq rounds tanh(g)^(2N) / cosh(g)^4 to a few ulp, which sets this
    # tolerance; the sums alone agree with 40-digit arithmetic to about 1e-16.
    assert series == pytest.approx(gaussian, rel=2e-15)


TWO_PHOTON_THRESHOLDS = {2: 2.0 * math.sqrt(2.0) - 2.0, 3: 0.8699290, 5: 0.9137341, 10: 0.9535472}


@pytest.mark.parametrize("L", TWO_PHOTON_THRESHOLDS)
def test_two_photon_efficiency_threshold_is_exact(L):
    # With t = pi/(4L), sin((2L-1) t) = cos t, so
    # B(eta) = (2L-2) eta (1 - eta) + eta^2 ((2L-1) sin^2 t - cos^2 t) = eta (2L-2 - D eta),
    # D = 2L-2 + cos^2 t - (2L-1) sin^2 t, which changes sign at eta* = (2L-2) / D:
    # at L = 2, D = 1 + sqrt 2 and eta* = 2 sqrt 2 - 2.  B sums 2L - 1 terms,
    # so its rounding, and the tolerance, grow with 2L - 1.
    chain = make_chain(L)
    t = chain.theta
    d = 2 * L - 2 + math.cos(t) ** 2 - (2 * L - 1) * math.sin(t) ** 2
    eta_star = (2 * L - 2) / d
    assert eta_star == pytest.approx(TWO_PHOTON_THRESHOLDS[L], abs=5e-8)
    tol = (2 * L - 1) / 3 * 1e-15
    for eta in [0.3, 0.75, 0.9, 1.0]:
        expected = eta * (2 * L - 2 - d * eta)
        assert bell_fixed_N(1, chain, eta).bell == pytest.approx(expected, abs=tol)
    assert abs(bell_fixed_N(1, chain, eta_star).bell) <= tol
    assert bell_fixed_N(1, chain, eta_star - 1e-12).bell > 0.0
    assert bell_fixed_N(1, chain, eta_star + 1e-12).bell < 0.0


def test_bell_fixed_N_builds_and_thins_no_table(monkeypatch):
    # Every table build steps through singlet._rotation and _step, and every
    # thinning reads loss._thinning_matrix, each looked up when called.
    def forbidden(*args, **kwargs):
        raise AssertionError("bell_fixed_N must not build or thin a count table")

    monkeypatch.setattr(svbell.singlet, "_rotation", forbidden)
    monkeypatch.setattr(svbell.singlet, "_step", forbidden)
    monkeypatch.setattr(svbell.loss, "_thinning_matrix", forbidden)
    result = bell_fixed_N(60, make_chain(7), 0.5)
    assert result.bell == result.lhs - result.rhs
    assert bell_fixed_N(1, make_chain(2)).bell == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-15)


def test_bell_fixed_N_keeps_its_range_checks():
    chain = make_chain(2)
    with pytest.raises(ValueError, match="exceeds supported range"):
        bell_fixed_N(61, chain)
    with pytest.raises(ValueError, match="nonnegative"):
        bell_fixed_N(-1, chain)
    for eta in [-0.1, 1.5, math.nan]:
        with pytest.raises(ValueError, match="detection efficiency"):
            bell_fixed_N(1, chain, eta)


def test_asymptotic_values():
    assert asymptotic_bell_fixed_N(0) == 0.0
    assert asymptotic_bell_fixed_N(1) == -1.0
    assert asymptotic_bell_fixed_N(2) == pytest.approx(-4.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("N", [*range(21), 59, 60])
def test_asymptotics_match_exact_rationals(N):
    if N % 2:
        exact = -Fraction(N * N + 2 * N + 1, 2 * (N + 1))
    else:
        exact = -Fraction(N * N + 2 * N, 2 * (N + 1))
    assert asymptotic_bell_fixed_N(N) == float(exact)


def test_asymptotics_keep_their_bits_below_a_hundred_thousand():
    # Float division of exactly converted operands, correctly rounded while N (N + 2) < 2^53.
    for N in range(MAX_PHOTON_NUMBER + 1):
        float_division = -(N + 1) / 2.0 if N % 2 else -(N * (N + 2)) / (2.0 * (N + 1))
        assert asymptotic_bell_fixed_N(N) == float_division


def test_asymptotics_past_the_float_range_raise_value_error():
    # The limits stop where the count tables do, at MAX_PHOTON_NUMBER.
    for N in [61, 62, 10**400]:
        with pytest.raises(ValueError, match="exceeds supported range N <= 60"):
            asymptotic_bell_fixed_N(N)


@pytest.mark.parametrize("N", range(1, 13))
@pytest.mark.parametrize("L", [200, 500])
def test_finite_chain_converges_at_the_small_angle_rate(N, L):
    # Leading-order gap: the (2L-1) adjacent terms contribute
    # C_N (2L-1) sin^2(pi/4L) with C_N = N(N+2)/3 (from the |m-n|=1
    # amplitudes at small angle), i.e. ~ C_N pi^2 / (8L).
    gap = abs(bell_fixed_N(N, make_chain(L)).bell - asymptotic_bell_fixed_N(N))
    leading = N * (N + 2) / 3 * math.pi**2 / (8 * L)
    assert 0.8 * leading <= gap <= 1.001 * leading
    assert gap <= 0.35


def test_lhs_decays_with_chain_length():
    for N in [1, 3, 6]:
        values = [bell_fixed_N(N, make_chain(L)).lhs for L in [8, 12, 20, 40, 80, 160, 320]]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.1


def test_sv_asymptotic_examples():
    assert rhs_sv_asymptotic(0.8) == pytest.approx(1.094743, abs=1e-6)
    # small gain: sinh(2g)^3/sinh(4g) ~ 2 g^2
    gamma = 1e-3
    assert rhs_sv_asymptotic(gamma) / (2 * gamma**2) == pytest.approx(1.0, abs=1e-4)
    # high gain: grows like exp(2 gamma)/4
    gamma = 8.0
    assert rhs_sv_asymptotic(gamma) / math.exp(2 * gamma) == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("gamma", [120.0, _MAX_GAIN])
def test_sv_asymptotic_stays_finite_at_high_gain(gamma):
    # sinh(2g)^3 alone overflows above g ~ 118.3; the value stays finite up to the gain limit.
    assert rhs_sv_asymptotic(gamma) == pytest.approx(math.exp(2 * gamma) / 4, rel=1e-12)


def test_sv_asymptotic_matches_weighted_series():
    for gamma in [0.3, 0.8]:
        total = 0.0
        cumulative = 0.0
        for n in range(400):
            w = lambda_sq(n, gamma)
            cumulative += w
            total += w * (-asymptotic_bell_fixed_N(n))
            if 1.0 - cumulative < 1e-12:
                break
        assert total == pytest.approx(rhs_sv_asymptotic(gamma), rel=1e-9)


def test_sv_bell_matches_weighted_components():
    chain = make_chain(3)
    spec = SVSpec(gamma=0.5)
    eta = 0.9
    combined = bell_sv(chain, spec, eta)
    weighted = math.fsum(
        lambda_sq(n, 0.5) * bell_fixed_N(n, chain, eta).bell
        for n in range(combined.n_max + 1)
    )
    assert combined.bell == pytest.approx(weighted, abs=1e-10)
    assert combined.bell == combined.lhs - combined.rhs


@pytest.mark.parametrize("eta", [1.0, 0.9])
def test_sv_bell_declares_its_tables_truncation(eta):
    chain = make_chain(3)
    spec = SVSpec(gamma=0.8)
    for which in (spec, _at_mass(spec, GUARD_MASS)):
        result = bell_sv(chain, which, eta)
        # The spec's own values, bit for bit; its tables keep that mass to rounding.
        assert (result.n_max, result.mass) == (which.n_max, which.mass)
        table = kept_mixture(chain.theta, which, eta)
        assert table.max_count == which.n_max
        assert table.mass == pytest.approx(which.mass, abs=1e-14)
    fixed = bell_fixed_N(2, chain, eta)
    assert fixed.n_max is None and fixed.mass is None


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(0.05, 1.2, allow_nan=False),
    eta=st.floats(0.0, 1.0, allow_nan=False),
    L=st.integers(2, 200),
)
def test_gaussian_closed_form_bounds_the_truncated_mixture(gamma, eta, L):
    # mean_distance is the untruncated state's <|m - n|>_theta.
    chain = make_chain(L)
    result = bell_sv(chain, SVSpec(gamma), eta)
    # A dropped 2N-photon component has <|m - n|> <= N at any angle and eta.
    first = result.n_max + 1
    tail = math.fsum(series_weight(n, gamma) * n for n in range(first, first + 2000))
    slack = 1e-12
    lhs_gap = (2 * L - 1) * mean_distance(gamma, eta, chain.theta) - result.lhs
    assert -slack <= lhs_gap <= (2 * L - 1) * tail + slack
    assert -slack <= mean_distance(gamma, eta, chain.theta_prime) - result.rhs <= tail + slack


def test_sv_bell_breakdown_echoes_truncation():
    spec = SVSpec(gamma=0.8, mass_threshold=0.999)
    result = bell_sv(make_chain(4), spec)
    assert result.n_max == spec.n_max


def test_rhs_sv_asymptotic_validates_gain():
    with pytest.raises(ValueError):
        rhs_sv_asymptotic(0.0)
