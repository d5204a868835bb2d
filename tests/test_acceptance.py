"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are frozen; DERIVED values carry a note on how they were
computed.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gaussian_series import series_limit, series_weight
from svbell.chain import (
    asymptotic_bell_fixed_N,
    bell_fixed_N,
    bell_sv,
    make_chain,
    rhs_sv_asymptotic,
)
from svbell.lhv import lhv_minimum
from svbell.loss import binomial_thin
from svbell.oracle import l1_deviation_bound, mc_thin, oracle_joint_distribution
from svbell.singlet import joint_distribution
from svbell.sv import (
    SVSpec,
    correlation_visibility,
    lambda_sq,
    mean_photons_per_beam,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} ({name}): FAIL")
        raise
    print(f"criterion {number:>2} ({name}): PASS")


def test_criterion_01_closed_form_asymptotics():
    with criterion(1, "closed-form asymptotics"):
        assert asymptotic_bell_fixed_N(1) == -1.0
        assert asymptotic_bell_fixed_N(2) == float(-Fraction(4, 3))
        for N in range(21):
            if N % 2:
                exact = -Fraction(N * N + 2 * N + 1, 2 * (N + 1))
            else:
                exact = -Fraction(N * N + 2 * N, 2 * (N + 1))
            assert asymptotic_bell_fixed_N(N) == float(exact)


def test_criterion_02_finite_chain_convergence():
    # Calibrated gap at L=500: max over N<=6 is 0.0394 (N=6), matching the
    # analytic leading term N(N+2)/3 * pi^2/(8L); tolerance frozen at 0.05.
    with criterion(2, "finite-L convergence"):
        for N in range(7):
            gap_500 = abs(bell_fixed_N(N, make_chain(500)).bell - asymptotic_bell_fixed_N(N))
            assert gap_500 <= 0.05
            gap_1000 = abs(bell_fixed_N(N, make_chain(1000)).bell - asymptotic_bell_fixed_N(N))
            if N > 0:
                assert gap_1000 < gap_500


def test_criterion_03_sv_rhs_closed_form():
    with criterion(3, "squeezed-vacuum RHS closed form"):
        for gamma in [0.3, 0.8, 1.2]:
            total = 0.0
            cumulative = 0.0
            for n in range(2000):
                w = series_weight(n, gamma)
                cumulative += w
                total += w * (-series_limit(n))
                if cumulative >= 1.0 - 1e-10:
                    break
            assert cumulative >= 1.0 - 1e-10
            closed = rhs_sv_asymptotic(gamma)
            assert abs(total - closed) / closed <= 1e-6


def test_criterion_04_mean_photon_number():
    with criterion(4, "mean photon number"):
        mean = mean_photons_per_beam(0.8)
        assert mean == pytest.approx(1.577, abs=1e-3)
        assert round(mean, 1) == 1.6
        truncated = 0.0
        cumulative = 0.0
        for n in range(1000):
            w = lambda_sq(n, 0.8)
            cumulative += w
            truncated += w * n
            if cumulative >= 1.0 - 1e-10:
                break
        assert truncated == pytest.approx(mean, abs=1e-8)


def test_criterion_05_settings_sweep_and_asymptote():
    with criterion(5, "settings sweep reaches the closed-form asymptote"):
        spec = SVSpec(gamma=0.8, mass_threshold=1.0 - 1e-8)
        bells = [bell_sv(make_chain(L), spec).bell for L in [2, 3, 4, 6, 8, 12, 20, 40, 100]]
        # Strictly decreasing, negative at large L.  At this gain the low-N
        # components dominate and the value is already (slightly) negative at
        # L=2; computed value frozen from two independent amplitude paths.
        assert all(a > b for a, b in zip(bells, bells[1:]))
        assert bells[0] == pytest.approx(-0.081317, abs=1e-4)
        assert bells[-1] < -1.0
        asymptote = -rhs_sv_asymptotic(0.8)
        assert asymptote == pytest.approx(-1.094743, abs=1e-6)
        assert abs(bell_sv(make_chain(10_000), spec).bell - asymptote) <= 1e-3
        # The positive-start, sign-crossing shape appears at higher gain.
        high_gain = SVSpec(gamma=1.2, mass_threshold=0.9999)
        crossing = [bell_sv(make_chain(L), high_gain).bell for L in [2, 5, 10, 20, 40]]
        assert crossing[0] > 0.0
        assert crossing[-1] < 0.0


def test_criterion_06_efficiency_threshold():
    with criterion(6, "detection-efficiency threshold at two settings"):
        chain = make_chain(2)
        assert bell_fixed_N(1, chain, eta=1.0).bell == pytest.approx(-0.414, abs=1e-3)
        low, high = 0.7, 1.0
        for _ in range(50):
            mid = 0.5 * (low + high)
            if bell_fixed_N(1, chain, eta=mid).bell < 0.0:
                high = mid
            else:
                low = mid
        threshold = 0.5 * (low + high)
        assert abs(threshold - 2.0 / (1.0 + math.sqrt(2.0))) <= 0.01


def test_criterion_07_settings_thresholds():
    with criterion(7, "settings thresholds for larger photon numbers"):
        # Thresholds as reported on the plotted grid L in {2, 4, 6, 8, 10}:
        # eight photons need L >= 4 there, twelve need L >= 6.
        bells_8 = {L: bell_fixed_N(4, make_chain(L)).bell for L in range(2, 11)}
        assert bells_8[2] > 0.0
        assert all(bells_8[L] < 0.0 for L in (4, 6, 8, 10))
        bells_12 = {L: bell_fixed_N(6, make_chain(L)).bell for L in range(2, 11)}
        assert bells_12[2] > 0.0 and bells_12[4] > 0.0
        assert all(bells_12[L] < 0.0 for L in (6, 8, 10))
        # Exact thresholds refined by the full sweep (derived values).
        assert min(L for L, b in bells_8.items() if b < 0.0) == 3
        assert min(L for L, b in bells_12.items() if b < 0.0) == 5
        # Two photons, ten settings: deep violation, frozen derived bound.
        assert bell_fixed_N(1, make_chain(10)).bell <= -0.85


def test_criterion_08_oracle_equivalence():
    with criterion(8, "Fock-space oracle equivalence"):
        angles = [0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
        for N in range(9):
            for theta in angles:
                gap = np.max(
                    np.abs(joint_distribution(N, theta).probs - oracle_joint_distribution(N, theta))
                )
                assert gap <= 1e-10
        for N in range(7):
            for theta_a, theta_b in [(0.25, 0.85), (0.4, 1.5)]:
                gap = np.max(
                    np.abs(
                        oracle_joint_distribution(N, theta_b, theta_a)
                        - joint_distribution(N, theta_b - theta_a).probs
                    )
                )
                assert gap <= 1e-10


def test_criterion_09_lhv_bound_against_quantum_violation():
    with criterion(9, "local bound holds while quantum value violates"):
        # Exact minima over every strategy; (4, 12) covers all 13^8 of them
        # with counts 0..12 on 4 settings per side.
        for L, cap in [(2, 4), (3, 3), (3, 4), (4, 12)]:
            assert lhv_minimum(L, cap) == 0.0
        assert bell_fixed_N(1, make_chain(2), eta=1.0).bell < 0.0


def test_criterion_10_loss_channel_correctness():
    with criterion(10, "loss channel against Monte-Carlo"):
        dist = joint_distribution(4, math.pi / 8)
        eta = 0.83
        samples = 10**10
        exact = binomial_thin(dist, eta)
        empirical = mc_thin(dist, eta, samples, seed=20240817)
        # L1 deviation bound at alpha = 1e-3: holds for a correct sampler
        # with probability at least 1 - alpha at any seed.
        l1 = np.abs(empirical.probs - exact.probs).sum()
        assert l1 < l1_deviation_bound(exact.probs.size, samples, 1e-3)
        twice = binomial_thin(binomial_thin(dist, 0.9), 0.8)
        once = binomial_thin(dist, 0.72)
        assert np.max(np.abs(twice.probs - once.probs)) <= 1e-10


def test_criterion_11_visibility_limit():
    with criterion(11, "correlation visibility limit"):
        assert correlation_visibility(0.05) >= 0.99
        assert abs(correlation_visibility(6.0) - 1.0 / 3.0) <= 1e-3


def test_criterion_12_violation_region_shape():
    # Qualitative reproduction of the gain-efficiency map at two settings:
    # violation at high efficiency and small gain, none at eta = 0.5, and
    # none at high gain for L = 2.
    with criterion(12, "gain-efficiency violation region shape"):
        for gamma in [0.1, 0.2, 0.4]:
            assert bell_sv(make_chain(2), SVSpec(gamma=gamma), eta=1.0).bell < 0.0
        for gamma in [0.1, 0.4, 0.8, 1.2]:
            assert bell_sv(make_chain(2), SVSpec(gamma=gamma), eta=0.5).bell >= 0.0
        assert bell_sv(make_chain(2), SVSpec(gamma=1.3), eta=1.0).bell > 0.0
        tiny = bell_sv(make_chain(2), SVSpec(gamma=0.01), eta=1.0).bell
        assert abs(tiny) < 1e-3
