"""Squeezed-vacuum weights, truncation policy, mixtures, and correlations."""

import math

import numpy as np
import pytest

from svbell.chain import rhs_sv_asymptotic
from svbell.errors import CapExceededError
from svbell.oracle import mc_thin
from svbell.singlet import joint_distribution
from svbell.sv import (
    SVSpec,
    correlation_visibility,
    intensity_correlation,
    lambda_sq,
    mean_photons_per_beam,
    n_max_for,
    sv_mixture,
    truncated_mass,
)


def test_vacuum_dominates_at_zero_gain():
    assert lambda_sq(0, 1e-9) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 0.8, 1.2, 1.5])
def test_weights_sum_to_one(gamma):
    total = math.fsum(lambda_sq(n, gamma) for n in range(201))
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8, 1.2])
def test_weights_reproduce_mean_photon_number(gamma):
    # Truncate once the cumulative weight is within 1e-12 of full mass.
    mean = 0.0
    cumulative = 0.0
    for n in range(1000):
        w = lambda_sq(n, gamma)
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


def test_truncation_point_small_gain():
    assert n_max_for(SVSpec(gamma=0.1)) == 1


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8, 0.9])
def test_truncation_point_below_ten_for_moderate_gain(gamma):
    assert n_max_for(SVSpec(gamma=gamma)) <= 10


def test_truncation_cap_exceeded_at_high_gain():
    with pytest.raises(CapExceededError):
        n_max_for(SVSpec(gamma=3.0))


def test_truncated_mass_reaches_threshold():
    spec = SVSpec(gamma=0.8)
    mass = truncated_mass(spec)
    assert mass >= spec.mass_threshold
    assert mass <= 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SVSpec(gamma=0.0)
    with pytest.raises(ValueError):
        SVSpec(gamma=0.5, mass_threshold=0.0)
    with pytest.raises(ValueError):
        SVSpec(gamma=0.5, n_max_cap=61)
    with pytest.raises(ValueError):
        lambda_sq(-1, 0.5)


@pytest.mark.parametrize("gamma", [0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "evaluate",
    [
        SVSpec,
        lambda g: lambda_sq(0, g),
        lambda g: intensity_correlation(0.0, 0.3, g),
        correlation_visibility,
        rhs_sv_asymptotic,
    ],
    ids=["SVSpec", "lambda_sq", "intensity_correlation", "correlation_visibility", "rhs_sv_asymptotic"],
)
def test_gain_must_be_positive_and_finite(evaluate, gamma):
    with pytest.raises(ValueError, match="gain must be positive and finite"):
        evaluate(gamma)


def test_mixture_is_vacuum_at_vanishing_gain():
    dist = sv_mixture(0.4, SVSpec(gamma=1e-4))
    assert dist.max_count == 0
    assert dist.probs[0, 0] == pytest.approx(1.0, abs=1e-7)


def test_mixture_has_diagonal_support_at_zero_angle():
    dist = sv_mixture(0.0, SVSpec(gamma=0.8))
    assert dist.mass >= 0.99
    size = dist.max_count + 1
    assert np.all(dist.probs[~np.eye(size, dtype=bool)] == 0.0)
    assert dist.probs.sum() == pytest.approx(dist.mass, abs=1e-9)


def test_mixture_mass_equals_truncated_weight_sum():
    spec = SVSpec(gamma=0.8)
    dist = sv_mixture(math.pi / 8, spec, eta=0.9)
    expected_mass = math.fsum(lambda_sq(n, 0.8) for n in range(dist.max_count + 1))
    assert dist.mass == pytest.approx(expected_mass, abs=1e-12)
    assert dist.probs.sum() == pytest.approx(expected_mass, abs=1e-9)


def test_lossy_mixture_against_monte_carlo():
    spec = SVSpec(gamma=0.8)
    exact = sv_mixture(math.pi / 8, spec, eta=0.9)
    lossless = sv_mixture(math.pi / 8, spec, eta=1.0)
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


def test_visibility_limits():
    assert correlation_visibility(0.05) >= 0.99
    assert correlation_visibility(6.0) == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert correlation_visibility(1e-6) == pytest.approx(1.0, abs=1e-9)
    gammas = [0.1, 0.5, 1.0, 2.0, 4.0]
    values = [correlation_visibility(g) for g in gammas]
    assert all(a > b for a, b in zip(values, values[1:]))
