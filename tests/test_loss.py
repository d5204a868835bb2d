"""Bernoulli thinning channel tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svbell.loss import binomial_thin, thinning_matrix
from svbell.oracle import mc_thin
from svbell.singlet import MAX_PHOTON_NUMBER, joint_distribution, mean_abs_difference

HALF_PI = 0.5 * math.pi


def test_lossless_channel_is_identity():
    dist = joint_distribution(4, 0.33)
    thinned = binomial_thin(dist, 1.0)
    assert np.array_equal(thinned.probs, dist.probs)


def test_blind_channel_collects_all_mass_at_zero():
    dist = joint_distribution(3, 0.7)
    thinned = binomial_thin(dist, 0.0)
    assert thinned.probs[0, 0] == pytest.approx(dist.mass, abs=1e-12)
    assert thinned.probs.sum() == pytest.approx(dist.mass, abs=1e-12)
    others = thinned.probs.copy()
    others[0, 0] = 0.0
    assert np.all(others == 0.0)


def test_two_photon_perfect_correlation_table():
    # Ideal N=1, theta=0 table is diag(1/2, 1/2); thinning at eta gives
    #   P(1,1) = eta^2/2, P(1,0) = P(0,1) = eta(1-eta)/2,
    #   P(0,0) = 1/2 + (1-eta)^2/2.
    eta = 0.9
    thinned = binomial_thin(joint_distribution(1, 0.0), eta)
    expected = np.array(
        [
            [0.5 + 0.5 * (1 - eta) ** 2, 0.5 * eta * (1 - eta)],
            [0.5 * eta * (1 - eta), 0.5 * eta * eta],
        ]
    )
    assert np.max(np.abs(thinned.probs - expected)) <= 1e-12
    # cross-check by seeded Monte-Carlo realization of the same channel
    samples = 1_000_000
    empirical = mc_thin(joint_distribution(1, 0.0), eta, samples, seed=7)
    sigma = np.sqrt(expected * (1.0 - expected) / samples)
    assert np.all(np.abs(empirical.probs - expected) <= 3.0 * sigma + 1e-12)


@pytest.mark.parametrize("N", [1, 3, 5])
@pytest.mark.parametrize("eta", [0.0, 0.25, 0.83, 1.0])
def test_mass_preserved(N, eta):
    dist = joint_distribution(N, math.pi / 8)
    assert binomial_thin(dist, eta).mass == pytest.approx(dist.mass, abs=1e-9)


@pytest.mark.parametrize("N", [1, 2, 4])
def test_losses_break_perfect_correlation(N):
    ideal = joint_distribution(N, 0.0)
    assert mean_abs_difference(binomial_thin(ideal, 1.0)) == 0.0
    for eta in [0.3, 0.8, 0.99]:
        assert mean_abs_difference(binomial_thin(ideal, eta)) > 0.0


def test_thinning_composes_as_a_semigroup():
    dist = joint_distribution(4, 0.5)
    twice = binomial_thin(binomial_thin(dist, 0.9), 0.8)
    once = binomial_thin(dist, 0.9 * 0.8)
    assert np.max(np.abs(twice.probs - once.probs)) <= 1e-10


def test_output_size_matches_input():
    dist = joint_distribution(5, 0.4)
    assert binomial_thin(dist, 0.6).max_count == dist.max_count


@settings(max_examples=100, deadline=None)
@given(
    max_count=st.integers(0, MAX_PHOTON_NUMBER),
    eta=st.floats(0.0, 1.0, allow_nan=False),
)
def test_thinning_matrix_matches_exact_binomials(max_count, eta):
    # Each photon costs about two roundings per entry (1 - eta is rarely a
    # double, and each product is rounded), so the error bound grows like 2n
    # unit roundoffs; it is 1.4e-14 at n = 60.
    tol = (max_count + 1) * 2.0**-52
    t = thinning_matrix(max_count, eta)
    p = Fraction(eta)
    for n in range(max_count + 1):
        exact = [math.comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]
        assert np.max(np.abs(t[: n + 1, n] - np.array(exact, dtype=float))) <= tol
        assert np.all(t[n + 1 :, n] == 0.0)
        assert abs(math.fsum(t[:, n]) - 1.0) <= tol


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(0, MAX_PHOTON_NUMBER),
    theta=st.floats(0.0, HALF_PI, allow_nan=False),
    eta1=st.floats(0.0, 1.0, allow_nan=False),
    eta2=st.floats(0.0, 1.0, allow_nan=False),
)
def test_thinning_composes_over_the_whole_range(N, theta, eta1, eta2):
    dist = joint_distribution(N, theta)
    twice = binomial_thin(binomial_thin(dist, eta1), eta2)
    once = binomial_thin(dist, eta1 * eta2)
    assert np.max(np.abs(twice.probs - once.probs)) <= 1e-12


def test_thinning_matrix_columns_are_distributions():
    t = thinning_matrix(6, 0.37)
    assert t.sum(axis=0) == pytest.approx(np.ones(7), abs=1e-12)
    assert np.all(t[np.triu_indices(7, k=1)] >= 0.0)


def test_efficiency_validation():
    dist = joint_distribution(1, 0.0)
    with pytest.raises(ValueError):
        binomial_thin(dist, -0.1)
    with pytest.raises(ValueError):
        binomial_thin(dist, 1.1)
