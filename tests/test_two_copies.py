"""Two copies of the EPR state are the polarization supersinglet.

The four-mode squeezed vacuum is built here as a Gaussian state, two
two-mode squeezed vacua, aH-bV and aV-bH, from its covariance matrix alone.
The probability generating function of the counts of a Gaussian state with
covariance V (vacuum I/2) over the counted modes is

    G(z) = det(I + (V - I/2)(I - Z))^(-1/2),

Z holding each mode's z once in the x block and once in the p block
(Dodonov, Man'ko and Man'ko, PRA 50, 813 (1994); Weedbrook et al., RMP 84,
621 (2012)).  It shares no code with the singlet tables, so matching it with
the lambda_N^2-weighted singlet mixture checks the paper's identity.  The
closed forms of ``sv`` are moments of the same covariance.
"""

import math
import random

import numpy as np
import pytest

from svbell.loss import binomial_thin
from svbell.singlet import MAX_PHOTON_NUMBER, joint_distribution
from svbell.sv import correlation_visibility, count_table, intensity_correlation, lambda_sq, mean_photons_per_beam

# Modes aH, aV, bH, bV; the x block, then the p block.
A_H, B_H, B_V = 0, 2, 3


def two_copies_covariance(gamma, theta_a, theta_b):
    """Covariance of the four modes after Alice's analyzer at theta_a and Bob's at theta_b."""
    ch, sh = math.cosh(2.0 * gamma) / 2.0, math.sinh(2.0 * gamma) / 2.0
    v = np.diag([ch] * 8)
    # aH-bV squeezed with +, aV-bH with -: x cross-covariance +-sh, p cross-covariance -+sh.
    for i, j, sign in [(0, 3, 1.0), (1, 2, -1.0)]:
        v[i, j] = v[j, i] = sign * sh
        v[4 + i, 4 + j] = v[4 + j, 4 + i] = -sign * sh
    # Each analyzer rotates its side's (H, V) by its angle, alike in the x and p blocks.
    rotation = np.eye(8)
    for k in (0, 4):
        for first, angle in [(0, theta_a), (2, theta_b)]:
            c, s = math.cos(angle), math.sin(angle)
            rotation[k + first : k + first + 2, k + first : k + first + 2] = [[c, s], [-s, c]]
    return rotation @ v @ rotation.T


def two_copies_pgf(gamma, eta, theta, z_a, z_b):
    """G(z_a, z_b) of Alice's H count and Bob's count at his V + theta port."""
    v = two_copies_covariance(gamma, 0.0, theta)
    v = eta * v + (1.0 - eta) * np.eye(8) / 2.0
    counted = [A_H, B_V, 4 + A_H, 4 + B_V]
    reduced = v[np.ix_(counted, counted)]
    z = np.diag([z_a, z_b, z_a, z_b])
    return np.linalg.det(np.eye(4) + (reduced - np.eye(4) / 2.0) @ (np.eye(4) - z)) ** -0.5


def supersinglet_pgf(gamma, eta, theta, z_a, z_b):
    """sum_{N <= 60} lambda_N^2 sum_{n, m} z_a^n p(n, m) z_b^m, p the thinned singlet table, and the weight kept."""
    total, kept = 0.0, 0.0
    for N in range(MAX_PHOTON_NUMBER + 1):
        weight = lambda_sq(N, gamma)
        probs = binomial_thin(joint_distribution(N, theta), eta).probs
        powers = np.arange(N + 1)
        total += weight * (z_a**powers @ probs @ z_b**powers)
        kept += weight
    return total, kept


CORNERS = [
    (gamma, eta, theta, z_a, z_b)
    for gamma in [0.05, 1.0]
    for eta in [0.0, 1.0]
    for theta in [0.0, math.pi / 2]
    for z_a, z_b in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]
]


def test_two_epr_copies_equal_the_supersinglet():
    # |z| <= 1 bounds each omitted term by its weight, so the two sides
    # differ by at most the weight beyond N = 60, plus rounding.
    # 200 seeded points: gamma in [0.05, 1], the rest over their whole ranges.
    rng = random.Random(36)
    seeded = [
        (rng.uniform(0.05, 1.0), rng.random(), rng.uniform(0.0, math.pi / 2), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for _ in range(200)
    ]
    for gamma, eta, theta, z_a, z_b in CORNERS + seeded:
        series, kept = supersinglet_pgf(gamma, eta, theta, z_a, z_b)
        gaussian = two_copies_pgf(gamma, eta, theta, z_a, z_b)
        assert abs(gaussian - series) <= 1.0 - kept + 1e-14, (gamma, eta, theta, z_a, z_b)


def test_the_exact_count_table_is_the_two_copies_generating_function():
    # count_table shares no code with the covariance: it runs the recurrence
    # of 1/D, D the Gaussian generating function's denominator.  |z| <= 1
    # bounds the omitted counts by the mass the table drops.
    rng = random.Random(45)
    seeded = [
        (rng.uniform(0.05, 1.0), rng.random(), rng.uniform(0.0, math.pi / 2), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for _ in range(200)
    ]
    for gamma, eta, theta, z_a, z_b in CORNERS + seeded:
        table = count_table(theta, gamma, eta, 1.0 - 1e-12)
        powers = np.arange(table.max_count + 1)
        exact = z_a**powers @ table.probs @ z_b**powers
        gaussian = two_copies_pgf(gamma, eta, theta, z_a, z_b)
        assert abs(gaussian - exact) <= 1.0 - table.mass + 1e-14, (gamma, eta, theta, z_a, z_b)


def second_moments(v, j, k):
    """<a_j^dag a_k> and <a_j a_k> from the covariance v, which has no x-p terms."""
    xx, pp = v[j, k], v[4 + j, 4 + k]
    return (xx + pp) / 2.0 - (j == k) / 2.0, (xx - pp) / 2.0


def count_correlation(gamma, theta_a, theta_b, bob=B_V):
    """<n_A n_B> = <n_A><n_B> + |<a_A^dag a_B>|^2 + |<a_A a_B>|^2 (Gaussian, zero mean)."""
    v = two_copies_covariance(gamma, theta_a, theta_b)
    normal, anomalous = second_moments(v, A_H, bob)
    return second_moments(v, A_H, A_H)[0] * second_moments(v, bob, bob)[0] + normal**2 + anomalous**2


@pytest.mark.parametrize("gamma", [0.3, 0.8])
def test_closed_forms_are_moments_of_the_two_copies(gamma):
    # Alice's aH port carries the mean count of one mode, sinh(gamma)^2, and her beam two such modes.
    mean_count = second_moments(two_copies_covariance(gamma, 0.0, 0.0), A_H, A_H)[0]
    assert mean_photons_per_beam(gamma) == pytest.approx(2.0 * mean_count, rel=1e-12)
    # The fringe is Alice's H port against Bob's V port, the partner of her photons at equal angles.
    for theta_a, theta_b in [(0.0, 0.0), (0.3, 1.1), (1.2, -0.4), (2.0, 0.5)]:
        expected = count_correlation(gamma, theta_a, theta_b)
        assert intensity_correlation(theta_a, theta_b, gamma) == pytest.approx(expected, rel=1e-12)
    top, bottom = count_correlation(gamma, 0.0, 0.0), count_correlation(gamma, 0.0, 0.5 * math.pi)
    assert correlation_visibility(gamma) == pytest.approx((top - bottom) / (top + bottom), rel=1e-12)
    # Bob's H port sees the fringe shifted by pi/2: its peak is the V port's trough.
    assert count_correlation(gamma, 0.0, 0.0, bob=B_H) == pytest.approx(bottom, rel=1e-12)
