"""Two copies of the EPR state are the polarization supersinglet.

The four-mode squeezed vacuum is built here as a Gaussian state, two
two-mode squeezed vacua, aH-bV and aV-bH, from its covariance matrix alone.
The probability generating function of the counts of a Gaussian state with
covariance V (vacuum I/2) over the counted modes is

    G(z) = det(I + (V - I/2)(I - Z))^(-1/2),

Z holding each mode's z once in the x block and once in the p block
(Dodonov, Man'ko and Man'ko, PRA 50, 813 (1994); Weedbrook et al., RMP 84,
621 (2012)).  It shares no code with the singlet tables, so matching it with
the lambda_N^2-weighted singlet mixture checks the paper's identity.
"""

import math
import random

import numpy as np

from svbell.loss import binomial_thin
from svbell.singlet import MAX_PHOTON_NUMBER, joint_distribution
from svbell.sv import lambda_sq

# Modes aH, aV, bH, bV; the x block, then the p block.
A_H, B_V = 0, 3


def two_copies_pgf(gamma, eta, theta, z_a, z_b):
    """G(z_a, z_b) of Alice's H count and Bob's count at his V + theta port."""
    ch, sh = math.cosh(2.0 * gamma) / 2.0, math.sinh(2.0 * gamma) / 2.0
    v = np.diag([ch] * 8)
    # aH-bV squeezed with +, aV-bH with -: x cross-covariance +-sh, p cross-covariance -+sh.
    for i, j, sign in [(0, 3, 1.0), (1, 2, -1.0)]:
        v[i, j] = v[j, i] = sign * sh
        v[4 + i, 4 + j] = v[4 + j, 4 + i] = -sign * sh
    # Bob's analyzer rotates (bH, bV) by theta, alike in the x and p blocks.
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.eye(8)
    for k in (0, 4):
        rotation[k + 2 : k + 4, k + 2 : k + 4] = [[c, s], [-s, c]]
    v = rotation @ v @ rotation.T
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

