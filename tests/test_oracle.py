"""Brute-force oracle tests: Fock construction, rotations, Monte-Carlo loss."""

import math

import numpy as np
import pytest

from svbell.errors import PhotonNumberRangeError
from svbell.loss import binomial_thin
from svbell.oracle import (
    build_singlet,
    mc_thin,
    oracle_joint_distribution,
    rotated_projection_amplitude,
)
from svbell.singlet import JointCountDistribution, joint_distribution, singlet_amplitudes

ANGLE_GRID = [0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]


def test_build_singlet_vacuum():
    assert build_singlet(0) == {(0, 0, 0, 0): 1.0}


def test_build_singlet_two_photons():
    state = build_singlet(1)
    root_half = 1.0 / math.sqrt(2.0)
    assert state[(0, 1, 1, 0)] == pytest.approx(root_half)
    assert state[(1, 0, 0, 1)] == pytest.approx(-root_half)
    assert len(state) == 2


def test_build_singlet_six_photons():
    state = build_singlet(3)
    assert len(state) == 4
    assert sorted(state.values()) == pytest.approx([-0.5, -0.5, 0.5, 0.5])
    assert state[(0, 3, 3, 0)] == pytest.approx(0.5)
    assert state[(1, 2, 2, 1)] == pytest.approx(-0.5)


@pytest.mark.parametrize("N", range(11))
def test_build_singlet_normalized(N):
    norm = sum(a * a for a in build_singlet(N).values())
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_build_singlet_range_error():
    with pytest.raises(PhotonNumberRangeError):
        build_singlet(11)


def test_rotated_projection_two_photon_hand_values():
    state = build_singlet(1)
    theta = 0.61
    # |1_{H+t}, 0> = cos t |1,0> + sin t |0,1>; overlap picks the +1/sqrt(2) term.
    amp = rotated_projection_amplitude(state, 1, 0, 0, theta)
    assert amp == pytest.approx(math.cos(theta) / math.sqrt(2.0), abs=1e-14)
    amp = rotated_projection_amplitude(state, 1, 0, 1, theta)
    assert amp == pytest.approx(-math.sin(theta) / math.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize("N", range(7))
def test_identity_rotation_recovers_fock_coefficients(N):
    state = build_singlet(N)
    for n in range(N + 1):
        for m in range(N + 1):
            amp = rotated_projection_amplitude(state, N, n, m, 0.0)
            expected = ((-1.0) ** n) / math.sqrt(N + 1) if m == n else 0.0
            assert amp == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("N", range(9))
@pytest.mark.parametrize("theta", ANGLE_GRID)
def test_oracle_matches_closed_form(N, theta):
    closed = joint_distribution(N, theta).probs
    brute = oracle_joint_distribution(N, theta)
    assert np.max(np.abs(closed - brute)) <= 1e-10


@pytest.mark.parametrize("N", range(7))
@pytest.mark.parametrize(
    "theta_a,theta_b",
    [(0.3, 0.75), (0.2, 1.5), (math.pi / 16, 3 * math.pi / 16), (1.1, 1.1)],
)
def test_joint_statistics_depend_only_on_relative_angle(N, theta_a, theta_b):
    absolute = oracle_joint_distribution(N, theta_b, theta_a)
    relative = joint_distribution(N, theta_b - theta_a).probs
    assert np.max(np.abs(absolute - relative)) <= 1e-10


def test_amplitude_level_agreement():
    # Not just probabilities: signs of the two independent paths agree too.
    for N in range(5):
        closed = singlet_amplitudes(N, 0.37)
        for n in range(N + 1):
            for m in range(N + 1):
                brute = rotated_projection_amplitude(build_singlet(N), N, n, m, 0.37)
                assert closed[n, m] == pytest.approx(brute, abs=1e-12)
                assert np.sign(closed[n, m]) == np.sign(brute)


def _delta_distribution(n, m, size):
    probs = np.zeros((size, size))
    probs[n, m] = 1.0
    return JointCountDistribution(probs=probs, mass=1.0)


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
    samples = 1_000_000
    empirical = mc_thin(_delta_distribution(3, 3, 4), 0.5, samples, seed=21)
    marginal = empirical.probs.sum(axis=1)
    expected = np.array([math.comb(3, k) for k in range(4)]) / 8
    sigma = np.sqrt(expected * (1.0 - expected) / samples)
    assert np.all(np.abs(marginal - expected) <= 3.0 * sigma)


@pytest.mark.parametrize("N,eta,seed", [
    (1, 0.5, 31),
    (1, 0.83, 32),
    (1, 0.95, 33),
    (4, 0.5, 11),
    (4, 0.83, 34),
    (4, 0.95, 12),
])
def test_mc_thin_matches_exact_channel(N, eta, seed):
    dist = joint_distribution(N, math.pi / 8)
    samples = 400_000
    exact = binomial_thin(dist, eta)
    empirical = mc_thin(dist, eta, samples, seed=seed)
    sigma = np.sqrt(exact.probs * (1.0 - exact.probs) / samples)
    inside = np.abs(empirical.probs - exact.probs) <= 3.0 * sigma + 1e-12
    assert np.all(inside)
    # Cells outside the thinned support must be exactly empty.
    assert np.all(empirical.probs[exact.probs == 0.0] == 0.0)


def test_mc_thin_validates_arguments():
    dist = joint_distribution(1, 0.0)
    with pytest.raises(ValueError):
        mc_thin(dist, 1.5, 100, seed=0)
    with pytest.raises(ValueError):
        mc_thin(dist, 0.5, 0, seed=0)
