"""Closed-form singlet statistics against hand-derived tables and the oracle."""

import math
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh_rotation import fresh_rotation
from svbell import singlet
from svbell.errors import PhotonNumberRangeError
from svbell.oracle import oracle_joint_distribution
from svbell.singlet import (
    MAX_PHOTON_NUMBER,
    _distances,
    joint_distribution,
    mean_abs_difference,
    singlet_amplitudes,
)

HALF_PI = 0.5 * math.pi


def test_two_photon_amplitudes_closed_form():
    theta = 0.37
    amp = singlet_amplitudes(1, theta)[0, 0]
    assert amp > 0.0
    assert amp == pytest.approx(math.cos(theta) / math.sqrt(2), rel=1e-14)
    assert amp**2 == pytest.approx(math.cos(theta) ** 2 / 2, rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 5, 10, 30, 60])
def test_diagonal_amplitude_at_zero_angle(N):
    amps = singlet_amplitudes(N, 0.0)
    for n in [0, N // 2, N]:
        assert amps[n, n] ** 2 == pytest.approx(1.0 / (N + 1), rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 5, 10, 30, 60])
def test_antidiagonal_amplitude_at_right_angle(N):
    amps = singlet_amplitudes(N, HALF_PI)
    for n in [0, N // 2, N]:
        assert amps[n, N - n] ** 2 == pytest.approx(1.0 / (N + 1), rel=1e-12)


def test_range_and_argument_errors():
    with pytest.raises(PhotonNumberRangeError):
        singlet_amplitudes(61, 0.1)
    with pytest.raises(PhotonNumberRangeError):
        joint_distribution(61, 0.1)
    with pytest.raises(ValueError):
        singlet_amplitudes(-1, 0.1)
    with pytest.raises(ValueError):
        singlet_amplitudes(2, HALF_PI + 1e-6)
    with pytest.raises(ValueError):
        joint_distribution(2, -0.1)
    with pytest.raises(ValueError):
        joint_distribution(2, HALF_PI + 1e-6)


def test_cached_tables_are_frozen():
    dist = joint_distribution(2, 0.3)
    with pytest.raises(ValueError):
        dist.probs[0, 0] = 5.0
    assert abs(joint_distribution(2, 0.3).mass - 1.0) <= 1e-12
    # The whole table, mass included, is built once and shared.
    assert joint_distribution(2, 0.3) is dist
    with pytest.raises(ValueError):
        _distances(3)[0, 1] = 7


@contextmanager
def empty_ladder_cache(max_tables=singlet._MAX_TABLES):
    with patch.multiple(singlet, _ladders=OrderedDict(), _MAX_TABLES=max_tables):
        yield singlet._ladders


def cached_tables(ladders):
    return [table for _, tables in ladders.values() for table in tables]


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
    max_tables=st.sampled_from([61, 150, singlet._MAX_TABLES]),
)
def test_ladder_tables_are_the_fresh_tables(requests, order, max_tables):
    # Any order of (N, theta) requests, with ladders dropped and regrown
    # under a small cache, gives the table a from-scratch build gives.
    if order != "as drawn":
        requests.sort(key=lambda r: r[0], reverse=order == "decreasing N")
    seen = {}
    with empty_ladder_cache(max_tables) as ladders:
        for N, theta, amplitudes in requests:
            d = fresh_rotation(N, theta)
            if amplitudes:
                signs = (-1.0) ** np.arange(N + 1)
                assert np.array_equal(singlet_amplitudes(N, theta), d * signs / math.sqrt(N + 1))
                continue
            dist = joint_distribution(N, theta)
            assert np.array_equal(dist.probs, d**2 / (N + 1))
            assert dist.mass == float(dist.probs.sum())
            assert not dist.probs.flags.writeable
            assert joint_distribution(N, theta) is dist
            tables = ladders[theta][1]
            earlier = seen.get((N, theta))
            if earlier and earlier[1] is tables:  # not dropped since: the same shared table
                assert earlier[0] is dist
            seen[(N, theta)] = (dist, tables)
        assert len(cached_tables(ladders)) <= max_tables


def test_ladder_cache_is_bounded():
    # Ladders at more angles than fit: the least recently grown go, and what
    # stays is no more than 512 tables of N = 60, the bound of the
    # per-(N, theta) cache the ladders replaced.
    thetas = [float(t) for t in np.linspace(0.1, 1.4, 30)]
    with empty_ladder_cache() as ladders:
        for theta in thetas:
            joint_distribution(20, theta)
        kept = list(ladders)
        assert kept == thetas[-24:]  # 24 ladders of 21 tables fit in 512
        joint_distribution(40, kept[0])  # grown, so the newest: the next oldest goes
        assert list(ladders) == kept[2:] + kept[:1]
        for theta in thetas:
            joint_distribution(MAX_PHOTON_NUMBER, theta)
        tables = cached_tables(ladders)
        assert len(tables) <= singlet._MAX_TABLES
        # Each paused ladder also holds its top D, the size of its last table.
        cached_bytes = sum(table.probs.nbytes for table in tables)
        cached_bytes += sum(own[-1].probs.nbytes for _, own in ladders.values())
        assert cached_bytes <= 512 * (MAX_PHOTON_NUMBER + 1) ** 2 * 8
        for theta in thetas:  # tiny ladders at many angles are bounded by count
            for n in range(3):
                joint_distribution(n, theta / 7)
        assert len(cached_tables(ladders)) <= singlet._MAX_TABLES


def test_one_angle_costs_one_step_per_photon(monkeypatch):
    steps = []
    step = singlet._step

    def counted(*args):
        steps.append(args[0].shape[0] - 1)
        return step(*args)

    monkeypatch.setattr(singlet, "_step", counted)
    with empty_ladder_cache():
        for n in range(MAX_PHOTON_NUMBER + 1):
            joint_distribution(n, 0.7)
        assert steps == list(range(MAX_PHOTON_NUMBER))
        for n in reversed(range(MAX_PHOTON_NUMBER + 1)):  # all read from the ladder
            joint_distribution(n, 0.7)
        assert len(steps) == MAX_PHOTON_NUMBER


def test_threads_sharing_the_ladders_get_the_tables_they_ask_for():
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
        with empty_ladder_cache(max_tables=61):  # ladders dropped and regrown often
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


def test_four_photon_mean_abs_difference_closed_form():
    # Hand-derived: d_2(theta) = (8/3) s^2 c^2 + (4/3) s^4.
    for theta in [0.15, math.pi / 8, 1.0]:
        s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
        assert mean_abs_difference(joint_distribution(2, theta)) == pytest.approx(
            (8 / 3) * s2 * c2 + (4 / 3) * s2 * s2, rel=1e-12
        )
