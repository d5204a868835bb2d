"""Bernoulli thinning channel tests."""

import gc
import math
import random
import sys
import threading
import weakref
from contextlib import contextmanager
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh_rotation import fresh_rotation
from svbell import loss
from svbell.chain import bell_sv, make_chain
from svbell.loss import _grown, binomial_thin, thinning_matrix
from svbell.oracle import l1_deviation_bound, mc_thin
from svbell.singlet import (
    MAX_PHOTON_NUMBER,
    joint_distribution,
    mean_abs_difference,
)
from svbell.sv import SVSpec, lambda_sq

HALF_PI = 0.5 * math.pi


def pascal_table(max_count, eta, start=np.ones((1, 1))):
    """Binomial table built for this size alone, with no shared state.

    Pascal's rule runs on from the block ``start``; the default, the table
    up to 0 photons, gives the binomial table.
    """
    t = np.zeros((max_count + 1, max_count + 1))
    t[: len(start), : len(start)] = start
    for n in range(len(start), max_count + 1):
        t[:, n] = (1.0 - eta) * t[:, n - 1]
        t[1:, n] += eta * t[:-1, n - 1]
    return t


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
    samples = 10**10
    empirical = mc_thin(joint_distribution(1, 0.0), eta, samples, seed=7)
    # L1 deviation bound at alpha = 1e-3 over the 4 cells.
    assert np.abs(empirical.probs - expected).sum() < l1_deviation_bound(4, samples, 1e-3)


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
    # eta = a / b exactly; int / int is correctly rounded, so each entry is
    # the exact binomial probability rounded once.
    a, b = eta.as_integer_ratio()
    for n in range(max_count + 1):
        exact = [math.comb(n, x) * a**x * (b - a) ** (n - x) / b**n for x in range(n + 1)]
        assert np.max(np.abs(t[: n + 1, n] - np.array(exact))) <= tol
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


@pytest.mark.parametrize("eta", [0.0, 0.37, 0.83, 1.0])
@pytest.mark.parametrize("max_count", [0, 1, 2, 7, 30, MAX_PHOTON_NUMBER])
def test_shared_thinning_matrix_is_the_fresh_table_and_read_only(max_count, eta):
    t = thinning_matrix(max_count, eta)
    assert np.array_equal(t, pascal_table(max_count, eta))
    assert not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0] = 0.5
    assert np.array_equal(thinning_matrix(max_count, eta), pascal_table(max_count, eta))


@contextmanager
def empty_thinning_cache():
    with patch.object(loss, "_thinning_table", lru_cache(maxsize=64)(loss._thinning_table.__wrapped__)):
        yield


GROWTH_ORDERS = {
    "increasing": list(range(MAX_PHOTON_NUMBER + 1)),
    "decreasing": list(range(MAX_PHOTON_NUMBER, -1, -1)),
    "shuffled": random.Random(24).choices(range(MAX_PHOTON_NUMBER + 1), k=40),
}


@pytest.mark.parametrize("eta", [0.0, 0.37, 0.5, 0.83, 1 - 1e-12, 1.0])
@pytest.mark.parametrize("order", GROWTH_ORDERS)
def test_grown_tables_are_bitwise_blocks_of_the_full_table(order, eta):
    # However the sizes come, every view is the leading block of a table
    # built to the photon-number limit at once, and stays so after the
    # table has been extended past it.
    full = pascal_table(MAX_PHOTON_NUMBER, eta).view(np.uint64)
    handed_out = []
    with empty_thinning_cache():
        for k in GROWTH_ORDERS[order]:
            t = thinning_matrix(k, eta)
            assert not t.flags.writeable
            assert np.array_equal(t.view(np.uint64), full[: k + 1, : k + 1])
            handed_out.append(t)
    for t in handed_out:
        assert np.array_equal(t.view(np.uint64), full[: len(t), : len(t)])


def test_growing_continues_from_the_table_it_is_given():
    # A block of another efficiency shows that the old block is copied, not
    # rebuilt, and that the rule runs on only over the new columns.
    start = pascal_table(9, 0.37)
    start.setflags(write=False)
    grown = _grown(start, 21, 0.83)
    assert np.array_equal(grown.view(np.uint64), pascal_table(20, 0.83, start).view(np.uint64))
    assert np.array_equal(start, pascal_table(9, 0.37))
    assert not grown.flags.writeable


def test_thinning_cache_is_bounded():
    # Tables of more efficiencies than fit, each grown several times: at most
    # 64 efficiencies' tables stay alive, whatever holds them, and every
    # superseded table is freed, so the cache holds at most 64 x 61^2 x 8 B.
    held = []
    for eta in np.linspace(0.01, 0.99, 100):
        for k in (1, 7, 30, MAX_PHOTON_NUMBER):
            held.append(weakref.ref(thinning_matrix(k, float(eta)).base))
    gc.collect()
    live = [table for table in (ref() for ref in held) if table is not None]
    assert held[-1]() is not None  # the efficiency used last is kept
    assert len(live) <= 64
    assert sum(table.nbytes for table in live) <= 64 * (MAX_PHOTON_NUMBER + 1) ** 2 * 8


def test_threads_growing_one_table_get_the_blocks_they_ask_for():
    etas = [0.37, 0.5, 0.83]
    full = {eta: pascal_table(MAX_PHOTON_NUMBER, eta) for eta in etas}
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                k, eta = rng.randrange(MAX_PHOTON_NUMBER + 1), rng.choice(etas)
                if not np.array_equal(thinning_matrix(k, eta), full[eta][: k + 1, : k + 1]):
                    wrong.append((k, eta))
        except Exception as exc:  # reported by the assert below
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with empty_thinning_cache():
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_thinning_matrix_size_validation():
    with pytest.raises(ValueError, match="exceeds supported range"):
        thinning_matrix(MAX_PHOTON_NUMBER + 1, 0.5)
    with pytest.raises(ValueError):
        thinning_matrix(-1, 0.5)


def test_bell_sv_matches_an_uncached_mixture_build():
    # One lossless mixture per angle, thinned once, then its |i - j| average.
    chain, spec, eta = make_chain(3), SVSpec(0.9), 0.8
    size = spec.n_max + 1

    def mean_abs(theta):
        probs = np.zeros((size, size))
        for n in range(size):
            probs[: n + 1, : n + 1] += lambda_sq(n, spec.gamma) * (fresh_rotation(n, theta) ** 2 / (n + 1))
        t = pascal_table(size - 1, eta)
        counts = np.arange(size)
        distances = np.abs(counts[:, None] - counts[None, :])
        return float(np.sum(distances * (t @ probs @ t.T)))

    lhs = (2 * chain.L - 1) * mean_abs(chain.theta)
    rhs = mean_abs(chain.theta_prime)
    for _ in range(2):  # the second call runs on filled caches
        result = bell_sv(chain, spec, eta)
        assert (result.lhs, result.rhs, result.bell) == (lhs, rhs, lhs - rhs)


def test_efficiency_validation():
    dist = joint_distribution(1, 0.0)
    with pytest.raises(ValueError):
        binomial_thin(dist, -0.1)
    with pytest.raises(ValueError):
        binomial_thin(dist, 1.1)
