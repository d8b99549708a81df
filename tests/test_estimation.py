"""Estimation strategies against the (m + 1) / (m + d) law."""

import copy
import math

import numpy as np
import pytest

from qwitness.errors import DimensionError
from qwitness.estimation import (
    basis_measure_guess,
    covariant_estimate,
    mean_estimation_fsq,
)
from qwitness.qudit import PureState, fidelity_sq, haar_complement, haar_random


def test_law_values():
    assert mean_estimation_fsq(0, 2) == pytest.approx(1 / 2)
    assert mean_estimation_fsq(0, 5) == pytest.approx(1 / 5)
    assert mean_estimation_fsq(1, 2) == pytest.approx(2 / 3)
    assert mean_estimation_fsq(3, 4) == pytest.approx(4 / 7)


def test_law_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        mean_estimation_fsq(1, 1)
    with pytest.raises(ValueError):
        mean_estimation_fsq(-1, 2)


def test_law_monotone_in_copies_and_dimension():
    for d in range(2, 11):
        values = [mean_estimation_fsq(m, d) for m in range(11)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    for m in range(11):
        values = [mean_estimation_fsq(m, d) for d in range(2, 11)]
        assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_covariant_estimate_matches_law(m, d):
    rng = np.random.default_rng(100 * m + d)
    trials = 50_000
    values = np.empty(trials)
    for i in range(trials):
        eta = haar_random(d, rng)
        values[i] = fidelity_sq(covariant_estimate(eta, m, rng), eta)
    target = mean_estimation_fsq(m, d)
    se = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - target) <= 4 * se


@pytest.mark.parametrize("m", [1, 2])
def test_covariant_estimate_keeps_the_random_stream(m):
    # F ~ Beta(m + 1, d - 1), then one Haar column on the complement of eta.
    rng = np.random.default_rng(60 + m)
    for d in [*range(2, 17), 64]:
        for _ in range(20):
            eta = haar_random(d, rng)
            clone = copy.deepcopy(rng)
            guess = covariant_estimate(eta, m, rng)
            f = clone.beta(m + 1, d - 1)
            r = haar_complement(eta.amplitudes, 1, clone)[:, 0]
            phi = math.sqrt(f) * eta.amplitudes + math.sqrt(1.0 - f) * r
            assert np.max(np.abs(guess.amplitudes - phi / np.linalg.norm(phi))) <= 1e-15
            assert not guess.amplitudes.flags.writeable
            assert rng.bit_generator.state == clone.bit_generator.state


def beta_cdf(x, a, b):
    """CDF of Beta(a, b) for integer a, b: P(Binomial(a + b - 1, x) >= a)."""
    k = a + b - 1
    return sum(math.comb(k, j) * x**j * (1 - x) ** (k - j) for j in range(a, k + 1))


@pytest.mark.parametrize("m, d", [(1, 2), (3, 3), (8, 4), (20, 6)])
def test_covariant_estimate_samples_beta_posterior(m, d):
    rng = np.random.default_rng(300 + 10 * m + d)
    trials = 20_000
    eta = haar_random(d, rng)
    # A fixed direction orthogonal to eta probes the complement part.
    v = np.eye(d)[0] - eta.amplitudes.conj()[0] * eta.amplitudes
    v /= np.linalg.norm(v)
    fsq, off = np.empty(trials), np.empty(trials)
    for i in range(trials):
        guess = covariant_estimate(eta, m, rng)
        fsq[i] = fidelity_sq(guess, eta)
        off[i] = abs(np.vdot(v, guess.amplitudes)) ** 2
    a, b = m + 1, d - 1
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    for x in (mean - sd, mean, mean + sd):
        p = beta_cdf(x, a, b)
        hits = np.count_nonzero(fsq <= x) / trials
        assert abs(hits - p) <= 4 * math.sqrt(p * (1 - p) / trials), x
    # Haar on the complement spreads the remaining weight 1 - F evenly.
    target = (1 - mean_estimation_fsq(m, d)) / (d - 1)
    se = off.std(ddof=1) / math.sqrt(trials)
    assert abs(off.mean() - target) <= 4 * se


def test_covariant_estimate_concentrates_for_many_copies():
    rng = np.random.default_rng(16)
    trials = 1000
    values = np.empty(trials)
    for i in range(trials):
        eta = haar_random(2, rng)
        values[i] = fidelity_sq(covariant_estimate(eta, 200, rng), eta)
    assert values.mean() > 0.95


def test_covariant_estimate_rejects_zero_copies():
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError):
        covariant_estimate(haar_random(2, rng), 0, rng)


def test_basis_guess_on_basis_state():
    rng = np.random.default_rng(19)
    eta = PureState([0, 0, 1, 0])
    assert fidelity_sq(basis_measure_guess(eta, rng), eta) == pytest.approx(1.0)
