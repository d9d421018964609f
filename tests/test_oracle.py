"""Exhaustive enumeration against closed forms and hand-computed laws."""

import math

import numpy as np
import pytest

from brierlab.analytic import clt_normal_approx, expected_bs, variance_single
from brierlab.errors import EnumerationBudgetError
from brierlab.oracle import (
    ATOM_MERGE_TOL,
    ENUMERATION_LIMIT,
    EXCEEDANCE_TIE_TOL,
    exact_distribution,
    exact_exceedance_probability,
    exact_expected_bs,
)


def reference_support(p, q):
    """The atom merge as a plain loop: one fsum per atom, over sorted scores."""
    n = len(p)
    y = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    scores, masses = np.zeros(1 << n), np.ones(1 << n)
    for j in range(n):
        d = p[j] - y[:, j]
        scores = scores + d * d
        masses = masses * np.where(y[:, j] == 1, q[j], 1 - q[j])
    scores = scores / n
    order = np.argsort(scores, kind="stable")
    scores, masses = scores[order], masses[order]
    support = []
    start = 0
    while start < scores.size:
        stop = start + 1
        while stop < scores.size and scores[stop] - scores[stop - 1] <= ATOM_MERGE_TOL:
            stop += 1
        group_mass = math.fsum(masses[start:stop])
        if group_mass > 0.0:
            value = math.fsum(scores[start:stop] * masses[start:stop]) / group_mass
        else:
            value = float(scores[start])
        support.append((float(value), float(group_mass)))
        start = stop
    return tuple(support)


def vectorised_enumeration(p, q):
    """Every outcome vector with its np.mean score and its probability, as one matrix pass."""
    n = len(p)
    y = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    scores = np.mean((p[None, :] - y) ** 2, axis=1)
    masses = np.prod(np.where(y == 1.0, q[None, :], 1.0 - q[None, :]), axis=1)
    return y, scores, masses


def reference_exceedance(q):
    """The exceedance as a 2^n enumeration compared in score units."""
    q = np.asarray(q, dtype=float)
    y, scores, masses = vectorised_enumeration(q, q)
    ybar = np.mean(y, axis=1)
    return math.fsum(masses[scores > ybar - ybar * ybar + EXCEEDANCE_TIE_TOL])


def constant_exceedance(c, n):
    """1 - P(Binomial(n, c) = nc): BS(c, y) - (ybar - ybar^2) = (c - ybar)^2."""
    k = n * c
    if not k.is_integer():
        return 1.0
    k = int(k)
    return 1.0 - math.comb(n, k) * c**k * (1.0 - c) ** (n - k)


class TestExactExpected:
    def test_single_half(self):
        assert exact_expected_bs([0.5], [0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_quarter_prediction_for_tenth_truth(self):
        assert exact_expected_bs([0.25], [0.1]) == pytest.approx(0.1125, abs=1e-15)

    def test_four_outcome_enumeration(self):
        assert exact_expected_bs([0.1, 0.9], [0.1, 0.9]) == pytest.approx(0.09, abs=1e-12)

    def test_matches_analytic_randomly(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            q = rng.random(n)
            assert exact_expected_bs(p, q) == pytest.approx(expected_bs(p, q), abs=1e-12)

    def test_multi_chunk_path(self, rng):
        # n = 17 forces more than one enumeration chunk
        p = rng.random(17)
        q = rng.random(17)
        assert exact_expected_bs(p, q) == pytest.approx(expected_bs(p, q), abs=1e-12)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            exact_expected_bs([0.5] * 21, [0.5] * 21)


class TestExactDistribution:
    def test_single_atom(self):
        dist = exact_distribution([0.5], [0.5])
        assert dist.support == ((0.25, 1.0),)

    def test_two_atoms(self):
        dist = exact_distribution([0.1], [0.1])
        values = [v for v, _ in dist.support]
        masses = [m for _, m in dist.support]
        assert values == pytest.approx([0.01, 0.81], abs=1e-15)
        assert masses == pytest.approx([0.9, 0.1], abs=1e-15)

    def test_three_atoms(self):
        dist = exact_distribution([0.0, 0.0], [0.5, 0.5])
        assert [v for v, _ in dist.support] == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)
        assert [m for _, m in dist.support] == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_merging_collapses_identical_scores(self):
        # every outcome scores exactly 0.25
        dist = exact_distribution([0.5] * 8, [0.3] * 8)
        assert len(dist.support) == 1
        assert dist.support[0][0] == pytest.approx(0.25, abs=1e-15)

    def test_mass_and_moments(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            q = rng.random(n)
            dist = exact_distribution(p, q)
            assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
            assert all(m >= 0 for _, m in dist.support)
            assert all(0.0 <= v <= 1.0 for v, _ in dist.support)
            assert dist.mean() == pytest.approx(expected_bs(p, q), abs=1e-12)
            per_term = sum(variance_single(pi, qi) for pi, qi in zip(p, q))
            assert dist.variance() == pytest.approx(per_term / n**2, abs=1e-12)

    def test_variance_matches_normal_approx_aggregation(self, rng):
        p, q = rng.random(9), rng.random(9)
        summary = clt_normal_approx(p, q)
        dist = exact_distribution(p, q)
        assert math.sqrt(dist.variance()) == pytest.approx(summary.sd_of_mean, abs=1e-12)

    @pytest.mark.parametrize("inputs", ["distinct", "rounded", "constant", "zero_mass"])
    def test_support_equals_reference_merge(self, rng, inputs):
        for _ in range(25):
            n = int(rng.integers(1, 13))
            p, q = rng.random(n), rng.random(n)
            if inputs == "rounded":
                p = np.round(p, 1)  # many scores tie, so atoms hold several
            elif inputs == "constant":
                p = np.full(n, 0.1 * int(rng.integers(0, 11)))
            elif inputs == "zero_mass":
                q[rng.random(n) < 0.5] = 0.0
            dist = exact_distribution(p, q)
            assert dist.support == reference_support(p, q)
            assert dist.n == n

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_support_equals_reference_merge_across_chunks(self, rng, decimals):
        # n = 17 enumerates two chunks; rounded p gives atoms drawn from both
        p, q = rng.uniform(0.15, 0.85, 17), rng.random(17)
        if decimals is not None:
            p = np.round(p, decimals)
        assert exact_distribution(p, q).support == reference_support(p, q)

    def test_large_support_has_every_outcome(self, rng):
        # n = 18 spans several enumeration chunks; distinct p gives distinct scores
        p = rng.uniform(0.15, 0.85, 18)
        q = rng.random(18)
        assert len(exact_distribution(p, q).support) == 2**18

    def test_support_within_ulps_of_vectorised_enumeration(self, rng):
        # the table sums squared errors in case order, np.mean sums them pairwise
        for _ in range(25):
            n = int(rng.integers(1, 13))
            p, q = rng.random(n), rng.random(n)
            _, scores, masses = vectorised_enumeration(p, q)
            order = np.argsort(scores, kind="stable")
            dist = exact_distribution(p, q)
            assert dist.values.size == dist.masses.size == 1 << n
            assert np.abs(dist.values - scores[order]).max() <= 1e-15
            assert np.abs(dist.masses - masses[order]).max() <= 1e-15

    def test_arrays_are_read_only_and_back_the_moments(self, rng):
        p, q = rng.random(9), rng.random(9)
        dist = exact_distribution(p, q)
        assert dist.values.dtype == dist.masses.dtype == np.float64
        with pytest.raises(ValueError):
            dist.values[0] = 0.0
        with pytest.raises(ValueError):
            dist.masses[0] = 0.0
        assert dist.support == tuple(zip(dist.values.tolist(), dist.masses.tolist()))
        assert dist.mean() == math.fsum(v * m for v, m in dist.support)
        assert dist.total_mass() == math.fsum(m for _, m in dist.support)


class TestExceedance:
    def test_all_zero_truths(self):
        assert exact_exceedance_probability([0.0, 0.0]) == 0.0

    def test_two_half_case(self):
        # BS is 0.25 for all four outcomes; the benchmark is 0 for y in
        # {(0,0), (1,1)} and 0.25 otherwise, so exactly half the mass exceeds
        assert exact_exceedance_probability([0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_ten_halves_closed_form(self):
        # exceed iff ybar != 1/2, i.e. unless exactly 5 of 10 events occur
        expected = 1.0 - math.comb(10, 5) / 2.0**10
        assert exact_exceedance_probability([0.5] * 10) == pytest.approx(expected, abs=1e-12)
        assert exact_exceedance_probability([0.5] * 10) > 0.0

    def test_ten_fifths_closed_form(self):
        # for constant 0.2 truths exceedance fails only at k = 2 successes
        expected = 1.0 - math.comb(10, 2) * 0.2**2 * 0.8**8
        assert exact_exceedance_probability([0.2] * 10) == pytest.approx(expected, abs=1e-12)

    def test_exact_ties_do_not_count(self):
        # constant 0.5 with n = 2: outcomes (0,1), (1,0) tie exactly
        assert exact_exceedance_probability([0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("inputs", ["beta", "half", "quarter", "rounded", "extremes"])
    def test_matches_enumeration(self, rng, inputs):
        for _ in range(40):
            n = int(rng.integers(1, 15))
            if inputs == "beta":
                q = rng.beta(2.0, 5.0, n)
            elif inputs == "half":
                q = np.full(n, 0.5)  # exact ties wherever k = n / 2
            elif inputs == "quarter":
                q = np.full(n, 0.25)
            elif inputs == "rounded":
                q = np.round(rng.random(n), 1)
            else:
                q = rng.choice([0.0, 1.0, 0.3, 0.8], n)
            assert abs(exact_exceedance_probability(q) - reference_exceedance(q)) <= 1e-15

    @pytest.mark.parametrize("n", [30, 40])
    @pytest.mark.parametrize("c", [0.5, 0.25])
    def test_closed_form_beyond_the_full_law(self, n, c):
        expected = constant_exceedance(c, n)
        assert exact_exceedance_probability([c] * n) == pytest.approx(expected, abs=1e-12)

    def test_budget_is_twice_the_full_law(self):
        assert exact_exceedance_probability([0.5] * 21) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(EnumerationBudgetError):
            exact_exceedance_probability([0.5] * (2 * ENUMERATION_LIMIT + 1))
        with pytest.raises(EnumerationBudgetError):
            exact_distribution([0.5] * (ENUMERATION_LIMIT + 1), [0.5] * (ENUMERATION_LIMIT + 1))
