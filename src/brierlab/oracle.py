"""Exact brute-force ground truth over all 2^n outcome vectors.

Every closed form in the analytic module, and every Monte Carlo estimand in
the engine, can be checked against these enumerations for small n. The
per-outcome table is built by doubling: case j appends a copy of the table
for y_j = 1 beside the one for y_j = 0, so outcome k has y_j = bit j of k and
each score sums its squared errors in case order. Memory is bounded by the
2^20-entry table of ENUMERATION_LIMIT cases. The exceedance probability
meets in the middle: two half tables of at most 2^20 entries each cover up to
2 * ENUMERATION_LIMIT = 40 cases. Sums use math.fsum where an exact total is
cheap, so results are exact to the last few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError
from .validation import as_probability_vector, check_same_length

__all__ = [
    "ENUMERATION_LIMIT",
    "ExactScoreDistribution",
    "exact_expected_bs",
    "exact_distribution",
    "exact_exceedance_probability",
]

# 2^20 outcomes is the largest table built; beyond that use Monte Carlo.
ENUMERATION_LIMIT = 20

# Score atoms closer than this are merged into one support point.
ATOM_MERGE_TOL = 1e-12

# Strict exceedance comparisons ignore differences below this, so outcomes
# whose score equals the benchmark exactly (up to float rounding) never count.
EXCEEDANCE_TIE_TOL = 1e-12


def _check_budget(n: int, limit: int = ENUMERATION_LIMIT) -> None:
    if n > limit:
        raise EnumerationBudgetError(
            f"exhaustive enumeration supports n <= {limit}, got n = {n}"
        )


def _doubling(op, if_zero: np.ndarray, if_one: np.ndarray, start: float) -> np.ndarray:
    """op folded over the cases of every outcome vector, from start, in case order.

    Entry k of the 2^n result is op(...op(start, term_0)..., term_{n-1}), where
    term_j is if_one[j] when bit j of k is set and if_zero[j] otherwise.
    """
    table = np.empty(1 << if_zero.size)
    table[0] = start
    for j, (zero, one) in enumerate(zip(if_zero.tolist(), if_one.tolist())):
        done = table[: 1 << j]
        op(done, one, out=table[1 << j : 2 << j])
        op(done, zero, out=done)
    return table


def _scores_and_masses(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BS(p, y) and Pr(y) for every outcome vector y."""
    squares = _doubling(np.add, p * p, (p - 1.0) * (p - 1.0), 0.0)
    return squares / p.size, _doubling(np.multiply, 1.0 - q, q, 1.0)


def _checked_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = as_probability_vector(p, "predictions")
    q = as_probability_vector(q, "true probabilities")
    check_same_length(p, q, "predictions/true probabilities")
    _check_budget(p.size)
    return p, q


def exact_expected_bs(p, q) -> float:
    """Expected score by full enumeration: sum over y of Pr(y) * BS(p, y)."""
    scores, masses = _scores_and_masses(*_checked_pair(p, q))
    return math.fsum(scores * masses)


@dataclass(frozen=True, eq=False)
class ExactScoreDistribution:
    """Full law of the random score BS(p, Y): sorted atom values with their masses."""

    values: np.ndarray
    masses: np.ndarray
    n: int

    @property
    def support(self) -> tuple[tuple[float, float], ...]:
        """The atoms as (value, mass) pairs."""
        return tuple(zip(self.values.tolist(), self.masses.tolist()))

    def mean(self) -> float:
        return math.fsum(self.values * self.masses)

    def variance(self) -> float:
        deviations = self.values - self.mean()
        return math.fsum(self.masses * (deviations * deviations))

    def total_mass(self) -> float:
        return math.fsum(self.masses)


def exact_distribution(p, q) -> ExactScoreDistribution:
    """Exact distribution of the score under Y_i ~ Bernoulli(q_i).

    After sorting, consecutive scores whose gap is at most ATOM_MERGE_TOL join
    one atom (mass-weighted value), so a chain of such gaps can make an atom
    wider than the tolerance. This keeps the support canonical.
    """
    p, q = _checked_pair(p, q)
    scores, masses = _scores_and_masses(p, q)

    order = np.argsort(scores, kind="stable")
    scores = scores[order]
    masses = masses[order]

    starts = np.flatnonzero(np.diff(scores, prepend=-np.inf) > ATOM_MERGE_TOL)
    sizes = np.diff(starts, append=scores.size)
    # fsum of one term is that term, so single-score atoms need no fsum:
    # (s * m) / m in numpy gives the same bits as the fsum formula below.
    group_mass = masses[starts]
    value = scores[starts]
    positive = group_mass > 0.0
    value[positive] = value[positive] * group_mass[positive] / group_mass[positive]
    for i in np.flatnonzero(sizes > 1):
        atom = slice(starts[i], starts[i] + sizes[i])
        group_mass[i] = math.fsum(masses[atom])
        if group_mass[i] > 0.0:
            value[i] = math.fsum(scores[atom] * masses[atom]) / group_mass[i]
        else:
            value[i] = scores[starts[i]]
    value.flags.writeable = False
    group_mass.flags.writeable = False
    return ExactScoreDistribution(values=value, masses=group_mass, n=int(p.size))


def _by_successes(q: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """For k = 0..n: S = sum(q * y) ascending and Pr(y), over the y with sum(y) = k."""
    zeros = np.zeros(q.size)
    k = _doubling(np.add, zeros, np.ones(q.size), 0.0)
    s = _doubling(np.add, zeros, q, 0.0)
    m = _doubling(np.multiply, 1.0 - q, q, 1.0)
    order = np.lexsort((s, k))
    s, m = s[order], m[order]
    bounds = np.searchsorted(k[order], np.arange(q.size + 2))
    return [(s[lo:hi], m[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def exact_exceedance_probability(q) -> float:
    """Probability that the perfect-prediction score exceeds ybar - ybar^2.

    With k = sum(y) and S = sum(q * y), BS(q, y) - (ybar - ybar^2) equals
    (sum(q^2) - 2S + k^2/n) / n, so y exceeds when S < T_k = (sum(q^2) + k^2/n
    - n * EXCEEDANCE_TIE_TOL) / 2. Scores within EXCEEDANCE_TIE_TOL of the
    benchmark count as ties, never as exceedances; without that guard,
    outcomes that are exact ties in real arithmetic can flip either way under
    float rounding. The cases split into halves A and B, each enumerated by
    doubling and grouped by its k. For each pair of groups, a binary search in
    B's prefix-summed masses finds the B mass with S_B < T_k - S_A for every A
    outcome at once.
    """
    q = as_probability_vector(q, "true probabilities")
    n = q.size
    _check_budget(n, 2 * ENUMERATION_LIMIT)
    sum_sq = math.fsum(q * q)
    half_a, half_b = _by_successes(q[: n // 2]), _by_successes(q[n // 2 :])
    totals = []
    for k_b, (s_b, m_b) in enumerate(half_b):
        below = np.concatenate(([0.0], np.cumsum(m_b)))
        for k_a, (s_a, m_a) in enumerate(half_a):
            k = k_a + k_b
            limit = (sum_sq + k * k / n - n * EXCEEDANCE_TIE_TOL) / 2.0
            totals.append(float(np.sum(m_a * below[np.searchsorted(s_b, limit - s_a)])))
    return math.fsum(totals)
