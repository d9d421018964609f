"""Exact brute-force ground truth over all 2^n outcome vectors.

Every closed form in the analytic module, and every Monte Carlo estimand in
the engine, can be checked against these enumerations for small n. The
outcome space is processed in chunks so memory stays bounded; sums are
accumulated with math.fsum so results are exact to the last few ulps.
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

# 2^20 outcomes is the largest space enumerated; beyond that use Monte Carlo.
ENUMERATION_LIMIT = 20

# Score atoms closer than this are merged into one support point.
ATOM_MERGE_TOL = 1e-12

# Strict exceedance comparisons ignore differences below this, so outcomes
# whose score equals the benchmark exactly (up to float rounding) never count.
EXCEEDANCE_TIE_TOL = 1e-12

_CHUNK_BITS = 16


def _check_budget(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise EnumerationBudgetError(
            f"exhaustive enumeration supports n <= {ENUMERATION_LIMIT}, got n = {n}"
        )


def _outcome_chunks(n: int):
    """Yield blocks of outcome vectors as float 0/1 matrices of shape (m, n).

    Outcome j of index k is bit j of k, so iteration order is deterministic
    and independent of how callers split the work.
    """
    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)
    cols = np.arange(n, dtype=np.uint64)
    for base in range(0, total, chunk):
        idx = np.arange(base, base + chunk, dtype=np.uint64)
        yield ((idx[:, None] >> cols[None, :]) & 1).astype(np.float64)


def _scores_and_masses(p: np.ndarray, q: np.ndarray):
    """Yield (scores, masses) arrays per outcome chunk."""
    for y in _outcome_chunks(p.size):
        scores = np.mean((p[None, :] - y) ** 2, axis=1)
        masses = np.prod(np.where(y == 1.0, q[None, :], 1.0 - q[None, :]), axis=1)
        yield scores, masses, y


def exact_expected_bs(p, q) -> float:
    """Expected score by full enumeration: sum over y of Pr(y) * BS(p, y)."""
    p = as_probability_vector(p, "predictions")
    q = as_probability_vector(q, "true probabilities")
    check_same_length(p, q, "predictions/true probabilities")
    _check_budget(p.size)
    chunk_totals = [
        math.fsum(scores * masses) for scores, masses, _ in _scores_and_masses(p, q)
    ]
    return math.fsum(chunk_totals)


@dataclass(frozen=True)
class ExactScoreDistribution:
    """Full law of the random score BS(p, Y): support points with masses."""

    support: tuple[tuple[float, float], ...]
    n: int

    def mean(self) -> float:
        return math.fsum(value * mass for value, mass in self.support)

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(mass * (value - mu) ** 2 for value, mass in self.support)

    def total_mass(self) -> float:
        return math.fsum(mass for _, mass in self.support)


def exact_distribution(p, q) -> ExactScoreDistribution:
    """Exact distribution of the score under Y_i ~ Bernoulli(q_i).

    After sorting, consecutive scores whose gap is at most ATOM_MERGE_TOL join
    one atom (mass-weighted value), so a chain of such gaps can make an atom
    wider than the tolerance. This keeps the support canonical.
    """
    p = as_probability_vector(p, "predictions")
    q = as_probability_vector(q, "true probabilities")
    check_same_length(p, q, "predictions/true probabilities")
    _check_budget(p.size)

    all_scores = []
    all_masses = []
    for scores, masses, _ in _scores_and_masses(p, q):
        all_scores.append(scores)
        all_masses.append(masses)
    scores = np.concatenate(all_scores)
    masses = np.concatenate(all_masses)

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
    support = tuple(zip(value.tolist(), group_mass.tolist()))
    return ExactScoreDistribution(support=support, n=int(p.size))


def exact_exceedance_probability(q) -> float:
    """Probability that the perfect-prediction score exceeds ybar - ybar^2.

    Enumerates every outcome vector y, scores the perfect prediction p = q,
    and accumulates Pr(y) wherever BS(q, y) is strictly greater than the
    incidence benchmark computed from that same y. Scores within
    EXCEEDANCE_TIE_TOL of the benchmark count as ties, never as exceedances;
    without that guard, outcomes that are exact ties in real arithmetic can
    flip either way under float rounding.
    """
    q = as_probability_vector(q, "true probabilities")
    _check_budget(q.size)
    chunk_totals = []
    for scores, masses, y in _scores_and_masses(q, q):
        ybar = np.mean(y, axis=1)
        reference = ybar - ybar * ybar
        exceeded = scores > reference + EXCEEDANCE_TIE_TOL
        chunk_totals.append(math.fsum(masses[exceeded]))
    return math.fsum(chunk_totals)
