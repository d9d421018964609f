"""Closed-form behavior of the score under independent Bernoulli outcomes.

For a single case with prediction p1 and true event probability q1, the
expected score is

    E[(p1 - Y)^2] = p1^2 - 2*p1*q1 + q1,        Y ~ Bernoulli(q1),

which decomposes as (p1 - q1)^2 + (q1 - q1^2): a closeness term plus an
irreducible term set by the true probability alone. Everything in this
module is a consequence of that identity; the enumeration oracle is the
test-time authority for each formula.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .validation import as_float, as_probability_vector, as_unit_scalar, check_same_length, probability_pair, shown

__all__ = [
    "PerturbationSpec",
    "AsymptoticSummary",
    "Ordering",
    "JensenBound",
    "expected_bs_single",
    "expected_bs_perfect_single",
    "expected_bs",
    "shift_difference",
    "perturb_difference",
    "effectiveness_compare",
    "variance_single",
    "clt_normal_approx",
    "jensen_bound",
    "perfect_bs_lower_bound",
]

# Vectors whose elements all sit within this absolute tolerance of their mean
# count as constant (Jensen bound tightness); squared distances this close, as a tie.
CONSTANT_TOL = 1e-12


@dataclass(frozen=True)
class PerturbationSpec:
    """A nonnegative shift of size epsilon applied upward (plus) or downward; epsilon is stored as a float."""

    epsilon: float
    direction: str = "plus"

    def __post_init__(self):
        epsilon = as_float(self.epsilon, "epsilon")
        if not math.isfinite(epsilon) or epsilon < 0:
            raise ValidationError(f"epsilon must be a nonnegative real, got {shown(self.epsilon)}")
        if self.direction not in ("plus", "minus"):
            raise ValidationError(f"direction must be 'plus' or 'minus', got {shown(self.direction)}")
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True)
class AsymptoticSummary:
    """Normal approximation of the score of n independent cases.

    ``variance`` is the per-case variance of one squared error term,
    averaged across cases when they are not identically distributed;
    ``sd_of_mean`` equals sqrt(variance / n).
    """

    mean: float
    variance: float
    n: int
    sd_of_mean: float


class Ordering(enum.Enum):
    FIRST_BETTER = "first_better"
    SECOND_BETTER = "second_better"
    TIE = "tie"


class JensenBound(NamedTuple):
    bound: float
    tight: bool


# The mean and variance of one case's squared error (p - Y)^2, Y ~ Bernoulli(q): on floats, or elementwise on arrays.
def _expected(p, q):
    return p * p - 2.0 * p * q + q


def _variance(p, q):
    spread = 1.0 - 2.0 * p  # a product, as ** 2 on a float calls libm pow; CI's expect --mode clt pins the association
    return q * (1.0 - q) * (spread * spread)


def expected_bs_single(p1, q1) -> float:
    """Expected score of prediction p1 for one Bernoulli(q1) outcome.

    Equals p1^2 - 2*p1*q1 + q1 and is uniquely minimized over p1 at p1 = q1.
    """
    return _expected(as_unit_scalar(p1, "p1"), as_unit_scalar(q1, "q1"))


def expected_bs_perfect_single(q1) -> float:
    """Expected score when the prediction equals the true probability q1.

    Equals q1 - q1^2: zero at the endpoints, maximal (0.25) at q1 = 1/2,
    and symmetric about 1/2.
    """
    q1 = as_unit_scalar(q1, "q1")
    return q1 - q1 * q1


def expected_bs(p, q) -> float:
    """Expected score of prediction vector p against true probabilities q."""
    return float(np.mean(_expected(*probability_pair(p, q))))


def shift_difference(q1, eps) -> float:
    """Expected-score change when the truth itself moves toward 1/2.

    Both the true probability and the (perfect) prediction shift by epsilon:
    upward from q1 with q1 + eps <= 1/2, or downward from q1 with
    q1 - eps >= 1/2. The change equals eps * (1 - 2*q1 - eps) in the upward
    case and eps * (2*q1 - 1 - eps) in the mirrored downward case; unlike a
    pure prediction error, it depends strongly on q1.

    ``eps`` may be a float (treated as an upward shift) or a PerturbationSpec.
    """
    q1 = as_unit_scalar(q1, "q1")
    spec = eps if isinstance(eps, PerturbationSpec) else PerturbationSpec(eps)
    e = spec.epsilon
    if spec.direction == "plus":
        if q1 + e > 0.5 + CONSTANT_TOL:
            raise ValidationError(
                f"upward shift requires q1 + eps <= 1/2, got {q1} + {e}"
            )
        return e * (1.0 - 2.0 * q1 - e)
    if q1 - e < 0.5 - CONSTANT_TOL:
        raise ValidationError(
            f"downward shift requires q1 - eps >= 1/2, got {q1} - {e}"
        )
    return e * (2.0 * q1 - 1.0 - e)


def perturb_difference(eps) -> float:
    """Expected-score cost of predicting q1 +/- eps instead of q1: always eps^2.

    Independent of q1 and of the direction of the error. ``eps`` may be a
    float or a PerturbationSpec.
    """
    spec = eps if isinstance(eps, PerturbationSpec) else PerturbationSpec(eps)
    return spec.epsilon * spec.epsilon


def effectiveness_compare(p, p2, q) -> Ordering:
    """Order two prediction vectors by Euclidean distance to the truth.

    The expected score preserves this order, so the returned Ordering also
    ranks expected_bs(p, q) against expected_bs(p2, q). Squared distances
    within CONSTANT_TOL of each other count as a tie.
    """
    p = as_probability_vector(p, "first predictions")
    p2 = as_probability_vector(p2, "second predictions")
    q = as_probability_vector(q, "true probabilities")
    check_same_length(p, q, "first predictions/true probabilities")
    check_same_length(p2, q, "second predictions/true probabilities")
    d1 = float(np.sum((p - q) ** 2))
    d2 = float(np.sum((p2 - q) ** 2))
    if abs(d1 - d2) <= CONSTANT_TOL:
        return Ordering.TIE
    return Ordering.FIRST_BETTER if d1 < d2 else Ordering.SECOND_BETTER


def variance_single(p1, q1) -> float:
    """Variance of the squared error (p1 - Y)^2 for Y ~ Bernoulli(q1).

    The squared error takes value (p1 - 1)^2 with probability q1 and p1^2
    otherwise, so the variance is q1 * (1 - q1) * (1 - 2*p1)^2. It vanishes
    when the outcome is deterministic (q1 in {0, 1}) or when p1 = 1/2, where
    both outcomes cost exactly 0.25.
    """
    return _variance(as_unit_scalar(p1, "p1"), as_unit_scalar(q1, "q1"))


def clt_normal_approx(p, q) -> AsymptoticSummary:
    """Normal approximation of the score distribution for large n.

    The score is a mean of independent squared-error terms; its distribution
    is asymptotically normal with mean expected_bs(p, q) and standard
    deviation sqrt(variance / n), where ``variance`` averages the per-term
    variances. The terms need not be identically distributed; the average is
    the natural extension of the identically-distributed statement.
    """
    p, q = probability_pair(p, q)
    mean = float(np.mean(_expected(p, q)))
    variance = float(np.mean(_variance(p, q)))
    n = int(p.size)
    return AsymptoticSummary(mean=mean, variance=variance, n=n, sd_of_mean=math.sqrt(variance / n))


def jensen_bound(q) -> JensenBound:
    """Upper bound qbar - qbar^2 on the expected score of perfect predictions.

    expected_bs(q, q) <= qbar - qbar^2, with equality exactly when every
    q_i equals the mean (within CONSTANT_TOL). Follows from the strict
    convexity of x -> x^2.
    """
    q = as_probability_vector(q, "true probabilities")
    qbar = float(np.mean(q))
    tight = bool(np.all(np.abs(q - qbar) <= CONSTANT_TOL))
    return JensenBound(bound=qbar - qbar * qbar, tight=tight)


def perfect_bs_lower_bound(q) -> float:
    """Pathwise lower bound on the score of perfect predictions.

    Let eps be the largest interior margin max_i min(q_i, 1 - q_i). For every
    outcome vector y, the score of predicting q satisfies
    BS(q, y) >= eps^2 / n, because the best-margin coordinate contributes at
    least eps^2 whichever way its outcome falls. The bound is strictly
    positive exactly when some q_i lies strictly inside (0, 1); with all
    q_i in {0, 1} a zero score is attainable and the bound is 0.
    """
    q = as_probability_vector(q, "true probabilities")
    margin = float(np.max(np.minimum(q, 1.0 - q)))
    return margin * margin / q.size
