"""Empirical scores for binary probability predictions.

The central quantity is the mean squared difference between predicted
probabilities and observed 0/1 outcomes,

    BS(p, y) = (1/n) * sum_i (p_i - y_i)^2,

together with its companions (RMSE, MAE, calibration-in-the-large), two
reference scores, and heuristic diagnostics that flag score patterns which
are commonly misread. score_report computes every one of them from one
checked pass; brier_score, rmse, mae, cil and diagnose each return one of
its fields, so they refuse a bad pair alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .validation import (
    DOMAIN_TOL,
    CsvFormat,
    as_float,
    as_outcome_vector,
    as_probability_vector,
    check_same_length,
    read_float_csv,
)

__all__ = [
    "ScoreReport",
    "WARNING_EXPLANATIONS",
    "brier_score",
    "rmse",
    "mae",
    "cil",
    "reference_scores",
    "diagnose",
    "score_report",
    "read_pair_file",
]

# Diagnostic codes emitted by diagnose(), in emission order.
ZERO_SCORE_SUSPECT = "ZERO_SCORE_SUSPECT"
ALL_EXTREME_PREDICTIONS = "ALL_EXTREME_PREDICTIONS"
NEAR_REFERENCE = "NEAR_REFERENCE"

WARNING_EXPLANATIONS = {
    ZERO_SCORE_SUSPECT: (
        "the score is exactly 0 on 10 or more cases; every prediction was an "
        "exact 0 or 1 that matched its outcome, which in realistic settings "
        "usually indicates a data or pipeline error rather than a flawless model"
    ),
    ALL_EXTREME_PREDICTIONS: (
        "every prediction is exactly 0 or 1; probability predictions are "
        "normally interior values"
    ),
    NEAR_REFERENCE: (
        "the score is within delta of the incidence benchmark ybar - ybar^2; "
        "this does NOT prove the model is non-informative, since true risks "
        "concentrated near the incidence produce the same score pattern even "
        "under ideal predictions"
    ),
}


def brier_score(p, y) -> float:
    """Mean squared error between predicted probabilities and outcomes."""
    return score_report(p, y).brier


def rmse(p, y) -> float:
    """Root mean squared error, the square root of the Brier score."""
    return score_report(p, y).rmse


def mae(p, y) -> float:
    """Mean absolute error between predictions and outcomes."""
    return score_report(p, y).mae


def cil(p, y) -> float:
    """Calibration-in-the-large: mean prediction minus mean outcome.

    Positive values mean the model over-predicts on average. The value is
    signed and lies in [-1, 1].
    """
    return score_report(p, y).cil


def reference_scores(y) -> tuple[float, float]:
    """Scores of the two non-informative benchmark predictors.

    Returns ``(reference_half, reference_incidence)`` where the first is the
    score of the constant 1/2 predictor (0.25 for any outcome vector) and the
    second is the score of the constant observed-incidence predictor, which
    equals ybar - ybar**2 and never exceeds 0.25.
    """
    y = as_outcome_vector(y)
    ybar = float(np.mean(y))
    return 0.25, ybar - ybar * ybar


def diagnose(p, y, near_reference_delta: float = 0.01) -> list[str]:
    """Flag suspicious score patterns; returns diagnostic codes in fixed order.

    - ZERO_SCORE_SUSPECT: score is exactly 0 on n >= 10 cases.
    - ALL_EXTREME_PREDICTIONS: every prediction is exactly 0 or 1.
    - NEAR_REFERENCE: |score - (ybar - ybar**2)| < near_reference_delta.
      A score near the incidence benchmark describes the data, it does not
      adjudicate whether the model is informative (see WARNING_EXPLANATIONS).

    Inputs are never mutated.
    """
    return list(score_report(p, y, near_reference_delta).warnings)


@dataclass(frozen=True)
class ScoreReport:
    """Bundle of all empirical metrics for one prediction/outcome pair."""

    n: int
    brier: float
    rmse: float
    mae: float
    cil: float
    reference_half: float
    reference_incidence: float
    warnings: tuple[str, ...]

    def as_dict(self) -> dict:
        """Flat key/value view in field order, with warnings as a list of codes."""
        return {**asdict(self), "warnings": list(self.warnings)}


def score_report(p, y, near_reference_delta: float = 0.01) -> ScoreReport:
    """Every metric, the reference scores and the diagnostics (see diagnose), validating p and y once."""
    delta = as_float(near_reference_delta, "near_reference_delta")
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError("near_reference_delta must be finite and positive")
    p = as_probability_vector(p, "predictions")
    y = as_outcome_vector(y, "outcomes")
    check_same_length(p, y, "predictions/outcomes")
    d = p - y
    bs = float(np.mean(np.square(d)))
    ybar = float(np.mean(y))
    ref_incidence = ybar - ybar * ybar
    warnings = []
    if bs == 0.0 and p.size >= 10:
        warnings.append(ZERO_SCORE_SUSPECT)
    if np.all((p == 0.0) | (p == 1.0)):
        warnings.append(ALL_EXTREME_PREDICTIONS)
    if abs(bs - ref_incidence) < delta:
        warnings.append(NEAR_REFERENCE)
    return ScoreReport(
        n=int(p.size),
        brier=bs,
        rmse=math.sqrt(bs),
        mae=float(np.mean(np.abs(d, out=d))),
        cil=float(np.mean(p)) - ybar,
        reference_half=0.25,
        reference_incidence=ref_incidence,
        warnings=tuple(warnings),
    )


# A header p,y in any case and spacing; a probability and a 0/1 outcome per row.
_PAIR_CSV = CsvFormat(
    ("p", "y"),
    (float, float),
    (
        (0, lambda p: (p >= -DOMAIN_TOL) & (p <= 1.0 + DOMAIN_TOL), "probability {} outside [0, 1]"),
        (1, lambda y: (y == 0.0) | (y == 1.0), "outcome {} is not 0 or 1"),
    ),
    fold=lambda cell: cell.strip().lower(),
    integer_columns=(1,),
)


def read_pair_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column delimited text file of predictions and outcomes.

    Expected format: a header row ``p,y`` followed by one probability and one
    0/1 outcome per row, each a cell float() accepts. A bad file raises a
    ValidationError naming the first offending line (see validation.read_float_csv).
    The arrays are float64, C-contiguous, writable, and share no memory.
    """
    p, y = read_float_csv(path, _PAIR_CSV).T
    # _PAIR_CSV's rules have checked every cell; y is copied so that the table can be freed.
    return np.clip(p, 0.0, 1.0), y.copy()
