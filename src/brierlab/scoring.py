"""Empirical scores for binary probability predictions.

The central quantity is the mean squared difference between predicted
probabilities and observed 0/1 outcomes,

    BS(p, y) = (1/n) * sum_i (p_i - y_i)^2,

together with its companions (RMSE, MAE, calibration-in-the-large), two
reference scores, and heuristic diagnostics that flag score patterns which
are commonly misread.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .validation import (
    DOMAIN_TOL,
    as_outcome_vector,
    as_probability_vector,
    check_same_length,
    float_table,
    names_undecodable_file,
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


def _paired(p, y) -> tuple[np.ndarray, np.ndarray]:
    p = as_probability_vector(p, "predictions")
    y = as_outcome_vector(y, "outcomes")
    check_same_length(p, y, "predictions/outcomes")
    return p, y


def brier_score(p, y) -> float:
    """Mean squared error between predicted probabilities and outcomes."""
    p, y = _paired(p, y)
    return float(np.mean((p - y) ** 2))


def rmse(p, y) -> float:
    """Root mean squared error, the square root of the Brier score."""
    return math.sqrt(brier_score(p, y))


def mae(p, y) -> float:
    """Mean absolute error between predictions and outcomes."""
    p, y = _paired(p, y)
    return float(np.mean(np.abs(p - y)))


def cil(p, y) -> float:
    """Calibration-in-the-large: mean prediction minus mean outcome.

    Positive values mean the model over-predicts on average. The value is
    signed and lies in [-1, 1].
    """
    p, y = _paired(p, y)
    return float(np.mean(p) - np.mean(y))


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
    if not (math.isfinite(near_reference_delta) and near_reference_delta > 0):
        raise ValidationError("near_reference_delta must be finite and positive")
    p, y = _paired(p, y)
    bs = float(np.mean((p - y) ** 2))
    _, ref_incidence = reference_scores(y)
    warnings = []
    if bs == 0.0 and p.size >= 10:
        warnings.append(ZERO_SCORE_SUSPECT)
    if np.all((p == 0.0) | (p == 1.0)):
        warnings.append(ALL_EXTREME_PREDICTIONS)
    if abs(bs - ref_incidence) < near_reference_delta:
        warnings.append(NEAR_REFERENCE)
    return warnings


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
        """Flat key/value view, with warnings as a list of codes."""
        return {
            "n": self.n,
            "brier": self.brier,
            "rmse": self.rmse,
            "mae": self.mae,
            "cil": self.cil,
            "reference_half": self.reference_half,
            "reference_incidence": self.reference_incidence,
            "warnings": list(self.warnings),
        }


def score_report(p, y, near_reference_delta: float = 0.01) -> ScoreReport:
    """Compute every metric, the reference scores, and diagnostics at once."""
    p, y = _paired(p, y)
    bs = float(np.mean((p - y) ** 2))
    ref_half, ref_incidence = reference_scores(y)
    return ScoreReport(
        n=int(p.size),
        brier=bs,
        rmse=math.sqrt(bs),
        mae=float(np.mean(np.abs(p - y))),
        cil=float(np.mean(p) - np.mean(y)),
        reference_half=ref_half,
        reference_incidence=ref_incidence,
        warnings=tuple(diagnose(p, y, near_reference_delta)),
    )


@names_undecodable_file
def read_pair_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column delimited text file of predictions and outcomes.

    Expected format: a header row ``p,y`` followed by one probability and one
    0/1 outcome per row, each a cell float() accepts; blank lines are skipped.
    The rows are parsed and range-checked in one vectorised pass. If that
    fails, the file is reread line by line and a ValidationError names the
    first offending line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: file is empty, expected header 'p,y'")
        if [c.strip().lower() for c in header] != ["p", "y"]:
            raise ValidationError(
                f"{path}: line 1: expected header 'p,y', got {','.join(header)!r}"
            )
        table = float_table(fh, 2)
    if table is not None:
        p, y = table.T
        if ((p >= -DOMAIN_TOL) & (p <= 1.0 + DOMAIN_TOL) & ((y == 0.0) | (y == 1.0))).all():
            # y is copied so that the table can be freed.
            return as_probability_vector(p, "predictions"), as_outcome_vector(y.copy(), "outcomes")
    return _pair_rows(path)


def _pair_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The per-line reader of the rows under a pair file's header; names the first bad line."""
    preds: list[float] = []
    outs: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by read_pair_file
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            try:
                p_val = float(row[0])
                y_val = float(row[1])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: non-numeric entry {row!r}"
                ) from None
            if not (-DOMAIN_TOL <= p_val <= 1.0 + DOMAIN_TOL):
                raise ValidationError(
                    f"{path}: line {lineno}: probability {row[0]} outside [0, 1]"
                )
            if y_val not in (0.0, 1.0):
                raise ValidationError(
                    f"{path}: line {lineno}: outcome {row[1]} is not 0 or 1"
                )
            preds.append(p_val)
            outs.append(y_val)
    if not preds:
        raise ValidationError(f"{path}: no data rows found")
    return as_probability_vector(preds, "predictions"), as_outcome_vector(outs, "outcomes")
