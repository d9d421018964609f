"""Input validation shared by the scoring, analytic, oracle, and engine modules."""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import DimensionError, ValidationError

# Probabilities may stray outside [0, 1] by at most this much before they
# are rejected instead of snapped to the boundary.
DOMAIN_TOL = 1e-12


def as_probability_vector(values, name: str = "probabilities") -> np.ndarray:
    """Validate a 1-d sequence of probabilities and return it as float64.

    Values within DOMAIN_TOL of the unit interval are snapped to the nearest
    boundary; values further out raise ValidationError. Clamping of genuinely
    out-of-range predictions is a data-generation concern, never a scoring one.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must contain at least one element")
    if not np.all(np.isfinite(arr)):
        idx = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValidationError(f"{name}[{idx}] is not finite: {arr[idx]!r}")
    out_of_range = (arr < -DOMAIN_TOL) | (arr > 1.0 + DOMAIN_TOL)
    if np.any(out_of_range):
        idx = int(np.flatnonzero(out_of_range)[0])
        raise ValidationError(
            f"{name}[{idx}] = {arr[idx]!r} lies outside [0, 1] by more than {DOMAIN_TOL}"
        )
    return np.clip(arr, 0.0, 1.0)


def as_outcome_vector(values, name: str = "outcomes") -> np.ndarray:
    """Validate a 1-d sequence of binary outcomes and return it as float64.

    Every element must equal 0 or 1 exactly.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must contain at least one element")
    bad = ~((arr == 0.0) | (arr == 1.0))
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise ValidationError(f"{name}[{idx}] = {arr[idx]!r} is not a 0/1 outcome")
    return arr


def check_same_length(a: np.ndarray, b: np.ndarray, what: str = "vectors") -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"{what} have mismatched lengths: {a.shape[0]} vs {b.shape[0]}")


def as_unit_scalar(value, name: str) -> float:
    """Validate a scalar probability in [0, 1] (with DOMAIN_TOL slack)."""
    x = float(value)
    if not np.isfinite(x):
        raise ValidationError(f"{name} is not finite: {value!r}")
    if x < -DOMAIN_TOL or x > 1.0 + DOMAIN_TOL:
        raise ValidationError(f"{name} = {value!r} lies outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def _float_lines(fh):
    """The remaining lines of fh, read in bulk.

    Raises ValueError on U+001C..U+001F, which np.loadtxt strips from around
    a number and float() refuses.
    """
    while lines := fh.readlines(1 << 20):
        text = "".join(lines)
        if any(char in text for char in "\x1c\x1d\x1e\x1f"):
            raise ValueError("ASCII separator character in the data")
        yield from lines


def float_table(fh, width: int) -> np.ndarray | None:
    """The rest of an open CSV file as a (rows, width) float table, or None.

    The CSV readers' fast path, called after their header check: np.loadtxt
    parses every line at once and skips empty ones. A cell float() refuses, a
    ragged or whitespace-only line, another width or no rows give None, and
    the caller rereads the file line by line to name the bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # caller reports it
            table = np.loadtxt(_float_lines(fh), delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    return table if len(table) and table.shape[1] == width else None


def names_undecodable_file(read):
    """Wrap a reader whose first argument is a path.

    Bytes the text encoding cannot decode then raise a ValidationError naming
    the file, which the command line reports with exit code 2.
    """

    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not readable as {exc.encoding} text: {exc.reason}") from None

    return checked
