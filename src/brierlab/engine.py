"""Monte Carlo simulation engine for scenario grids.

A scenario is one cell of the study: a true-probability distribution, a
predictor transform, and a sample size. Each replication draws q, derives p,
draws outcomes, and records the score of p, the calibration-in-the-large of
p, and two quantities defined against the perfect prediction q: the gap
(ybar - ybar^2) - BS(q, y) and the indicator that BS(q, y) strictly exceeds
ybar - ybar^2.

Replications run in blocks of BLOCK_REPS, each drawn as (rows, n) matrices.
Block b of scenario s draws from the streams addressed by
(root seed, s, b, purpose), so the block, not the replication, is the unit
of determinism, and results are bit-identical at any worker count.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import io
import json
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dgm import (
    PREDICTOR_TRANSFORM_FIELDS,
    TRUE_DISTRIBUTION_FIELDS,
    PredictorTransformSpec,
    TrueDistributionSpec,
    apply_predictor_transform,
    derive_stream,
    load_empirical_pool,
    sample_outcomes,
    sample_true_probs,
)
from .errors import ConfigError, ValidationError
from .oracle import EXCEEDANCE_TIE_TOL
from .validation import float_table, names_undecodable_file

__all__ = [
    "Scenario",
    "ScenarioResult",
    "StudyConfig",
    "SummaryStats",
    "BLOCK_REPS",
    "replication_streams",
    "run_replication",
    "run_scenario",
    "run_study",
    "summarize",
    "scenarios_for",
    "load_study_config",
    "scenario_filename",
    "write_scenario_csv",
    "write_summary_csv",
    "write_study_results",
    "read_scenario_csv",
    "read_summary_csv",
    "SCENARIO_CSV_COLUMNS",
    "SUMMARY_CSV_COLUMNS",
]

# Replications per block, the unit of work and of determinism. Changing it
# changes the random numbers.
BLOCK_REPS = 128

SCENARIO_CSV_COLUMNS = ("rep", "brier", "cil", "gap", "exceeded", "ybar")
SUMMARY_CSV_COLUMNS = ("scenario", "n", "metric", "median", "q05", "q95", "mean", "exceed_prob")

# Replications are numbered from 1; float64 holds every count up to 2**53 exactly.
_MAX_REP = 2**53


def _finite_float(cell: str) -> float:
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


_SUMMARY_TYPES = (str, int, str) + (_finite_float,) * 5  # per summary column
_SUMMARY_METRICS = ("brier", "cil", "gap")


@dataclass(frozen=True)
class Scenario:
    """One study cell: true distribution x predictor transform x sample size."""

    true_dist: TrueDistributionSpec
    transform: PredictorTransformSpec
    n: int
    label: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"scenario sample size must be >= 1, got {self.n}")
        if not self.label:
            auto = f"{self.true_dist.label}+{self.transform.label}+n{self.n}"
            object.__setattr__(self, "label", auto)


def replication_streams(root_seed: int, scenario_index: int, block: int) -> tuple:
    """The q, transform and outcome streams (purposes 0, 1, 2) of one block of a scenario."""
    return tuple(derive_stream(root_seed, scenario_index, block, purpose) for purpose in range(3))


def _score_rows(scenario: Scenario, streams, rows: int) -> np.ndarray:
    """Score ``rows`` replications drawn as (rows, n) matrices.

    Each replication gives one row: brier, cil, gap, exceeded, ybar.

    The gap and the exceedance flag are computed against the score of the
    perfect prediction q (scored alongside whatever transform the scenario
    applies), because both estimands are defined relative to BS(q, y). The
    exceedance comparison uses the same tie tolerance as the enumeration
    oracle, so exact ties never count as exceedances.
    """
    q_stream, transform_stream, outcome_stream = streams
    q = sample_true_probs(scenario.true_dist, (rows, scenario.n), q_stream)
    p = apply_predictor_transform(q, scenario.transform, transform_stream)
    y = sample_outcomes(q, outcome_stream)

    ybar = y.mean(axis=1)
    reference = ybar - ybar * ybar
    brier_perfect = np.mean((q - y) ** 2, axis=1)
    return np.column_stack(
        (
            np.mean((p - y) ** 2, axis=1),
            p.mean(axis=1) - ybar,
            reference - brier_perfect,
            brier_perfect > reference + EXCEEDANCE_TIE_TOL,
            ybar,
        )
    )


class SummaryStats(NamedTuple):
    median: float
    q05: float
    q95: float
    mean: float


def summarize(samples) -> SummaryStats:
    """Median, 5%/95% quantiles, and mean of a nonempty sample set.

    Quantiles interpolate linearly between adjacent order statistics at
    position h = (N - 1) * p, the common default in statistical software.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("summarize needs a nonempty one-dimensional sample set")
    q05, median, q95 = np.quantile(arr, [0.05, 0.5, 0.95])
    return SummaryStats(median=float(median), q05=float(q05), q95=float(q95), mean=float(np.mean(arr)))


@dataclass(frozen=True)
class ScenarioResult:
    """All per-replication samples plus summary estimands for one scenario."""

    scenario: Scenario
    n_reps: int
    root_seed: int
    scenario_index: int
    brier_samples: np.ndarray
    cil_samples: np.ndarray
    gap_samples: np.ndarray
    ybar_samples: np.ndarray
    exceeded: np.ndarray
    summaries: dict[str, SummaryStats]

    @property
    def exceed_count(self) -> int:
        return int(np.sum(self.exceeded))

    @property
    def exceed_prob(self) -> float:
        return self.exceed_count / self.n_reps


def run_replication(scenario: Scenario, streams) -> np.ndarray:
    """One replication on the given streams, scored as a one-row block."""
    return _score_rows(scenario, streams, 1)[0]


def _run_block(
    scenario: Scenario, root_seed: int, scenario_index: int, block: int, n_reps: int
) -> np.ndarray:
    """Replications [block * BLOCK_REPS, ...) of N = n_reps as score rows; the worker task."""
    rows = min(BLOCK_REPS, n_reps - block * BLOCK_REPS)
    return _score_rows(scenario, replication_streams(root_seed, scenario_index, block), rows)


def _run_scenarios(indexed: list[tuple[int, Scenario]], n_reps: int, root_seed: int, workers: int):
    """Yield one ScenarioResult per (scenario index, scenario), in the given order.

    Every (scenario, block) task is known up front. One worker maps them in
    process; more submit them all to a single pool, so a study starts one
    pool however many scenarios it has.
    """
    if n_reps < 1:
        raise ValidationError(f"replication count must be >= 1, got {n_reps}")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    n_blocks = -(-n_reps // BLOCK_REPS)
    tasks = [
        (scenario, root_seed, index, block, n_reps)
        for index, scenario in indexed
        for block in range(n_blocks)
    ]
    with contextlib.ExitStack() as stack:
        if workers == 1 or len(tasks) == 1:
            blocks = (_run_block(*task) for task in tasks)
        else:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
            # On an error, drop the queued tasks instead of running them out.
            stack.callback(pool.shutdown, cancel_futures=True)
            futures = [pool.submit(_run_block, *task) for task in tasks]
            blocks = (future.result() for future in futures)
        for index, scenario in indexed:
            # Blocks arrive in replication order; the copy makes each column contiguous.
            columns = np.concatenate([next(blocks) for _ in range(n_blocks)]).T.copy()
            brier, cil, gap, exceeded, ybar = columns
            summaries = {
                metric: summarize(samples) for metric, samples in zip(_SUMMARY_METRICS, columns)
            }
            yield ScenarioResult(
                scenario, n_reps, root_seed, index,
                brier, cil, gap, ybar, exceeded.astype(bool), summaries,
            )


def run_scenario(
    scenario: Scenario,
    n_reps: int,
    root_seed: int,
    scenario_index: int = 0,
    workers: int = 1,
) -> ScenarioResult:
    """Run N independent replications and summarize the estimands.

    Block b holds replications [b * BLOCK_REPS, (b + 1) * BLOCK_REPS) and
    draws from the streams addressed by (root_seed, scenario_index, b,
    purpose), so the result is identical for any ``workers`` value; workers
    only controls which process runs each block.
    """
    [result] = _run_scenarios([(scenario_index, scenario)], n_reps, root_seed, workers)
    return result


@dataclass(frozen=True)
class StudyConfig:
    """A full study: DGM grid x transform grid x sample sizes, N reps each."""

    name: str
    seed: int
    n_reps: int
    sample_sizes: tuple[int, ...]
    dgms: tuple[TrueDistributionSpec, ...]
    transforms: tuple[PredictorTransformSpec, ...]


def scenarios_for(config: StudyConfig) -> list[Scenario]:
    """The full cartesian grid, in deterministic order (n, then dgm, then transform)."""
    return [
        Scenario(true_dist=dgm, transform=transform, n=n)
        for n in config.sample_sizes
        for dgm in config.dgms
        for transform in config.transforms
    ]


def run_study(
    config: StudyConfig,
    workers: int = 1,
    progress: Callable[[int, int, ScenarioResult], None] | None = None,
) -> list[ScenarioResult]:
    """Run every scenario in the grid; scenario index keys its random streams.

    With ``workers`` > 1 one process pool serves every block of every
    scenario; results and ``progress`` calls still come in scenario order.
    """
    scenarios = scenarios_for(config)
    _check_filenames_unique([s.label for s in scenarios])
    results = []
    for result in _run_scenarios(list(enumerate(scenarios)), config.n_reps, config.seed, workers):
        results.append(result)
        if progress is not None:
            progress(len(results), len(scenarios), result)
    return results


# ---------------------------------------------------------------------------
# Study configuration documents
# ---------------------------------------------------------------------------


def _require(mapping: dict, field: str, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: must be an object")
    if field not in mapping:
        raise ConfigError(f"{context}.{field}: missing required field")
    return mapping[field]


def _parse_spec(entry: dict, context: str, spec_class, fields_by_kind: dict, family: str):
    """Build a spec through the classmethod named by the entry's kind."""
    kind = _require(entry, "kind", context)
    if not isinstance(kind, str) or kind not in fields_by_kind:
        raise ConfigError(f"{context}.kind: unknown {family} kind {kind!r}")
    args = [_require(entry, field, context) for field in fields_by_kind[kind]]
    for field, value in zip(fields_by_kind[kind], args):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{context}.{field}: must be a number, got {value!r}")
    try:
        return getattr(spec_class, kind)(*args)
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _parse_dgm(entry: dict, context: str, base_dir: Path) -> TrueDistributionSpec:
    if _require(entry, "kind", context) != "empirical":
        return _parse_spec(
            entry, context, TrueDistributionSpec, TRUE_DISTRIBUTION_FIELDS, "true-distribution"
        )
    _require(entry, "path", context)
    strings = {field: entry[field] for field in ("path", "label") if field in entry}
    for field, value in strings.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{context}.{field}: must be a non-empty string, got {value!r}")
    raw_path = Path(strings["path"])
    pool_path = raw_path if raw_path.is_absolute() else base_dir / raw_path
    try:
        return TrueDistributionSpec.empirical(load_empirical_pool(pool_path, label=strings.get("label")))
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{context}.path: cannot read pool file: {exc}") from None


@names_undecodable_file
def load_study_config(path) -> StudyConfig:
    """Parse and validate a JSON study document.

    Expected shape: a top-level ``study`` object with name, seed, N, and
    sample_sizes, plus ``dgms`` and ``transforms`` arrays of kind+parameter
    objects. Empirical pool paths are resolved relative to the document.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")

    study = _require(doc, "study", "document")
    name = str(_require(study, "name", "study"))
    seed = _require(study, "seed", "study")
    n_reps = _require(study, "N", "study")
    sample_sizes = _require(study, "sample_sizes", "study")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"study.seed: must be a nonnegative integer, got {seed!r}")
    if not isinstance(n_reps, int) or isinstance(n_reps, bool) or n_reps < 1:
        raise ConfigError(f"study.N: must be a positive integer, got {n_reps!r}")
    if (
        not isinstance(sample_sizes, list)
        or not sample_sizes
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in sample_sizes)
    ):
        raise ConfigError("study.sample_sizes: must be a nonempty list of positive integers")

    dgm_entries = _require(doc, "dgms", "document")
    if not isinstance(dgm_entries, list) or not dgm_entries:
        raise ConfigError("dgms: must be a nonempty list")
    transform_entries = _require(doc, "transforms", "document")
    if not isinstance(transform_entries, list) or not transform_entries:
        raise ConfigError("transforms: must be a nonempty list")

    base_dir = path.parent
    dgms = tuple(
        _parse_dgm(entry, f"dgms[{i}]", base_dir) for i, entry in enumerate(dgm_entries)
    )
    transforms = tuple(
        _parse_spec(
            entry, f"transforms[{i}]", PredictorTransformSpec, PREDICTOR_TRANSFORM_FIELDS, "predictor-transform"
        )
        for i, entry in enumerate(transform_entries)
    )
    return StudyConfig(
        name=name,
        seed=seed,
        n_reps=n_reps,
        sample_sizes=tuple(sample_sizes),
        dgms=dgms,
        transforms=transforms,
    )


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------


def scenario_filename(label: str) -> str:
    """Filesystem-safe CSV name for a scenario label."""
    safe = re.sub(r"[^A-Za-z0-9.\-]+", "_", label).strip("_")
    return f"{safe}.csv"


def _check_filenames_unique(labels: list[str]) -> None:
    """Reject scenario labels that would share a results file, naming them."""
    counts = Counter(scenario_filename(label) for label in labels)
    clashes = [label for label in labels if counts[scenario_filename(label)] > 1]
    if clashes:
        raise ConfigError(f"scenario labels collide after filename sanitization: {clashes}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: Path, text: str) -> None:
    """Write through a unique temp file in path's directory, removed if the write fails."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode of a new file, not mkstemp's 0600
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def write_scenario_csv(result: ScenarioResult, directory) -> Path:
    """One row per replication: rep, brier, cil, gap, exceeded, ybar; floats as their repr."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / scenario_filename(result.scenario.label)
    cells = zip(
        map(str, range(1, len(result.exceeded) + 1)),
        map(repr, result.brier_samples.tolist()),
        map(repr, result.cil_samples.tolist()),
        map(repr, result.gap_samples.tolist()),
        ("1" if exceeded else "0" for exceeded in result.exceeded.tolist()),
        map(repr, result.ybar_samples.tolist()),
    )
    lines = [",".join(SCENARIO_CSV_COLUMNS), *map(",".join, cells)]
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_summary_csv(results: list[ScenarioResult], directory) -> Path:
    """Long-format summary: one row per scenario and metric."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "summary.csv"
    rows = [SUMMARY_CSV_COLUMNS]
    for result in results:
        for metric in _SUMMARY_METRICS:
            stats = result.summaries[metric]
            rows.append(
                (
                    result.scenario.label,
                    str(result.scenario.n),
                    metric,
                    _fmt(stats.median),
                    _fmt(stats.q05),
                    _fmt(stats.q95),
                    _fmt(stats.mean),
                    _fmt(result.exceed_prob),
                )
            )
    _atomic_write(path, _csv_text(rows))
    return path


def write_study_results(results: list[ScenarioResult], directory) -> list[Path]:
    """Persist every scenario file plus the summary; summary is written last.

    An earlier run's summary is removed first, so a failed write cannot leave
    it beside new scenario files.
    """
    _check_filenames_unique([r.scenario.label for r in results])
    (Path(directory) / "summary.csv").unlink(missing_ok=True)
    paths = [write_scenario_csv(result, directory) for result in results]
    paths.append(write_summary_csv(results, directory))
    return paths


def _check_header(found: list[str] | None, expected: tuple[str, ...], path) -> None:
    if found is None:
        raise ValidationError(f"{path}: empty file")
    if found != list(expected):
        raise ValidationError(
            f"{path}: header mismatch: expected {','.join(expected)}, got {','.join(found)}"
        )


def _data_rows(path: Path, columns: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    """The nonblank rows under a checked header, each with its 1-based line number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), columns, path)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    for line, row in rows:
        if len(row) != len(columns):
            raise ValidationError(
                f"{path}: line {line}: expected {len(columns)} fields, got {row!r}"
            )
    return rows


def _scenario_rows(path: Path) -> np.ndarray:
    """The per-line reader of a scenario file; names the first bad line."""
    rows = []
    for line, row in _data_rows(path, SCENARIO_CSV_COLUMNS):
        try:
            values = [_finite_float(cell) for cell in row]
            if not values[0].is_integer():
                raise ValueError(f"rep {row[0]!r} is not an integer")
            if not 1.0 <= values[0] <= _MAX_REP:
                raise ValueError(f"rep {row[0]!r} is outside 1..2**53")
            if values[4] not in (0.0, 1.0):
                raise ValueError(f"exceeded {row[4]!r} is not 0 or 1")
        except ValueError as exc:
            raise ValidationError(f"{path}: line {line}: {exc}") from None
        rows.append(values)
    return np.array(rows)


@names_undecodable_file
def read_scenario_csv(path) -> dict[str, np.ndarray]:
    """Read a per-scenario file back, validating the column schema and every cell.

    Every cell must be finite, ``rep`` an integer in 1..2**53 and ``exceeded``
    0 or 1. The rows are parsed and checked in one vectorised pass; if that
    fails, the file is reread line by line and a ValidationError names the
    first bad line.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        _check_header(next(csv.reader(fh), None), SCENARIO_CSV_COLUMNS, path)
        data = float_table(fh, len(SCENARIO_CSV_COLUMNS))
    if data is None or not (
        np.isfinite(data).all()
        and (data[:, 0] == np.trunc(data[:, 0])).all()
        and ((data[:, 0] >= 1.0) & (data[:, 0] <= _MAX_REP)).all()
        and ((data[:, 4] == 0.0) | (data[:, 4] == 1.0)).all()
    ):
        data = _scenario_rows(path)
    columns = dict(zip(SCENARIO_CSV_COLUMNS, data.T))
    columns["rep"] = columns["rep"].astype(int)
    columns["exceeded"] = columns["exceeded"].astype(bool)
    return columns


@names_undecodable_file
def read_summary_csv(path) -> list[dict]:
    """Read the summary file back as row dicts, validating the column schema and every cell."""
    path = Path(path)
    rows = []
    for line, parts in _data_rows(path, SUMMARY_CSV_COLUMNS):
        try:
            converted = zip(SUMMARY_CSV_COLUMNS, _SUMMARY_TYPES, parts)
            rows.append({column: convert(cell) for column, convert, cell in converted})
        except ValueError as exc:
            raise ValidationError(f"{path}: line {line}: {exc}") from None
    return rows
