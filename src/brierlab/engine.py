"""Monte Carlo simulation engine for scenario grids.

A scenario is one cell of the study: a true-probability distribution, a
predictor transform, and a sample size. Each replication draws q, derives p,
draws outcomes, and records the score of p, the calibration-in-the-large of
p, and two quantities defined against the perfect prediction q: the gap
(ybar - ybar^2) - BS(q, y) and the indicator that BS(q, y) strictly exceeds
ybar - ybar^2.

Replication r of scenario s draws from streams addressed by
(root seed, s, r, purpose), so results are bit-identical at any worker count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import os
import re
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

__all__ = [
    "Scenario",
    "ScenarioResult",
    "StudyConfig",
    "SummaryStats",
    "RepResult",
    "ReplicationStreams",
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

# Stream purposes within one replication.
_PURPOSE_TRUE_PROBS = 0
_PURPOSE_TRANSFORM = 1
_PURPOSE_OUTCOMES = 2

SCENARIO_CSV_COLUMNS = ("rep", "brier", "cil", "gap", "exceeded", "ybar")
SUMMARY_CSV_COLUMNS = ("scenario", "n", "metric", "median", "q05", "q95", "mean", "exceed_prob")
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


class ReplicationStreams(NamedTuple):
    true_probs: np.random.Generator
    transform: np.random.Generator
    outcomes: np.random.Generator


def replication_streams(root_seed: int, scenario_index: int, rep_index: int) -> ReplicationStreams:
    """The three per-purpose streams owned by one replication."""
    return ReplicationStreams(
        true_probs=derive_stream(root_seed, scenario_index, rep_index, _PURPOSE_TRUE_PROBS),
        transform=derive_stream(root_seed, scenario_index, rep_index, _PURPOSE_TRANSFORM),
        outcomes=derive_stream(root_seed, scenario_index, rep_index, _PURPOSE_OUTCOMES),
    )


class RepResult(NamedTuple):
    brier: float
    cil: float
    gap: float
    exceeded: bool
    ybar: float


def run_replication(scenario: Scenario, streams: ReplicationStreams) -> RepResult:
    """Execute one replication of a scenario against its private streams.

    The gap and the exceedance flag are computed against the score of the
    perfect prediction q (scored alongside whatever transform the scenario
    applies), because both estimands are defined relative to BS(q, y). The
    exceedance comparison uses the same tie tolerance as the enumeration
    oracle, so exact ties never count as exceedances.
    """
    q = sample_true_probs(scenario.true_dist, scenario.n, streams.true_probs)
    p = apply_predictor_transform(q, scenario.transform, streams.transform)
    y = sample_outcomes(q, streams.outcomes)

    brier = float(np.mean((p - y) ** 2))
    cil = float(np.mean(p) - np.mean(y))
    brier_perfect = float(np.mean((q - y) ** 2))
    ybar = float(np.mean(y))
    reference = ybar - ybar * ybar
    return RepResult(
        brier=brier,
        cil=cil,
        gap=reference - brier_perfect,
        exceeded=bool(brier_perfect > reference + EXCEEDANCE_TIE_TOL),
        ybar=ybar,
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


def _run_block(
    scenario: Scenario, root_seed: int, scenario_index: int, start: int, stop: int
) -> np.ndarray:
    """Replications [start, stop) of one scenario as float RepResult rows; the worker task."""
    return np.array(
        [
            run_replication(scenario, replication_streams(root_seed, scenario_index, rep))
            for rep in range(start, stop)
        ],
        dtype=float,
    )


def run_scenario(
    scenario: Scenario,
    n_reps: int,
    root_seed: int,
    scenario_index: int = 0,
    workers: int = 1,
) -> ScenarioResult:
    """Run N independent replications and summarize the estimands.

    Replication r always uses the streams addressed by
    (root_seed, scenario_index, r, purpose), so the result is identical for
    any ``workers`` value; workers only controls how the index range is
    partitioned across processes.
    """
    if n_reps < 1:
        raise ValidationError(f"replication count must be >= 1, got {n_reps}")
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")

    if workers == 1 or n_reps < 2 * workers:
        blocks = [_run_block(scenario, root_seed, scenario_index, 0, n_reps)]
    else:
        bounds = np.linspace(0, n_reps, workers + 1, dtype=int)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_block, scenario, root_seed, scenario_index, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            blocks = [f.result() for f in futures]

    # Blocks arrive in replication order; the copy makes each column contiguous.
    brier, cil, gap, exceeded, ybar = np.concatenate(blocks).T.copy()
    exceeded = exceeded.astype(bool)

    summaries = {
        metric: summarize(samples) for metric, samples in zip(_SUMMARY_METRICS, (brier, cil, gap))
    }
    return ScenarioResult(
        scenario=scenario,
        n_reps=n_reps,
        root_seed=root_seed,
        scenario_index=scenario_index,
        brier_samples=brier,
        cil_samples=cil,
        gap_samples=gap,
        ybar_samples=ybar,
        exceeded=exceeded,
        summaries=summaries,
    )


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
    """Run every scenario in the grid; scenario index keys its random streams."""
    scenarios = scenarios_for(config)
    _check_filenames_unique([s.label for s in scenarios])
    results = []
    for index, scenario in enumerate(scenarios):
        result = run_scenario(
            scenario, config.n_reps, config.seed, scenario_index=index, workers=workers
        )
        results.append(result)
        if progress is not None:
            progress(index + 1, len(scenarios), result)
    return results


# ---------------------------------------------------------------------------
# Study configuration documents
# ---------------------------------------------------------------------------


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ConfigError(f"{context}.{field}: missing required field")
    return mapping[field]


def _parse_spec(entry: dict, context: str, spec_class, fields_by_kind: dict, family: str):
    """Build a spec through the classmethod named by the entry's kind."""
    kind = _require(entry, "kind", context)
    if not isinstance(kind, str) or kind not in fields_by_kind:
        raise ConfigError(f"{context}.kind: unknown {family} kind {kind!r}")
    args = [_require(entry, field, context) for field in fields_by_kind[kind]]
    try:
        return getattr(spec_class, kind)(*args)
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _parse_dgm(entry: dict, context: str, base_dir: Path) -> TrueDistributionSpec:
    if _require(entry, "kind", context) != "empirical":
        return _parse_spec(
            entry, context, TrueDistributionSpec, TRUE_DISTRIBUTION_FIELDS, "true-distribution"
        )
    raw_path = Path(str(_require(entry, "path", context)))
    pool_path = raw_path if raw_path.is_absolute() else base_dir / raw_path
    try:
        return TrueDistributionSpec.empirical(load_empirical_pool(pool_path, label=entry.get("label")))
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{context}.path: cannot read pool file: {exc}") from None


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
    if not isinstance(study, dict):
        raise ConfigError("study: must be an object")
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
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_text(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def write_scenario_csv(result: ScenarioResult, directory) -> Path:
    """One row per replication: rep, brier, cil, gap, exceeded, ybar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / scenario_filename(result.scenario.label)
    rows = [SCENARIO_CSV_COLUMNS]
    for i in range(result.n_reps):
        rows.append(
            (
                str(i + 1),
                _fmt(result.brier_samples[i]),
                _fmt(result.cil_samples[i]),
                _fmt(result.gap_samples[i]),
                "1" if result.exceeded[i] else "0",
                _fmt(result.ybar_samples[i]),
            )
        )
    _atomic_write(path, _csv_text(rows))
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


def _check_header(found: list[str], expected: tuple[str, ...], path) -> None:
    if found != list(expected):
        raise ValidationError(
            f"{path}: header mismatch: expected {','.join(expected)}, got {','.join(found)}"
        )


def read_scenario_csv(path) -> dict[str, np.ndarray]:
    """Read a per-scenario file back, validating the column schema."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        _check_header(header, SCENARIO_CSV_COLUMNS, path)
        rows = [row for row in reader if row]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    if data.shape[1] != len(SCENARIO_CSV_COLUMNS):
        raise ValidationError(f"{path}: rows do not match the column schema")
    columns = dict(zip(SCENARIO_CSV_COLUMNS, data.T))
    columns["rep"] = columns["rep"].astype(int)
    columns["exceeded"] = columns["exceeded"].astype(bool)
    return columns


def read_summary_csv(path) -> list[dict]:
    """Read the summary file back as row dicts, validating the column schema."""
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        _check_header(header, SUMMARY_CSV_COLUMNS, path)
        for parts in reader:
            if not parts:
                continue
            if len(parts) != len(SUMMARY_CSV_COLUMNS):
                raise ValidationError(f"{path}: malformed row {parts!r}")
            rows.append(
                {
                    "scenario": parts[0],
                    "n": int(parts[1]),
                    "metric": parts[2],
                    "median": float(parts[3]),
                    "q05": float(parts[4]),
                    "q95": float(parts[5]),
                    "mean": float(parts[6]),
                    "exceed_prob": float(parts[7]),
                }
            )
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows
