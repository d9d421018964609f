"""Monte Carlo simulation engine for scenario grids.

A scenario is a true-probability distribution, a predictor transform, and a
sample size; a cell is the scenarios of one (distribution, sample size) pair.
Each replication draws q, derives p, draws outcomes, and records the score
of p, the calibration-in-the-large of p, and two quantities defined against
the perfect prediction q: the gap (ybar - ybar^2) - BS(q, y) and the
indicator that BS(q, y) strictly exceeds ybar - ybar^2. Every transform of a
cell is applied to the same q and y (common random numbers), so comparisons
between transforms are paired, and a cell's scenarios share gap, exceedance
and ybar, which are written once per cell, to the cell's own results file.

Replications run in blocks of BLOCK_REPS, each drawn as (rows, n) matrices.
Block b of cell c draws q from the stream addressed by (root seed, c, b, 0),
the outcomes from (root seed, c, b, 2), and transform t's noise from
(root seed, c, b, 1, t). The (cell, block) pair, not the replication, is the
unit of determinism, so results are bit-identical at any worker count. One
worker is one thread, which computes the next blocks while the caller writes
a cell; more are one process pool.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import re
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dgm import (
    PREDICTOR_TRANSFORMS,
    TRUE_DISTRIBUTIONS,
    PredictorTransformSpec,
    TrueDistributionSpec,
    apply_predictor_transform,
    derive_stream,
    load_empirical_pool,
    sample_outcomes,
    sample_true_probs,
)
from .errors import ConfigError, InsufficientPoolError, ValidationError
from .oracle import EXCEEDANCE_TIE_TOL
from .validation import (
    MAX_COUNT, NOT_XML_CHAR, TEXT_ENCODING, CsvFormat, _as_float_vector, check_count, commit_csv, commit_text, csv_rows,
    is_integer, names_undecodable_file, read_float_csv, shown,
)

__all__ = [
    "Scenario",
    "CellResult",
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
    "read_cell_csv",
    "read_summary_csv",
    "read_metric_samples",
    "SCENARIO_CSV_COLUMNS",
    "CELL_CSV_COLUMNS",
    "SUMMARY_CSV_COLUMNS",
]

# Replications per block, the unit of work and of determinism. Changing it
# changes the random numbers.
BLOCK_REPS = 128

SCENARIO_CSV_COLUMNS = ("rep", "brier", "cil")
CELL_CSV_COLUMNS = ("rep", "gap", "exceeded", "ybar")
SUMMARY_CSV_COLUMNS = ("scenario", "n", "metric", "median", "q05", "q95", "mean", "exceed_prob", "cell")

def _within(columns: tuple[str, ...], name: str, low: float, high: float) -> tuple:
    """The rule that column ``name`` lies in the closed range [low, high], which refuses NaN and +-inf too."""
    return (columns.index(name), lambda x: (x >= low) & (x <= high), f"{name} {{!r}} is outside [{low:g}, {high:g}]")


def _replication_csv(columns: tuple[str, ...], *rules, **ranges: tuple[float, float]) -> CsvFormat:
    """A table of one row per replication: rep an integer in 1..2**53, each named column in its range, then rules."""
    return CsvFormat(
        columns,
        (float,) * len(columns),
        (
            (0, lambda rep: rep == np.trunc(rep), "rep {!r} is not an integer"),
            (0, lambda rep: (rep >= 1.0) & (rep <= MAX_COUNT), "rep {!r} is outside 1..2**53"),
            *(_within(columns, name, *bounds) for name, bounds in ranges.items()),
            *rules,
        ),
    )


_SCENARIO_CSV = _replication_csv(SCENARIO_CSV_COLUMNS, brier=(0.0, 1.0), cil=(-1.0, 1.0))
# report draws one metric of each scenario file: the other metric's column is counted, not parsed
_SCENARIO_METRIC_CSV = {metric: _SCENARIO_CSV.selecting("rep", metric) for metric in SCENARIO_CSV_COLUMNS[1:]}
_CELL_CSV = _replication_csv(  # gap = (ybar - ybar^2) - BS(q, y), and ybar - ybar^2 lies in [0, 1/4]
    CELL_CSV_COLUMNS, (2, lambda exceeded: (exceeded == 0.0) | (exceeded == 1.0), "exceeded {!r} is not 0 or 1"),
    gap=(-1.0, 0.25), ybar=(0.0, 1.0),
)
_SUMMARY_CSV = CsvFormat(
    SUMMARY_CSV_COLUMNS,
    (str, int, str) + (float,) * 5 + (str,),
    (
        *(_within(SUMMARY_CSV_COLUMNS, name, -1.0, 1.0) for name in SUMMARY_CSV_COLUMNS[3:7]),  # of brier, cil, gap
        _within(SUMMARY_CSV_COLUMNS, "exceed_prob", 0.0, 1.0),
        # report opens the cell file by this name inside the results directory, so it is never a path
        (8, lambda name: re.fullmatch(r"[A-Za-z0-9._\-]+\.csv", name) is not None, "cell {!r} is not a file name"),
        # report names each violin and bar by this label in an SVG figure
        (0, lambda label: NOT_XML_CHAR.search(label) is None, "scenario {!r} holds a character XML 1.0 cannot hold"),
    ),
)
_SUMMARY_METRICS = ("brier", "cil", "gap")


def _check_integers(*checks: tuple[str, object, int]) -> None:
    """Refuse, naming it, the first (name, value, least) not an integer >= least, or a count (least 1) > MAX_COUNT."""
    for name, value, least in checks:
        if not is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {shown(value)}")
        if value < least:
            raise ValidationError(f"{name} must be >= {least}, got {shown(int(value))}")
        if least == 1:
            check_count(name, value)


@dataclass(frozen=True)
class Scenario:
    """One study scenario: true distribution x predictor transform x sample size."""

    true_dist: TrueDistributionSpec
    transform: PredictorTransformSpec
    n: int
    label: str = field(init=False)  # <true distribution label>+<transform label>+n<n>

    def __post_init__(self):
        for name, spec_class in (("true_dist", TrueDistributionSpec), ("transform", PredictorTransformSpec)):
            if not isinstance(spec := getattr(self, name), spec_class):
                raise ValidationError(f"scenario {name} must be a {spec_class.__name__}, got {shown(spec)}")
        _check_integers(("scenario sample size", self.n, 1))
        object.__setattr__(self, "label", f"{self.true_dist.label}+{self.transform.label}+n{self.n}")


def _cell_streams(root_seed: int, cell: int, block: int, width: int) -> tuple:
    """One block's q stream, transform streams for ``width`` scenarios, and outcome stream."""
    return (
        derive_stream(root_seed, cell, block, 0),
        [derive_stream(root_seed, cell, block, 1, t) for t in range(width)],
        derive_stream(root_seed, cell, block, 2),
    )


def replication_streams(root_seed: int, cell: int, block: int) -> tuple:
    """The q, (first) transform and outcome streams of one block of a one-scenario cell."""
    return _cell_streams(root_seed, cell, block, 1)


def _score_cell(scenarios, streams, rows: int) -> np.ndarray:
    """Score ``rows`` replications of a cell's T scenarios as a (2T + 3, rows) table.

    Its rows are T brier, T cil, then gap, exceeded and ybar. q and y are drawn
    once, and transform t draws from streams[1][t]. The gap and exceedance flag
    are scored once, against the perfect prediction q; the flag uses the
    oracle's tie tolerance, so exact ties never count as exceedances.
    """
    q_stream, transform_streams, outcome_stream = streams
    q = sample_true_probs(scenarios[0].true_dist, (rows, scenarios[0].n), q_stream)
    y = sample_outcomes(q, outcome_stream)

    width = len(scenarios)
    table = np.empty((2 * width + 3, rows))
    ybar = table[-1] = y.mean(axis=1)
    reference = ybar - ybar * ybar
    brier_perfect = np.mean((q - y) ** 2, axis=1)
    table[-3] = reference - brier_perfect
    table[-2] = brier_perfect > reference + EXCEEDANCE_TIE_TOL
    for t, (scenario, stream) in enumerate(zip(scenarios, transform_streams)):
        p = apply_predictor_transform(q, scenario.transform, stream)
        table[width + t] = p.mean(axis=1) - ybar
        p -= y  # squared in place: one (rows, n) matrix per transform
        table[t] = np.square(p, out=p).mean(axis=1)
        del p
    return table


class SummaryStats(NamedTuple):
    median: float
    q05: float
    q95: float
    mean: float


def _summarize_rows(table: np.ndarray) -> list[SummaryStats]:
    """The SummaryStats of each row of a table, bit for bit as alone if each row is contiguous."""
    q05, median, q95 = np.quantile(table, [0.05, 0.5, 0.95], axis=-1).tolist()
    return list(map(SummaryStats, median, q05, q95, np.mean(table, axis=-1).tolist()))


def summarize(samples) -> SummaryStats:
    """Median, 5%/95% quantiles, and mean of a nonempty sample set.

    Quantiles interpolate linearly between adjacent order statistics at
    position h = (N - 1) * p, the common default in statistical software.
    """
    return _summarize_rows(_as_float_vector(samples, "samples")[np.newaxis])[0]


@dataclass(frozen=True)
class CellResult:
    """One run of a (true distribution, n) cell; scenario t of cell ``index`` is scenario index * T + t of its study.

    ``table`` is the kernel's read-only (2T + 3, N) table: T brier rows, T cil rows, then the scenarios' shared gap,
    exceeded (0 or 1) and ybar. ``stats`` holds the SummaryStats of its first 2T + 1 rows.
    """

    index: int
    scenarios: tuple[Scenario, ...]
    table: np.ndarray
    stats: list[SummaryStats]


@dataclass(frozen=True)
class ScenarioResult:
    """The read-only per-replication samples and summary estimands of one scenario, run alone."""

    scenario: Scenario
    n_reps: int
    brier_samples: np.ndarray
    cil_samples: np.ndarray
    gap_samples: np.ndarray
    ybar_samples: np.ndarray
    exceeded: np.ndarray
    summaries: dict[str, SummaryStats]

    @property
    def exceed_prob(self) -> float:
        return int(np.count_nonzero(self.exceeded)) / self.n_reps


def run_replication(scenario: Scenario, streams) -> np.ndarray:
    """One replication on the streams of replication_streams: its brier, cil, gap, exceeded and ybar."""
    return _score_cell((scenario,), streams, 1)[:, 0]


def _run_block(scenarios: tuple, root_seed: int, cell: int, block: int, n_reps: int) -> np.ndarray:
    """Replications [block * BLOCK_REPS, ...) of N = n_reps of one cell's scenarios; the worker task."""
    rows = min(BLOCK_REPS, n_reps - block * BLOCK_REPS)
    return _score_cell(scenarios, _cell_streams(root_seed, cell, block, len(scenarios)), rows)


def _in_order(pool: concurrent.futures.Executor, tasks: Iterator[tuple], ahead: int) -> Iterator[np.ndarray]:
    """The pool's _run_block result for each task, in order, with at most ``ahead`` submitted and not yet taken."""
    futures = deque(pool.submit(_run_block, *task) for task in itertools.islice(tasks, ahead))
    for task in tasks:
        block = futures.popleft().result()
        futures.append(pool.submit(_run_block, *task))
        yield block
    for future in futures:
        yield future.result()


def _run_cells(cells: list[tuple[int, tuple[Scenario, ...]]], n_reps: int, root_seed: int, workers: int):
    """The CellResult of each (cell index, scenarios) pair, in order; the caller has checked the arguments.

    A cell's T scenarios share one true distribution and n. Each (cell, block)
    task is made when it is submitted, a few blocks ahead of the one being
    taken, so a huge N starts at once. One worker is one thread, which runs the
    next blocks while the caller takes in (and writes) a cell; more are one
    process pool, so a study starts one pool however many cells it has. Closing
    the iterator stops either.
    """
    n_blocks = -(-n_reps // BLOCK_REPS)
    n_tasks = len(cells) * n_blocks
    tasks = ((scenarios, root_seed, cell, block, n_reps) for cell, scenarios in cells for block in range(n_blocks))
    if workers == 1:
        # The thread shares the interpreter lock with the caller: running further ahead slows its writes.
        pool, ahead = concurrent.futures.ThreadPoolExecutor(max_workers=1), 2
    else:
        import numpy.random  # numpy loads it lazily: once here, not again in every forked worker

        # Processes keep computing while the caller writes a cell, which needs a deeper queue.
        pool, ahead = concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, n_tasks)), 16 * workers
    try:
        blocks = _in_order(pool, tasks, ahead)
        for index, scenarios in cells:
            # Blocks arrive in replication order.
            table = np.concatenate([next(blocks) for _ in range(n_blocks)], axis=1)
            table.flags.writeable = False
            yield CellResult(index, scenarios, table, _summarize_rows(table[:-2]))
    finally:
        # On an error or an early close, drop the queued tasks instead of running them out.
        pool.shutdown(cancel_futures=True)


def run_scenario(
    scenario: Scenario,
    n_reps: int,
    root_seed: int,
    scenario_index: int = 0,
    workers: int = 1,
) -> ScenarioResult:
    """Run N independent replications and summarize the estimands: a one-cell study.

    Block b holds replications [b * BLOCK_REPS, (b + 1) * BLOCK_REPS) and
    draws from the streams of cell ``scenario_index`` (see the module
    docstring), so the result is identical for any ``workers`` value;
    workers only controls which worker runs each block.
    """
    _check_integers(("replication count", n_reps, 1), ("worker count", workers, 1), ("seed", root_seed, 0),
                    ("cell index", scenario_index, 0))
    [cell] = _run_cells([(scenario_index, (scenario,))], n_reps, root_seed, workers)
    brier, cil, gap, exceeded, ybar = cell.table
    exceeded = exceeded.astype(bool)
    exceeded.flags.writeable = False  # as the table's rows are
    return ScenarioResult(scenario, n_reps, brier, cil, gap, ybar, exceeded, dict(zip(_SUMMARY_METRICS, cell.stats)))


@dataclass(frozen=True)
class StudyConfig:
    """A full study: DGM grid x transform grid x sample sizes, N reps each.

    Every field is checked when it is built, directly or through
    dataclasses.replace: a string name, integer seed >= 0 and N in
    1..2**53, sequences of sample sizes in 1..2**53 and of specs, nonempty,
    no clashing cell or scenario files, no pool smaller than the largest n.
    """

    name: str
    seed: int
    n_reps: int
    sample_sizes: tuple[int, ...]
    dgms: tuple[TrueDistributionSpec, ...]
    transforms: tuple[PredictorTransformSpec, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValidationError(f"study name must be a string, got {shown(self.name)}")
        _check_integers(("seed", self.seed, 0), ("replication count", self.n_reps, 1))
        sizes = self.sample_sizes
        if not isinstance(sizes, Sequence) or isinstance(sizes, str) or not all(
            is_integer(n) and n >= 1 for n in sizes
        ):
            raise ValidationError(f"study sample sizes must be a sequence of integers >= 1, got {shown(sizes)}")
        check_count("study sample size", max(sizes, default=1))
        for field in ("dgms", "transforms"):
            if not isinstance(specs := getattr(self, field), Sequence):
                raise ValidationError(f"study {field} must be a sequence of specs, got {shown(specs)}")
        if not (sizes and self.dgms and self.transforms):
            raise ValidationError("a study needs at least one sample size, true distribution and transform")
        _claim_filenames(_grid_cells(self), {})
        n = max(self.sample_sizes)
        for i, dgm in enumerate(self.dgms):
            if dgm.pool is not None and dgm.pool.size < n:
                raise InsufficientPoolError(
                    f"dgms[{i}]: pool {dgm.pool.label!r} has {dgm.pool.size} values, "
                    f"cannot subsample n={n} without replacement"
                )


def _grid_cells(config: StudyConfig) -> list[tuple[Scenario, ...]]:
    """The scenarios of each (n, dgm) cell, in cell-index order: n, then dgm; a cell's transforms in order."""
    return [
        tuple(Scenario(true_dist=dgm, transform=transform, n=n) for transform in config.transforms)
        for n in config.sample_sizes
        for dgm in config.dgms
    ]


def scenarios_for(config: StudyConfig) -> list[Scenario]:
    """The full cartesian grid, in deterministic order (n, then dgm, then transform)."""
    return [scenario for cell in _grid_cells(config) for scenario in cell]


def run_study(config: StudyConfig, workers: int = 1) -> Iterator[CellResult]:
    """Run every (n, dgm) cell of the grid, whose index keys its random streams.

    Yields each cell's CellResult in cell-index order, so its scenarios come
    in scenarios_for order. The config checked itself when built, so only the
    worker count is checked, when it is called. One thread (``workers`` = 1)
    or one process pool serves every block, and closing the iterator stops it.
    """
    _check_integers(("worker count", workers, 1))
    return _run_cells(list(enumerate(_grid_cells(config))), config.n_reps, config.seed, workers)


# ---------------------------------------------------------------------------
# Study configuration documents
# ---------------------------------------------------------------------------


def _require(mapping: dict, field: str, context: str, expected: type = object):
    """mapping[field], refused naming the field if mapping is not an object, lacks it or holds another type."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: must be an object")
    if field not in mapping:
        raise ConfigError(f"{context}.{field}: missing required field")
    if not isinstance(mapping[field], expected):
        raise ConfigError(f"{context}.{field}: must be a {expected.__name__}, got {shown(mapping[field])}")
    return mapping[field]


def _parse_spec(entry: dict, context: str, spec_class, registry: dict):
    """The spec of the entry's kind, given the fields that kind takes; the spec checks kind and values."""
    kind = _require(entry, "kind", context)
    fields = registry[kind].fields if isinstance(kind, str) and kind in registry else ()
    try:
        return spec_class(kind, tuple(_require(entry, field, context) for field in fields))
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _parse_dgm(entry: dict, context: str, base_dir: Path) -> TrueDistributionSpec:
    if _require(entry, "kind", context) != "empirical":
        return _parse_spec(entry, context, TrueDistributionSpec, TRUE_DISTRIBUTIONS)
    _require(entry, "path", context)
    # A path joins base_dir, which it replaces if absolute; load_empirical_pool takes a None label for the stem.
    for field in ("path", "label"):
        if field in entry and not (isinstance(entry[field], str) and entry[field]):
            raise ConfigError(f"{context}.{field}: must be a non-empty string, got {shown(entry[field])}")
    try:
        return TrueDistributionSpec.empirical(load_empirical_pool(base_dir / entry["path"], label=entry.get("label")))
    except ValidationError as exc:
        raise ConfigError(f"{context}: {exc}") from None
    except (OSError, ValueError) as exc:  # open() raises ValueError for a path holding a NUL character
        raise ConfigError(f"{context}.path: cannot read pool file: {exc}") from None


@names_undecodable_file
def load_study_config(path) -> StudyConfig:
    """Read a JSON study document into a StudyConfig, which checks every value.

    Expected shape: a top-level ``study`` object with name, seed, N, and
    sample_sizes, plus ``dgms`` and ``transforms`` arrays of kind+parameter
    objects. Empirical pool paths are resolved relative to the document.
    A document of the wrong shape raises ConfigError naming the field; a
    spec's own error is prefixed with its entry (``dgms[0]: ...``).
    """
    path = Path(path)
    text = path.read_text(encoding=TEXT_ENCODING)  # bytes that are not UTF-8 are named by names_undecodable_file
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than Python's int() takes
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")

    study = _require(doc, "study", "document")
    return StudyConfig(
        name=_require(study, "name", "study"),
        seed=_require(study, "seed", "study"),
        n_reps=_require(study, "N", "study"),
        sample_sizes=tuple(_require(study, "sample_sizes", "study", list)),
        dgms=tuple(
            _parse_dgm(entry, f"dgms[{i}]", path.parent)
            for i, entry in enumerate(_require(doc, "dgms", "document", list))
        ),
        transforms=tuple(
            _parse_spec(entry, f"transforms[{i}]", PredictorTransformSpec, PREDICTOR_TRANSFORMS)
            for i, entry in enumerate(_require(doc, "transforms", "document", list))
        ),
    )


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------


def scenario_filename(label: str) -> str:
    """Filesystem-safe CSV name for a scenario label."""
    safe = re.sub(r"[^A-Za-z0-9.\-]+", "_", label).strip("_")
    return f"{safe}.csv"


def _cell_label(scenario: Scenario) -> str:
    """The label of a scenario's (true distribution, n) cell, which names the cell's file."""
    return f"{scenario.true_dist.label}+n{scenario.n}"


def _claim_filenames(cells: list[tuple[Scenario, ...]], claimed: dict[str, str]) -> None:
    """Add the cells' files to claimed (file name -> label), which holds no clash, or refuse, naming every label of one.

    Only the new names are looked up. Each label ends in +n<n>, so no file is named 'summary'.
    """
    labels = [label for cell in cells for label in (_cell_label(cell[0]), *(s.label for s in cell))]
    names = list(map(scenario_filename, labels))
    if too_long := [label for name, label in zip(names, labels) if len(name) > 255]:  # names are ASCII: 255 bytes
        raise ConfigError(f"scenario and cell labels make file names over 255 characters: {too_long}")
    if len(set(names)) < len(names) or not claimed.keys().isdisjoint(names):
        counts = Counter([*claimed, *names])
        clashes = [label for name, label in [*claimed.items(), *zip(names, labels)] if counts[name] > 1]
        raise ConfigError(f"scenario and cell labels collide after filename sanitization: {clashes}")
    claimed.update(zip(names, labels))


def _write_rows(path: Path, columns: tuple[str, ...], *texts) -> Path:
    """A header, then one line per replication: the texts of each column, joined by commas."""
    return commit_text(path, "\n".join([",".join(columns), *map(",".join, zip(*texts))]) + "\n")


def _write_scenario_text(scenario: Scenario, directory: Path, reps, brier: np.ndarray, cil: np.ndarray) -> Path:
    path = directory / scenario_filename(scenario.label)
    return _write_rows(path, SCENARIO_CSV_COLUMNS, reps, map(repr, brier.tolist()), map(repr, cil.tolist()))


def write_scenario_csv(result: ScenarioResult, directory) -> Path:
    """One row per replication: rep, brier, cil; floats as their repr. write_study_results adds the cell file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    reps = map(str, range(1, result.n_reps + 1))
    return _write_scenario_text(result.scenario, directory, reps, result.brier_samples, result.cil_samples)


def _summary_rows(cell: CellResult) -> Iterator[tuple]:
    """The cell's summary rows: one per scenario and metric, naming the cell's file."""
    name, width = scenario_filename(_cell_label(cell.scenarios[0])), len(cell.scenarios)
    exceed_prob = int(np.count_nonzero(cell.table[-2])) / cell.table.shape[1]
    for t, scenario in enumerate(cell.scenarios):
        for metric, stats in zip(_SUMMARY_METRICS, (cell.stats[t], cell.stats[width + t], cell.stats[-1])):
            # median, q05, q95 and mean, in SummaryStats order, then exceed_prob: Python floats, as their repr
            yield (scenario.label, str(scenario.n), metric, *map(repr, (*stats, exceed_prob)), name)


def write_summary_csv(cells: list[CellResult], directory) -> Path:
    """Long-format summary: one row per scenario and metric, naming the scenario's cell file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return commit_csv(directory / "summary.csv", itertools.chain([SUMMARY_CSV_COLUMNS], *map(_summary_rows, cells)))


def write_study_results(cells: Iterable[CellResult], directory) -> list[Path]:
    """Write each CellResult as run_study yields it: its cell file, then its scenario files; the summary last.

    A cell file holds rep, gap, exceeded and ybar, and each scenario file rep,
    brier and cil. A cell whose files would be an earlier one's (say, a cell
    of another run) is refused before any of its files is written; an empty
    input is refused untouched, as a lone summary would look like a complete
    run. An earlier run's summary is removed first. Of a written cell only its
    summary rows are kept. Stopping early closes cells and run_study's thread or pool.
    """
    directory = Path(directory)
    paths, rows, claimed = [], [SUMMARY_CSV_COLUMNS], {}
    try:
        for cell in cells:
            _claim_filenames([cell.scenarios], claimed)
            if not paths:
                (directory / "summary.csv").unlink(missing_ok=True)
                directory.mkdir(parents=True, exist_ok=True)
            rows += _summary_rows(cell)
            table, width = cell.table, len(cell.scenarios)
            reps = list(map(str, range(1, table.shape[1] + 1)))
            gap, ybar = map(repr, table[-3].tolist()), map(repr, table[-1].tolist())
            exceeded = ("1" if flag else "0" for flag in table[-2].tolist())
            path = directory / scenario_filename(_cell_label(cell.scenarios[0]))
            paths.append(_write_rows(path, CELL_CSV_COLUMNS, reps, gap, exceeded, ybar))
            for t, scenario in enumerate(cell.scenarios):
                paths.append(_write_scenario_text(scenario, directory, reps, table[t], table[width + t]))
    finally:
        getattr(cells, "close", lambda: None)()
    if not paths:
        raise ValidationError("no scenario results to write")
    paths.append(commit_csv(directory / "summary.csv", rows))
    return paths


def _read_replication_csv(path, fmt: CsvFormat) -> dict[str, np.ndarray]:
    """The columns of a per-replication file, rep as integers; see validation.read_float_csv."""
    columns = dict(zip([fmt.header[column] for column in fmt.kept], read_float_csv(path, fmt).T))
    columns["rep"] = columns["rep"].astype(int)
    return columns


def read_scenario_csv(path, metric: str | None = None) -> dict[str, np.ndarray]:
    """Read a scenario file (rep, brier, cil) back, validating the column schema and every cell.

    ``rep`` must be an integer in 1..2**53, brier in [0, 1] and cil in
    [-1, 1]. Given a metric (brier or cil), only rep and that column are
    parsed, checked and returned, though every row must still hold three
    fields. A bad file raises a ValidationError naming the first bad line.
    """
    if metric is not None and metric not in _SCENARIO_METRIC_CSV:
        raise ValueError(f"metric must be one of {list(_SCENARIO_METRIC_CSV)} or None, got {metric!r}")
    return _read_replication_csv(path, _SCENARIO_CSV if metric is None else _SCENARIO_METRIC_CSV[metric])


def read_cell_csv(path) -> dict[str, np.ndarray]:
    """Read a cell file (rep, gap, exceeded, ybar) back, validating the column schema and every cell.

    ``rep`` must be an integer in 1..2**53, gap in [-1, 1/4], ``exceeded`` 0 or 1
    and ybar in [0, 1]. A bad file raises a ValidationError naming the first bad line.
    """
    columns = _read_replication_csv(path, _CELL_CSV)
    columns["exceeded"] = columns["exceeded"].astype(bool)
    return columns


def read_summary_csv(path) -> list[dict]:
    """Read the summary file back as row dicts, validating the column schema and every cell."""
    return [dict(zip(SUMMARY_CSV_COLUMNS, row)) for row in csv_rows(path, _SUMMARY_CSV)]


def read_metric_samples(directory, rows: list[dict], metric: str) -> list[np.ndarray]:
    """The samples of metric for each summary row, from the row's cell file or its scenario file, each read once.

    A cell file is read whole, every column checked; of a scenario file only rep and metric are parsed.
    """
    if metric in CELL_CSV_COLUMNS:
        kind, read = "cell", read_cell_csv
    else:
        kind, read = "per-scenario", lambda path: read_scenario_csv(path, metric)
    names = [r["cell"] if kind == "cell" else scenario_filename(r["scenario"]) for r in rows]
    for name, r in zip(names, rows):
        if not (Path(directory) / name).exists():
            raise ValidationError(f"{directory}: missing {kind} file {name} needed for scenario {r['scenario']!r}")
    samples = {name: read(Path(directory) / name)[metric] for name in dict.fromkeys(names)}
    return [samples[name] for name in names]
