"""Workloads, generated inputs, output checks and measurement for the benchmark.

Every workload drives brierlab the way a user does: through ``brierlab.cli.main``
(``simulate``, ``report``, ``score``) and the three public functions of
``brierlab.oracle``. One operation is one such user-visible unit of work; a run
repeats it for the requested number of seconds and reports medians. Inputs come
from the workload seed alone; the program receives only the generated files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import brierlab.cli
from brierlab import analytic, engine, oracle

from . import WORKLOADS
from .tracer import Tracer

# The paper's grid shape: 7 true distributions (two empirical pools) x 5
# transforms x 2 sample sizes = 70 scenarios.
SAMPLE_SIZES = (300, 1000)
PARAMETRIC_DGMS = (
    {"kind": "uniform", "a": 0, "b": 1},
    {"kind": "uniform", "a": 0, "b": 0.2},
    {"kind": "beta", "alpha": 2, "beta": 5},
    {"kind": "beta", "alpha": 5, "beta": 5},
    {"kind": "beta", "alpha": 3, "beta": 3},
)
POOLS = (("osteoporosis-synthetic", 0.07), ("smoking-synthetic", 0.263))
TRANSFORMS = (
    {"kind": "perfect"},
    {"kind": "additive_bias", "delta": 0.1},
    {"kind": "uniform_noise", "half_width": 0.1},
    {"kind": "uniform_noise", "half_width": 0.05},
    {"kind": "rademacher_noise", "magnitude": 0.1},
)
N_SCENARIOS = (len(PARAMETRIC_DGMS) + len(POOLS)) * len(TRANSFORMS) * len(SAMPLE_SIZES)
SUMMARY_METRICS = ("brier", "cil", "gap")

# Figure number -> (chart kind, sample size it shows), as brierlab's report verb defines them.
FIGURES = {"1": ("violin", 1000), "2": ("violin", 300), "3": ("violin", 300), "4": ("bar", 300)}

# Perfect-prediction Brier means must lie this many Monte Carlo standard errors from E[q - q^2].
# Each operation tests 14 perfect scenarios on data fixed by the seed, so a seed that fails
# fails every run: at 4 SE about one seed in 1100 does with no defect present, at 5 SE about
# one in 120 000.
PERFECT_TOLERANCE_SE = 5.0
# Absolute tolerance for library results against numpy and the closed forms.
EXACT_TOL = 1e-12

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests pass smaller ones."""

    study_reps: int = 100  # replications per scenario in study-serial and study-parallel
    report_reps: int = 200  # replications per scenario in the directory report reads
    pair_rows: int = 400_000  # rows of the pair file that score reads
    oracle_n: int = 18  # cases per oracle call, 2**n outcome vectors each
    pool_size: int = 5000  # values per empirical pool
    setup_probes: int = 5  # fresh interpreters timed for setup_s
    import_probes: int = 3  # fresh interpreters timed for figures.import_s


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------


def input_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def make_pool(rng: np.random.Generator, incidence: float, size: int) -> np.ndarray:
    """Logistic-style risks sigmoid(z + shift), z ~ N(0, 1), with mean ``incidence``."""
    z = rng.normal(0.0, 1.0, size)
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(z + mid)))) < incidence:
            lo = mid
        else:
            hi = mid
    return 1.0 / (1.0 + np.exp(-(z + 0.5 * (lo + hi))))


def expected_perfect_score(entry: dict, pool: np.ndarray | None = None) -> float:
    """E[q - q^2] for one true distribution: the mean Brier score of p = q."""
    kind = entry["kind"]
    if kind == "uniform":
        a, b = entry["a"], entry["b"]
        return (a + b) / 2.0 - (a * a + a * b + b * b) / 3.0
    if kind == "beta":
        a, b = entry["alpha"], entry["beta"]
        return a / (a + b) - a * (a + 1) / ((a + b) * (a + b + 1))
    return float(np.mean(pool - pool * pool))


def dgm_label(entry: dict) -> str:
    kind = entry["kind"]
    if kind == "uniform":
        return f"uniform({entry['a']:g},{entry['b']:g})"
    if kind == "beta":
        return f"beta({entry['alpha']:g},{entry['beta']:g})"
    return f"empirical({entry['label']})"


def write_study_config(directory: Path, seed: int, n_reps: int, sizes: Sizes) -> tuple[Path, dict]:
    """Write pools and a full-grid study document; return its path and E[q - q^2] by label."""
    directory.mkdir(parents=True, exist_ok=True)
    dgms = [dict(entry) for entry in PARAMETRIC_DGMS]
    expected = {dgm_label(entry): expected_perfect_score(entry) for entry in dgms}
    for index, (label, incidence) in enumerate(POOLS):
        pool = make_pool(input_rng(seed, 10 + index), incidence, sizes.pool_size)
        path = directory / f"{label}.txt"
        path.write_text("".join(f"{value!r}\n" for value in pool.tolist()))
        entry = {"kind": "empirical", "path": path.name, "label": label}
        dgms.append(entry)
        expected[dgm_label(entry)] = expected_perfect_score(entry, pool)
    doc = {
        "study": {"name": "bench-grid", "seed": seed, "N": n_reps, "sample_sizes": list(SAMPLE_SIZES)},
        "dgms": dgms,
        "transforms": list(TRANSFORMS),
    }
    config = directory / f"grid-N{n_reps}.json"
    config.write_text(json.dumps(doc, indent=1))
    return config, expected


def write_pair_file(path: Path, seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    rng = input_rng(seed, 20)
    p = rng.uniform(0.0, 1.0, rows)
    y = (rng.random(rows) < p).astype(np.float64)
    with open(path, "w") as fh:
        fh.write("p,y\n")
        fh.writelines(f"{pi!r},{int(yi)}\n" for pi, yi in zip(p.tolist(), y.tolist()))
    return p, y


def oracle_inputs(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct p and q strictly inside (0, 1), so every seed gives the oracle the same work.

    A p of exactly 0 or 1 makes outcome vectors tie in score; exact_distribution
    then merges them into fewer atoms, and a seed that drew one would run faster
    than the others.
    """
    rng = input_rng(seed, 30)
    q = rng.uniform(0.15, 0.85, n)
    p = q + rng.uniform(-0.1, 0.1, n)
    return p, q


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def check_study(results: Path, expected: dict, n_reps: int) -> list[str]:
    """Schema, shape and the perfect-prediction Brier mean of a simulate directory."""
    try:
        rows = engine.read_summary_csv(results / "summary.csv")
    except Exception as exc:  # any reader failure means the directory is unusable
        return [f"summary.csv: {exc}"]
    problems = []
    if len(rows) != N_SCENARIOS * len(SUMMARY_METRICS):
        problems.append(f"summary.csv: {len(rows)} rows, expected {N_SCENARIOS * len(SUMMARY_METRICS)}")
    by_scenario: dict[str, dict] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], {})[row["metric"]] = row
    if len(by_scenario) != N_SCENARIOS:
        problems.append(f"summary.csv: {len(by_scenario)} scenarios, expected {N_SCENARIOS}")
    for label, metrics in by_scenario.items():
        if set(metrics) != set(SUMMARY_METRICS):
            problems.append(f"{label}: summary metrics {sorted(metrics)}")
            continue
        try:
            data = engine.read_scenario_csv(results / engine.scenario_filename(label))
        except Exception as exc:
            problems.append(f"{label}: {exc}")
            continue
        brier = np.asarray(data["brier"], dtype=float)
        if brier.size != n_reps or not np.array_equal(data["rep"], np.arange(1, n_reps + 1)):
            problems.append(f"{label}: {brier.size} replication rows, expected {n_reps}")
            continue
        mean = metrics["brier"]["mean"]
        if not math.isclose(mean, float(np.mean(brier)), rel_tol=1e-9, abs_tol=EXACT_TOL):
            problems.append(f"{label}: summary Brier mean {mean!r} != scenario file mean")
        dgm, rest = label.split("+", 1)
        transform = rest.rsplit("+", 1)[0]
        if transform == "perfect":
            se = float(np.std(brier, ddof=1)) / math.sqrt(n_reps)
            if abs(mean - expected[dgm]) > PERFECT_TOLERANCE_SE * se:
                problems.append(
                    f"{label}: Brier mean {mean:.6f} is more than {PERFECT_TOLERANCE_SE:g} "
                    f"standard errors ({se:.2e}) from E[q - q^2] = {expected[dgm]:.6f}"
                )
    return problems


def check_identical(reference: Path, results: Path) -> list[str]:
    """Every file of two result directories has the same bytes."""
    ref_names = sorted(p.name for p in reference.iterdir())
    names = sorted(p.name for p in results.iterdir())
    if ref_names != names:
        return [f"{results.name}: file set differs from {reference.name}"]
    return [
        f"{name}: bytes differ from {reference.name}"
        for name in names
        if (reference / name).read_bytes() != (results / name).read_bytes()
    ]


def check_figure(svg: Path, labels: list[str]) -> list[str]:
    """Well-formed SVG with one violin or bar, and one axis label, per scenario."""
    try:
        root = ET.parse(svg).getroot()
    except (ET.ParseError, OSError) as exc:
        return [f"{svg.name}: not well-formed XML: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    marks = root.findall(f"{ns}polygon") + [
        r for r in root.findall(f"{ns}rect") if r.get("fill") != "white"
    ]
    problems = []
    if len(marks) != len(labels):
        problems.append(f"{svg.name}: {len(marks)} violins or bars, expected {len(labels)}")
    texts = {t.text for t in root.findall(f"{ns}text")}
    missing = [label for label in labels if label not in texts]
    if missing:
        problems.append(f"{svg.name}: no label for {missing[:3]}")
    return problems


def check_score(brier: float, p: np.ndarray, y: np.ndarray) -> list[str]:
    reference = float(np.mean((p - y) ** 2))
    if abs(brier - reference) > EXACT_TOL:
        return [f"score: Brier {brier!r} != numpy mean((p - y)^2) {reference!r}"]
    return []


def check_oracle(expected, distribution, exceedance, p: np.ndarray, q: np.ndarray) -> list[str]:
    problems = []
    closed = analytic.expected_bs(p, q)
    if abs(expected - closed) > EXACT_TOL:
        problems.append(f"exact_expected_bs {expected!r} != analytic.expected_bs {closed!r}")
    if abs(distribution.total_mass() - 1.0) > EXACT_TOL:
        problems.append(f"exact_distribution total mass {distribution.total_mass()!r} != 1")
    if abs(distribution.mean() - expected) > EXACT_TOL:
        problems.append(f"exact_distribution mean {distribution.mean()!r} != {expected!r}")
    if not 0.0 <= exceedance <= 1.0:
        problems.append(f"exact_exceedance_probability {exceedance!r} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_cli(args: list[str]) -> str:
    """brierlab.cli.main with stdout captured; raises on a non-zero exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = brierlab.cli.main(args)
    if code != 0:
        raise RuntimeError(f"brierlab {args[0]} exited with {code}")
    return out.getvalue()


class Study:
    """``simulate`` on the full grid; study-parallel runs it on 2 workers."""

    def __init__(self, work: Path, seed: int, sizes: Sizes, workers: int):
        self.workers = workers
        self.n_reps = sizes.study_reps
        self.reps_per_op = N_SCENARIOS * self.n_reps
        self.config, self.expected = write_study_config(work / "inputs", seed, self.n_reps, sizes)
        self.probe = f"from brierlab import engine; engine.load_study_config({str(self.config)!r})"
        self.results = work / "results"
        self.reference = None
        if workers > 1:
            # The serial result from the same invocation, which the parallel files must match.
            self.reference = work / "reference"
            self._simulate(1, self.reference)

    def _simulate(self, workers: int, out: Path) -> None:
        run_cli(["simulate", "--config", str(self.config), "--workers", str(workers), "--out", str(out)])

    def reset(self) -> None:
        shutil.rmtree(self.results, ignore_errors=True)

    def operation(self) -> dict:
        self._simulate(self.workers, self.results)
        return {}

    def check(self) -> list[str]:
        problems = check_study(self.results, self.expected, self.n_reps)
        if self.reference is not None:
            problems += check_identical(self.reference, self.results)
        return problems

    def headline(self, ops: list[dict]) -> list[tuple]:
        wall = statistics.median(op["wall"] for op in ops)
        return [("reps_per_s", self.reps_per_op / wall, "1/s", f"{self.reps_per_op} replications per op, median of {len(ops)} ops")]


class Report:
    """Figures 1-4 rendered again and again from one full-grid results directory."""

    probe = ""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.n_reps = sizes.report_reps
        config, _ = write_study_config(work / "inputs", seed, self.n_reps, sizes)
        self.results = work / "results"
        run_cli(["simulate", "--config", str(config), "--workers", "1", "--out", str(self.results)])
        self.figures = work / "figures"
        self.labels: dict[int, list[str]] = {}
        for row in engine.read_summary_csv(self.results / "summary.csv"):
            if row["metric"] == "brier":
                self.labels.setdefault(row["n"], []).append(row["scenario"])

    def reset(self) -> None:
        shutil.rmtree(self.figures, ignore_errors=True)

    def operation(self) -> dict:
        times = []
        for figure in FIGURES:
            start = time.perf_counter()
            run_cli(["report", "--results", str(self.results), "--figure", figure, "--out", str(self.figures)])
            times.append(time.perf_counter() - start)
        return {"figure_s": times}

    def check(self) -> list[str]:
        problems = []
        for figure, (_, n) in FIGURES.items():
            problems += check_figure(self.figures / f"figure{figure}.svg", self.labels[n])
            rows = (self.figures / f"figure{figure}.csv").read_text().splitlines()
            if len(rows) - 1 != len(self.labels[n]):
                problems.append(f"figure{figure}.csv: {len(rows) - 1} rows, expected {len(self.labels[n])}")
        return problems

    def headline(self, ops: list[dict]) -> list[tuple]:
        times = sorted(t for op in ops for t in op["figure_s"])
        tail_pct, tail = tail_of(times)
        return [
            ("figure_s_p50", statistics.median(times), "s", f"median of {len(times)} figures"),
            ("figure_s_tail", tail, "s", f"p{tail_pct:g} of {len(times)} figures"),
            # One sample, so no tail percentile shows it: one-time lazy set-up lands here.
            ("figure_s_first", ops[0]["figure_s"][0], "s", "first figure rendered by the process"),
        ]


class Library:
    """``score`` on a large pair file plus the three exact oracle calls."""

    probe = "import brierlab.oracle"

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        work.mkdir(parents=True, exist_ok=True)
        self.pairs = work / "pairs.csv"
        self.p, self.y = write_pair_file(self.pairs, seed, sizes.pair_rows)
        self.op, self.oq = oracle_inputs(seed, sizes.oracle_n)
        self.outcomes = 3 * 2 ** sizes.oracle_n
        self.last: dict = {}

    def reset(self) -> None:
        self.last = {}

    def operation(self) -> dict:
        start = time.perf_counter()
        brier = json.loads(run_cli(["score", "--input", str(self.pairs), "--json"]))["brier"]
        mid = time.perf_counter()
        expected = oracle.exact_expected_bs(self.op, self.oq)
        distribution = oracle.exact_distribution(self.op, self.oq)
        exceedance = oracle.exact_exceedance_probability(self.oq)
        end = time.perf_counter()
        self.last = {"brier": brier, "expected": expected, "distribution": distribution, "exceedance": exceedance}
        return {"score_s": mid - start, "oracle_s": end - mid}

    def check(self) -> list[str]:
        last = self.last
        return check_score(last["brier"], self.p, self.y) + check_oracle(
            last["expected"], last["distribution"], last["exceedance"], self.op, self.oq
        )

    def headline(self, ops: list[dict]) -> list[tuple]:
        score = statistics.median(op["score_s"] for op in ops)
        oracle_s = statistics.median(op["oracle_s"] for op in ops)
        return [
            ("score_rows_per_s", self.p.size / score, "1/s", f"{self.p.size} rows, median of {len(ops)} ops"),
            ("oracle_outcomes_per_s", self.outcomes / oracle_s, "1/s", f"{self.outcomes} outcome vectors per op, median of {len(ops)} ops"),
        ]


def make_workload(name: str, work: Path, seed: int, sizes: Sizes):
    if name == "study-serial":
        return Study(work, seed, sizes, workers=1)
    if name == "study-parallel":
        return Study(work, seed, sizes, workers=2)
    if name == "report":
        return Report(work, seed, sizes)
    if name == "library":
        return Library(work, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Tracing: the layers and what is counted at each
# ---------------------------------------------------------------------------


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(result)


def _read_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


def _pair_rows(args, kwargs, result) -> int:
    return len(result[0])


def _outcomes(args, kwargs, result) -> int:
    return 2 ** np.size(args[0] if args else next(iter(kwargs.values())))


# (module, function, optional (counter suffix, count function)), one span name "<module>.<function>" each.
TRACED = (
    ("dgm", "derive_stream", None),
    ("dgm", "sample_true_probs", None),
    ("dgm", "apply_predictor_transform", None),
    ("dgm", "sample_outcomes", None),
    ("dgm", "load_empirical_pool", None),
    ("validation", "as_probability_vector", None),
    ("engine", "load_study_config", None),
    ("engine", "run_replication", None),
    ("engine", "summarize", None),
    ("engine", "run_scenario", None),
    ("engine", "write_scenario_csv", ("bytes", _written_bytes)),
    ("engine", "write_summary_csv", ("bytes", _written_bytes)),
    ("engine", "read_scenario_csv", ("bytes", _read_bytes)),
    ("engine", "read_summary_csv", ("bytes", _read_bytes)),
    ("figures", "violin_svg", ("bytes", _text_bytes)),
    ("figures", "bar_svg", ("bytes", _text_bytes)),
    ("scoring", "read_pair_file", ("rows", _pair_rows)),
    ("scoring", "score_report", None),
    ("oracle", "exact_expected_bs", ("outcomes", _outcomes)),
    ("oracle", "exact_distribution", ("outcomes", _outcomes)),
    ("oracle", "exact_exceedance_probability", ("outcomes", _outcomes)),
)


def install(tracer: Tracer) -> None:
    from concurrent.futures import ProcessPoolExecutor

    for module, function, count in TRACED:
        tracer.wrap(module, function, count)
    tracer.count_calls(ProcessPoolExecutor, "__init__", "engine.pool.starts")
    tracer.count_calls(ProcessPoolExecutor, "submit", "engine.pool.tasks")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, function, count in TRACED:
        units[f"{module}.{function}.calls"] = "count"
        units[f"{module}.{function}.self_s"] = "s"
        if count is not None:
            units[f"{module}.{function}.{count[0]}"] = "bytes" if count[0] == "bytes" else "count"
    units["dgm.streams_per_rep"] = "streams/rep"
    units["engine.pool.starts"] = "count"
    units["engine.pool.tasks"] = "count"
    units["figures.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.absent"] = "count"
    return units


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


_REFERENCE_TEXT: list[str] = []
REFERENCE_UNITS = 25  # units of the reference kernel per single-process measurement, about 0.01 s each
REFERENCE_POOLS = 12  # two-process pools per measurement, one unit in each process
REFERENCE_EVERY_S = 1.0  # a reference measurement follows an op once this long has passed since the last


def reference_kernel(units: int = REFERENCE_UNITS) -> float:
    """Seconds taken by ``units`` repetitions of a fixed piece of work that uses no brierlab code.

    The mix follows the program's: many small-array numpy calls on a seeded
    Generator (the replication loop), CSV parsing and float formatting (results
    and pair files, SVG text) and large-array sorts and sums (the oracle). A
    shared virtual machine can change speed by 1.5x for minutes at a time;
    timing this kernel alternately with the operations lets the gated metrics
    divide that out.
    """
    if not _REFERENCE_TEXT:
        values = np.random.default_rng(0).random(2000).tolist()
        _REFERENCE_TEXT.append("p,y\n" + "".join(f"{v!r},{i & 1}\n" for i, v in enumerate(values)))
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    big = rng.random(1 << 17)
    for _ in range(units):
        for _ in range(50):
            q = rng.beta(2.0, 5.0, 300)
            p = np.clip(q + rng.uniform(-0.1, 0.1, q.size), 0.0, 1.0)
            y = (rng.random(q.size) < q).astype(np.float64)
            float(np.mean((p - y) ** 2))
        rows = list(csv.reader(io.StringIO(_REFERENCE_TEXT[0])))[1:]
        "".join(f'<rect x="{float(a):.3f}" y="{int(b)}"/>' for a, b in rows)
        np.cumsum(np.sort(big) ** 2)
    return time.perf_counter() - start


def measure_reference(processes: int) -> tuple[float, float]:
    """Wall and CPU seconds of the reference kernel in ``processes`` processes at once.

    With more than one process the kernel runs one unit per process in each of
    REFERENCE_POOLS pools, started, used and torn down in turn like the
    program's per-scenario pools, so that forks and exits weigh in it about as
    much as in study-parallel. CPU time counts the reaped workers, as it does
    for an operation.
    """
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if processes == 1:
        reference_kernel()
    else:
        for _ in range(REFERENCE_POOLS):
            with ProcessPoolExecutor(max_workers=processes) as pool:
                list(pool.map(reference_kernel, [1] * processes))
    return time.perf_counter() - start, cpu_seconds() - cpu0


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter.

    Unlike a median it does not jump between the two speeds the host switches
    between within a run, and unlike a mean one stalled operation barely moves it.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def tail_of(sorted_values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    m = len(sorted_values)
    for pct in TAIL_LADDER:
        if m * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(sorted_values, pct))
    return 100.0, sorted_values[-1]


def probe_code(src: Path, workload) -> str:
    """Set-up of a fresh interpreter: import the CLI, then the workload's own loading."""
    return f"import sys; sys.path.insert(0, {str(src)!r}); import brierlab.cli; {workload.probe}"


def run_probe(code: str, cwd: Path, importtime: bool = False) -> tuple[float, str]:
    """Wall seconds of a fresh interpreter running ``code``, and its stderr."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return elapsed, done.stderr


def figures_import_s(stderr: str) -> float | None:
    """Cumulative import seconds of brierlab.figures from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "brierlab.figures":
            return int(parts[1]) / 1e6
    return None


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit, sample note)
    notes: list


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path,
                 sizes: Sizes = Sizes()) -> Outcome:
    workload = make_workload(name, work, seed, sizes)
    ops: list[dict] = []
    good: list[dict] = []  # ops whose output passed its check
    layer_totals: dict[str, float] = {}
    absent: list[str] = []
    # The end-to-end run times the reference kernel before the first op and then after an op
    # once REFERENCE_EVERY_S has passed, in as many processes at once as the workload keeps busy.
    processes = getattr(workload, "workers", 1)
    references: list[tuple[float, float]] = []  # (wall, cpu) of each reference measurement
    if not trace:
        measure_reference(processes)  # warm-up, not counted
        references.append(measure_reference(processes))
    last_reference = time.perf_counter()
    deadline = time.perf_counter() + seconds
    # Start another op only while it is expected to end before the deadline.
    while len(ops) < (2 if trace else 1) or (
        time.perf_counter() + ops[-1]["wall"] + (references[-1][0] if references else 0.0) <= deadline
    ):
        # Traced ops come first so that one-time lazy work shows in the per-layer numbers.
        traced = trace and len(ops) % 2 == 0
        workload.reset()
        tracer = Tracer()
        if traced:
            install(tracer)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with tracer:
                measures = workload.operation()
            wall = time.perf_counter() - start
            measures.update(wall=wall, cpu=cpu_seconds() - cpu0, traced=traced)
            problems = workload.check()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            measures = {"wall": time.perf_counter() - start, "cpu": cpu_seconds() - cpu0, "traced": traced}
            problems = ["operation raised"]
        if not trace and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(measure_reference(processes))
            last_reference = time.perf_counter()
        ops.append(measures)
        if problems:
            print(f"check failed: {'; '.join(problems[:5])}", file=sys.stderr)
        else:
            good.append(measures)
        if traced:
            absent = list(tracer.absent)
            calls, self_s = tracer.summary()
            for key, value in (
                [(f"{span}.calls", n) for span, n in calls.items()]
                + [(f"{span}.self_s", s) for span, s in self_s.items()]
                + list(tracer.counts.items())
            ):
                layer_totals[key] = layer_totals.get(key, 0) + value

    rss = peak_rss_mib()
    failed = len(ops) - len(good)
    timed = good or ops
    src = root / "src"
    code = probe_code(src, workload)
    notes = [f"reps_per_scenario={getattr(workload, 'n_reps', 'n/a')}"]
    if not trace:
        setup = statistics.median(run_probe(code, root)[0] for _ in range(sizes.setup_probes))
        ref_wall = interquartile_mean([wall for wall, _ in references])
        ref_cpu = interquartile_mean([cpu for _, cpu in references])
        op_wall = interquartile_mean([op["wall"] for op in timed])
        op_cpu = interquartile_mean([op["cpu"] for op in timed])
        base = f"interquartile mean of {len(timed)} ops over that of {len(references)} reference kernels"
        metrics = {
            "wall_rel": (op_wall / ref_wall, "x", base),
            "setup_s": (setup, "s", f"median of {sizes.setup_probes} fresh interpreters"),
            "cpu_rel": (op_cpu / ref_cpu, "x", base),
            "peak_rss_mib": (rss, "MiB", "high-water mark of the run"),
        }
        # Raw times, printed for reading but not gated: they carry the host's speed drift.
        notes += [
            f"wall_s = {op_wall:.6g} s (interquartile mean of {len(timed)} ops)",
            f"cpu_s = {op_cpu:.6g} s (interquartile mean of {len(timed)} ops)",
            f"reference_kernel_s = {ref_wall:.6g} s (interquartile mean of {len(references)}, "
            f"{processes} process{'es' if processes > 1 else ''} at once)",
        ]
        if good:
            notes += [f"{n} = {v:.6g} {u} ({s})" for n, v, u, s in workload.headline(good)]
        return Outcome(len(ops), failed, metrics, notes)

    traced_ops = [op for op in ops if op["traced"]]
    plain_ops = [op for op in ops if not op["traced"]]
    imports = [figures_import_s(run_probe(code, root, importtime=True)[1]) for _ in range(sizes.import_probes)]
    if any(value is None for value in imports):
        absent.append("figures.import_s")
    units = per_layer_units()
    metrics = {}
    for key, unit in units.items():
        metrics[key] = (layer_totals.get(key, 0) / len(traced_ops), unit, f"mean of {len(traced_ops)} traced ops")
    reps = getattr(workload, "reps_per_op", 0)
    streams = metrics["dgm.derive_stream.calls"][0]
    metrics["dgm.streams_per_rep"] = (streams / reps if reps else 0.0, units["dgm.streams_per_rep"],
                                      f"base {reps} replications per op")
    metrics["figures.import_s"] = (statistics.median(v or 0.0 for v in imports), "s",
                                   f"median of {len(imports)} fresh interpreters, -X importtime")
    plain = statistics.median(op["wall"] for op in plain_ops)
    traced_wall = statistics.median(op["wall"] for op in traced_ops)
    metrics["trace.overhead_s"] = (traced_wall - plain, "s",
                                   f"traced wall {traced_wall:.4f} s ({len(traced_ops)} ops) - untraced {plain:.4f} s ({len(plain_ops)} ops)")
    metrics["trace.absent"] = (len(absent), "count", ", ".join(absent) or "none")
    if name == "study-parallel":
        notes.append("traced numbers cover the parent process only; worker CPU time is in cpu_s via rusage")
    return Outcome(len(ops), failed, metrics, notes)
