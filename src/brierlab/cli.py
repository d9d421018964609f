"""Command-line entry point.

Four verbs: ``score`` a prediction/outcome pair file, ``expect`` closed-form
quantities, ``simulate`` a study configuration, and ``report`` SVG+CSV
figures from persisted results. Exit codes: 0 success, 2 validation or
configuration problem, 3 runtime I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import analytic, engine, figures, scoring
from .errors import BrierLabError, ValidationError
from .validation import commit_csv, commit_text

__all__ = ["main"]

# figure number: (metric, default sample size, y-axis label); exceed_prob is drawn as bars
_FIGURES = {
    "1": ("brier", 1000, "score"),
    "2": ("cil", 300, "calibration-in-the-large"),
    "3": ("gap", 300, "(ybar - ybar^2) - score of true probabilities"),
    "4": ("exceed_prob", 300, "P(score of true probabilities > ybar - ybar^2)"),
}


# mode: (flags it needs, in order; the closed form on their values, returning named values).
# --p and --q arrive as lists of strings and are read as decimals.
_EXPECT = {
    "g": (("--p1", "--q1"), lambda p1, q1: {"expected_score": analytic.expected_bs_single(p1, q1)}),
    "f": (("--q1",), lambda q1: {"expected_perfect_score": analytic.expected_bs_perfect_single(q1)}),
    "shift": (("--q1", "--eps", "--direction"), lambda q1, eps, direction: {
        "shift_difference": analytic.shift_difference(q1, analytic.PerturbationSpec(eps, direction))}),
    "perturb": (("--eps",), lambda eps: {"perturb_difference": analytic.perturb_difference(eps)}),
    "jensen": (("--q",), lambda q: analytic.jensen_bound(q)._asdict()),
    "clt": (("--p", "--q"), lambda p, q: dataclasses.asdict(analytic.clt_normal_approx(p, q))),
}


def _print_record(record: dict) -> None:
    """One key=value line per entry: floats as their repr, booleans as true/false, the rest as str()."""
    for key, value in record.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")


def cmd_score(args) -> int:
    p, y = scoring.read_pair_file(args.input)
    report = scoring.score_report(p, y, near_reference_delta=args.near_reference_delta)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        _print_record({**report.as_dict(), "warnings": ";".join(report.warnings)})
        for code in report.warnings:
            print(f"# {code}: {scoring.WARNING_EXPLANATIONS[code]}")
    return 0


def _flag_value(args, flag: str):
    value = getattr(args, flag[2:])
    if value is None:
        raise ValidationError(f"mode {args.mode!r} requires {flag}")
    if not isinstance(value, list):
        return value
    try:
        return [float(token) for token in value if token.strip()]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated decimals, got {','.join(value)!r}") from None


def cmd_expect(args) -> int:
    flags, formula = _EXPECT[args.mode]
    _print_record(formula(*(_flag_value(args, flag) for flag in flags)))
    return 0


def cmd_simulate(args) -> int:
    config = engine.load_study_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    total = len(engine.scenarios_for(config))

    def printed(cells):
        """Print a progress line per scenario of each cell, then pass the cell on to be written."""
        for cell in cells:
            for t, (scenario, stats) in enumerate(zip(cell.scenarios, cell.stats)):  # each scenario's brier row
                print(f"[{cell.index * len(cell.scenarios) + t + 1}/{total}] {scenario.label}: "
                      f"median={stats.median:.5f} mean={stats.mean:.5f}", flush=True)
            yield cell

    cells = engine.run_study(config, args.workers)  # checks --workers; no block runs until a cell is asked for
    Path(args.out).mkdir(parents=True, exist_ok=True)  # so an unusable --out fails before any block
    paths = engine.write_study_results(printed(cells), Path(args.out))
    print(f"wrote {len(paths) - 1 - total} cell files, {total} scenario files and {paths[-1]}")
    return 0


def _figure_rows(results_dir: Path, metric: str, n: int):
    summary_path = results_dir / "summary.csv"
    if not summary_path.exists():
        raise ValidationError(f"{results_dir}: missing summary.csv; run the simulate verb first")
    rows = engine.read_summary_csv(summary_path)
    wanted = [r for r in rows if r["n"] == n and r["metric"] == ("brier" if metric == "exceed_prob" else metric)]
    if not wanted:
        available = sorted({r["n"] for r in rows})
        raise ValidationError(
            f"{results_dir}: no scenarios with n={n} in summary.csv; available sample sizes: {available}"
        )
    return wanted


def cmd_report(args) -> int:
    metric, default_n, ylabel = _FIGURES[args.figure]
    n = default_n if args.n is None else args.n
    results_dir = Path(args.results)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _figure_rows(results_dir, metric, n)
    if metric == "exceed_prob":
        columns = ("scenario", "n", metric)
        items = [(r["scenario"], r[metric]) for r in rows]
        svg = figures.bar_svg(items, f"Exceedance probability by scenario (n={n})", ylabel)
    else:
        columns = engine.SUMMARY_CSV_COLUMNS[:7]  # scenario, n, metric, median, q05, q95, mean
        groups = zip([r["scenario"] for r in rows], engine.read_metric_samples(results_dir, rows, metric))
        svg = figures.violin_svg(list(groups), f"{metric} distribution by scenario (n={n})", ylabel)

    table = [columns, *([r[c] for c in columns] for r in rows)]  # the summary's floats and ints, as their repr
    svg_path = commit_text(out_dir / f"figure{args.figure}.svg", svg)
    csv_path = commit_csv(out_dir / f"figure{args.figure}.csv", table)
    print(f"wrote {svg_path} and {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brierlab",
        description="Score binary probability predictions, evaluate closed forms, "
        "run simulation studies, and render report figures.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_score = sub.add_parser("score", help="score a two-column p,y pair file")
    p_score.add_argument("--input", required=True, help="pair file with header p,y")
    p_score.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_score.add_argument(
        "--near-reference-delta",
        type=float,
        default=0.01,
        help="threshold for the NEAR_REFERENCE diagnostic (default 0.01)",
    )
    p_score.set_defaults(func=cmd_score)

    p_expect = sub.add_parser("expect", help="evaluate closed-form quantities")
    p_expect.add_argument(
        "--mode", required=True, choices=tuple(_EXPECT),
        help="g: expected score of p1 against truth q1; f: expected score under "
        "perfect prediction; shift: truth moved toward 1/2; perturb: prediction "
        "off by eps; jensen: upper bound for a truth vector; clt: normal "
        "approximation for prediction/truth vectors",
    )
    p_expect.add_argument("--p1", type=float, help="scalar prediction")
    p_expect.add_argument("--q1", type=float, help="scalar true probability")
    p_expect.add_argument("--eps", type=float, help="perturbation size")
    p_expect.add_argument("--direction", choices=("plus", "minus"), default="plus")
    p_expect.add_argument("--p", type=lambda text: text.split(","), help="comma-separated prediction vector")
    p_expect.add_argument("--q", type=lambda text: text.split(","), help="comma-separated true-probability vector")
    p_expect.set_defaults(func=cmd_expect)

    p_sim = sub.add_parser("simulate", help="run a study configuration")
    p_sim.add_argument("--config", required=True, help="JSON study document")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--workers", type=int, default=1, help="1: one thread; more: processes (default 1)")
    p_sim.add_argument("--out", required=True, help="directory for result CSVs")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="render a figure from persisted results")
    p_rep.add_argument("--results", required=True, help="directory written by simulate")
    p_rep.add_argument("--figure", required=True, choices=tuple(_FIGURES))
    p_rep.add_argument("--out", required=True, help="directory for figure SVG+CSV")
    p_rep.add_argument("--n", type=int, default=None, help="override the figure's sample size")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):  # print labels the locale cannot encode, as stderr does
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        return args.func(args)
    except BrierLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
