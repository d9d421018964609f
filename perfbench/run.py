"""Run one brierlab benchmark workload and print its metrics.

Usage, from the root of a brierlab source tree:

    python3 perfbench/run.py --workload study-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the working directory; without it the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads. OpenBLAS's spare thread
# only spins on this program's small matrices (report: the same wall time, twice
# the CPU time), and two study-parallel workers with two threads each would put
# four threads on a two-CPU machine. Set-up probes and workers inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench import WORKLOADS  # noqa: E402  (needs the path above)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (nonnegative)")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def git_commit(root: Path) -> str:
    """Commit of the source tree read from .git, or 'unknown' outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(src: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (src / "brierlab").rglob("*.py"))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "brierlab" / "__init__.py").is_file():
        print(f"error: {src / 'brierlab'} not found; run from the root of a brierlab source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import brierlab
    from perfbench import workloads

    if Path(brierlab.__file__).resolve().parent != (src / "brierlab").resolve():
        print(f"error: imported brierlab from {brierlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), root, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"# nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} commit={git_commit(root)}"
    )
    print(f"# src/brierlab lines={src_lines(src)} (informational, not gated)")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit} ({samples})")
    print(f"fail_ratio = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} failed / {outcome.attempted} attempted operations)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
