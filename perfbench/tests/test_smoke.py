"""Very short runs of every workload, traced and untraced."""

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.workloads import Sizes

ROOT = Path(__file__).resolve().parents[2]
SMALL = Sizes(study_reps=20, report_reps=5, pair_rows=500, oracle_n=6, pool_size=1000,
              setup_probes=1, import_probes=1)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    outcome = workloads.run_workload(name, 7, 0, False, ROOT, tmp_path, SMALL)
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert list(outcome.metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _, _ in outcome.metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    outcome = workloads.run_workload(name, 7, 0, True, ROOT, tmp_path, SMALL)
    assert outcome.attempted >= 2 and outcome.failed == 0
    assert sorted(outcome.metrics) == sorted(_declared("per_layer"))
    value = {key: metric[0] for key, metric in outcome.metrics.items()}
    assert value["trace.absent"] == 0
    if name == "study-serial":
        assert value["dgm.streams_per_rep"] == 3
        assert value["engine.pool.starts"] == 0
    if name == "study-parallel":
        assert value["engine.pool.starts"] == workloads.N_SCENARIOS
        assert value["dgm.derive_stream.calls"] == 0
    if name in ("report", "library"):
        assert value["dgm.derive_stream.calls"] == 0


@pytest.mark.parametrize("processes", [1, 2])
def test_reference_measurement_times_the_kernel_and_reaps_its_workers(processes):
    wall, cpu = workloads.measure_reference(processes)
    assert wall > 0 and cpu > 0
    assert multiprocessing.active_children() == []


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "library", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
