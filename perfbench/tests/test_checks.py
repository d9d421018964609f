"""Each workload's output check must reject a broken output, so fail_ratio is not vacuous."""

import numpy as np
import pytest

from perfbench import workloads
from perfbench.workloads import Sizes

SMALL = Sizes(study_reps=20, report_reps=5, pair_rows=500, oracle_n=6, pool_size=1000,
              setup_probes=1, import_probes=1)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    study = workloads.Study(tmp_path_factory.mktemp("study"), seed=3, sizes=SMALL, workers=1)
    study.operation()
    assert study.check() == []
    return study


def test_study_check_rejects_a_truncated_scenario_csv(study, tmp_path):
    broken = tmp_path / "results"
    broken.mkdir()
    for path in study.results.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    victim = sorted(broken.glob("uniform*perfect*n300.csv"))[0]
    lines = victim.read_text().splitlines(keepends=True)
    victim.write_text("".join(lines[:-3]))
    problems = workloads.check_study(broken, study.expected, study.n_reps)
    assert any(p.startswith(victim.stem.split("_")[0]) and "replication rows" in p for p in problems)
    assert workloads.check_identical(study.results, broken)


def test_study_check_rejects_a_biased_perfect_brier_mean(study):
    expected = dict(study.expected)
    expected["uniform(0,1)"] += 0.05
    problems = workloads.check_study(study.results, expected, study.n_reps)
    assert any("standard errors" in p for p in problems)


def test_library_check_rejects_a_wrong_brier_value():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 1, 100)
    y = (rng.random(100) < p).astype(float)
    brier = float(np.mean((p - y) ** 2))
    assert workloads.check_score(brier, p, y) == []
    assert workloads.check_score(brier + 1e-9, p, y)


def test_library_check_rejects_a_wrong_oracle_value(tmp_path):
    library = workloads.Library(tmp_path, seed=4, sizes=SMALL)
    library.operation()
    assert library.check() == []
    library.last["expected"] += 1e-9
    assert library.check()


def test_report_check_rejects_a_malformed_or_incomplete_svg(tmp_path):
    report = workloads.Report(tmp_path, seed=5, sizes=SMALL)
    report.operation()
    assert report.check() == []
    svg = report.figures / "figure2.svg"
    text = svg.read_text()
    svg.write_text(text[: len(text) // 2])
    assert any("not well-formed" in p for p in report.check())
    first = text.index("<polygon")
    svg.write_text(text[:first] + text[text.index("/>", first) + 2:])
    assert any("violins or bars" in p for p in report.check())
