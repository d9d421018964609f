"""Scenario engine: replications, summaries, studies, persistence."""

import concurrent.futures
import csv
import dataclasses
import errno
import functools
import inspect
import io
import json
import math
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brierlab import engine, validation
from brierlab.analytic import perfect_bs_lower_bound
from brierlab.cli import main
from brierlab.dgm import (
    PREDICTOR_TRANSFORMS,
    TRUE_DISTRIBUTIONS,
    EmpiricalProbabilityPool,
    PredictorTransformSpec as Transform,
    TrueDistributionSpec as Dist,
    derive_stream,
    load_empirical_pool,
    make_synthetic_pool,
    sample_outcomes,
    sample_true_probs,
)
from brierlab.engine import (
    BLOCK_REPS,
    CELL_CSV_COLUMNS,
    SCENARIO_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    Scenario,
    load_study_config,
    read_cell_csv,
    read_scenario_csv,
    read_summary_csv,
    replication_streams,
    run_replication,
    run_scenario,
    run_study,
    scenario_filename,
    scenarios_for,
    summarize,
    write_scenario_csv,
    write_study_results,
    write_summary_csv,
)
from brierlab.errors import ConfigError, InsufficientPoolError, ValidationError
from brierlab.oracle import EXCEEDANCE_TIE_TOL, exact_exceedance_probability
from brierlab.presets import DEFAULT_SEED, synthetic_pools

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Float cells for the scenario-reader parity test; see CELLS in test_scoring.py.
SCENARIO_CELLS = ("0.25", "-0.5", "1e-3", "-0", "nan", "inf", "1e400", "0.2_5", '"0.5"', " 0.5", "", "abc", "\x1c0.5")
# Cells for the rep and exceeded columns in the same test.
REP_CELLS = ("1", "2", "7", "1.5", "-3", "1e2", "x")
EXCEEDED_CELLS = ("0", "1", "0.5", "2", "-0", "1.0", "nan")
# Cells a column may hold beside those: text a metric read leaves unparsed in its other column, a quote
# that opens a quoted cell to the csv module, and a NUL, which the csv module refuses before Python 3.11.
UNTYPED_CELLS = ('"a', 'b"', "\x00", "\xe9", "\u2028", "\x1f")


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="only forked workers inherit a replaced _run_block"
)


def small_config(**overrides):
    from brierlab.engine import StudyConfig

    defaults = dict(
        name="unit",
        seed=321,
        n_reps=40,
        sample_sizes=(50,),
        dgms=(Dist.uniform(0.0, 1.0), Dist.constant(0.5)),
        transforms=(Transform.perfect(), Transform.additive_bias(0.1)),
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def per_line_scenario_rows(path):
    """The rows of a scenario file as the per-line reader alone reads them."""
    return validation.csv_rows(path, engine._SCENARIO_CSV)


def replace_cell(path, row, column, text):
    """Overwrite one cell of a results CSV, counting the header as row 0."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][column] = text
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


class TestRunReplication:
    """Replications as the rows of a cell's block: engine._run_block, _score_cell and run_replication."""

    def test_constant_half_perfect_is_exact(self):
        scenario = Scenario(Dist.constant(0.5), Transform.perfect(), 300)
        for block in range(2):
            table = engine._run_block((scenario,), 5, 0, block, BLOCK_REPS + 20)
            assert table.shape == (5, (BLOCK_REPS, 20)[block])
            assert np.all(table[0] == 0.25)  # each (0.5 - y)^2 is exactly 0.25

    def test_two_point_degenerate_is_zero(self):
        scenario = Scenario(Dist.two_point(0.0, 1.0, 0.5), Transform.perfect(), 300)
        table = engine._run_block((scenario,), 5, 0, 0, 20)
        assert table.shape == (5, 20)
        assert np.all(table[0] == 0.0)

    def test_deterministic_per_stream(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.uniform_noise(0.1), 100)
        a = engine._run_block((scenario,), 7, 2, 9, 10 * BLOCK_REPS)
        b = engine._run_block((scenario,), 7, 2, 9, 10 * BLOCK_REPS)
        other = engine._run_block((scenario,), 7, 2, 8, 10 * BLOCK_REPS)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_gap_and_exceedance_are_consistent(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 50)
        brier, _, gap, exceeded, ybar = engine._run_block((scenario,), 11, 0, 0, 50)
        reference = ybar - ybar**2
        brier_perfect = reference - gap
        assert np.array_equal(exceeded == 1.0, brier_perfect > reference + 1e-12)
        assert np.allclose(brier, brier_perfect, rtol=0, atol=1e-15)  # perfect p is q

    @pytest.mark.parametrize(
        "dist",
        [
            Dist.uniform(0.0, 1.0),
            Dist.beta(2.0, 5.0),
            Dist.two_point(0.1, 0.9, 0.3),
            Dist.empirical(make_synthetic_pool(0.3, size=400, rng=2)),
        ],
        ids=lambda dist: dist.kind,
    )
    def test_single_replication_is_first_row_of_its_block(self, dist):
        transforms = (Transform.additive_bias(0.1), Transform.uniform_noise(0.1), Transform.rademacher_noise(0.1))
        for transform in transforms:
            scenario = Scenario(dist, transform, 60)
            row = run_replication(scenario, replication_streams(13, 4, 2))
            assert np.array_equal(row, engine._run_block((scenario,), 13, 4, 2, 3 * BLOCK_REPS)[:, 0])

    def test_empirical_rows_hold_distinct_pool_entries(self):
        values = np.linspace(0.001, 0.999, 500)  # every pool entry distinct
        spec = Dist.empirical(EmpiricalProbabilityPool(values, "distinct"))
        q = sample_true_probs(spec, (BLOCK_REPS, 300), derive_stream(17, 0, 0, 0))
        assert q.shape == (BLOCK_REPS, 300)
        assert np.all(np.isin(q, values))
        for row in q:
            assert np.unique(row).size == 300
        assert len({row.tobytes() for row in q}) == BLOCK_REPS  # a fresh subsample per row


class TestSummarize:
    def test_odd_count_median(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.median == 3.0
        assert stats.mean == 3.0

    def test_constant_samples(self):
        stats = summarize([0.25] * 10)
        assert stats == (0.25, 0.25, 0.25, 0.25)

    def test_uniform_order_statistics(self):
        samples = np.random.default_rng(0).random(5000)
        stats = summarize(samples)
        assert stats.q05 == pytest.approx(0.05, abs=0.02)
        assert stats.q95 == pytest.approx(0.95, abs=0.02)
        assert stats.median == pytest.approx(0.5, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])

    def test_non_number_rejected_naming_the_argument(self):
        # numpy's own wording follows
        with pytest.raises(ValidationError, match="^samples must hold numbers only: "):
            summarize(["a"])

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 129, 1000])
    def test_batched_rows_equal_summarize_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        table = np.stack([
            rng.random(n),
            rng.normal(size=n) * 1e6,
            rng.integers(0, 3, n).astype(float),  # ties
            np.full(n, 0.1),  # constant
            -rng.random(n),
        ])
        rows = engine._summarize_rows(table)
        assert len(rows) == len(table)
        strided = np.empty((len(table), 2 * n))
        strided[:, ::2] = table
        for row, stats, spaced in zip(table, rows, strided):
            # the per-row definition: one 1-D quantile call and one 1-D mean
            q05, median, q95 = np.quantile(row, [0.05, 0.5, 0.95])
            assert stats == (float(median), float(q05), float(q95), float(np.mean(row)))
            assert stats == summarize(row) == summarize(row.tolist()) == summarize(spaced[::2])


class TestRunScenario:
    def test_single_replication_summaries(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 30)
        result = run_scenario(scenario, 1, 99)
        stats = result.summaries["brier"]
        assert stats.median == stats.mean == result.brier_samples[0]
        assert stats.q05 == stats.q95 == result.brier_samples[0]

    def test_sample_sets_and_quantile_order(self):
        scenario = Scenario(Dist.beta(2.0, 5.0), Transform.uniform_noise(0.1), 40)
        result = run_scenario(scenario, 80, 99)
        for samples in (result.brier_samples, result.cil_samples, result.gap_samples):
            assert samples.shape == (80,)
        for stats in result.summaries.values():
            assert stats.q05 <= stats.median <= stats.q95
        assert 0.0 <= result.exceed_prob <= 1.0

    def test_reruns_are_identical(self):
        scenario = Scenario(Dist.uniform(0.0, 0.2), Transform.rademacher_noise(0.1), 60)
        a = run_scenario(scenario, 50, 123, scenario_index=4)
        b = run_scenario(scenario, 50, 123, scenario_index=4)
        assert np.array_equal(a.brier_samples, b.brier_samples)
        assert np.array_equal(a.exceeded, b.exceeded)

    def test_worker_count_does_not_change_results(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.uniform_noise(0.05), 40)
        serial = run_scenario(scenario, 60, 7, scenario_index=1, workers=1)
        parallel = run_scenario(scenario, 60, 7, scenario_index=1, workers=3)
        assert np.array_equal(serial.brier_samples, parallel.brier_samples)
        assert np.array_equal(serial.cil_samples, parallel.cil_samples)
        assert np.array_equal(serial.gap_samples, parallel.gap_samples)
        assert np.array_equal(serial.ybar_samples, parallel.ybar_samples)
        assert np.array_equal(serial.exceeded, parallel.exceeded)

    def test_worker_counts_agree_across_a_partial_block(self):
        scenario = Scenario(Dist.beta(2.0, 5.0), Transform.rademacher_noise(0.1), 40)
        n_reps = BLOCK_REPS + 37
        serial = run_scenario(scenario, n_reps, 7, scenario_index=1, workers=1)
        for workers in (2, 3):
            parallel = run_scenario(scenario, n_reps, 7, scenario_index=1, workers=workers)
            for name in ("brier_samples", "cil_samples", "gap_samples", "ybar_samples", "exceeded"):
                assert np.array_equal(getattr(serial, name), getattr(parallel, name))
            assert serial.summaries == parallel.summaries

    def test_perfect_scores_respect_lower_bound(self):
        # per replication: BS(q, y) >= max_i min(q_i, 1-q_i)^2 / n
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 25)
        n_reps = BLOCK_REPS + 37
        result = run_scenario(scenario, n_reps, 31, scenario_index=2)
        for block, rows in enumerate((BLOCK_REPS, 37)):
            q_block = sample_true_probs(scenario.true_dist, (rows, scenario.n), derive_stream(31, 2, block, 0))
            # the block's q and outcome streams are addressed (seed, scenario, block, purpose)
            y_block = sample_outcomes(q_block, derive_stream(31, 2, block, 2))
            first = block * BLOCK_REPS
            assert np.array_equal(result.ybar_samples[first:first + rows], y_block.mean(axis=1))
            for row, q in enumerate(q_block):
                rep = block * BLOCK_REPS + row
                bound = perfect_bs_lower_bound(q)
                reference = result.ybar_samples[rep] - result.ybar_samples[rep] ** 2
                brier_perfect = reference - result.gap_samples[rep]
                assert brier_perfect >= bound - 1e-12
                assert bound > 0.0

    def test_estimated_exceedance_matches_oracle(self):
        # fixed truths allow an exact enumeration comparison at n = 10
        for c, n_reps in ((0.5, 4000), (0.2, 4000)):
            scenario = Scenario(Dist.constant(c), Transform.perfect(), 10)
            result = run_scenario(scenario, n_reps, 57)
            exact = exact_exceedance_probability([c] * 10)
            estimate = result.exceed_prob
            se = math.sqrt(max(estimate * (1 - estimate), 1e-12) / n_reps)
            assert abs(estimate - exact) <= 3 * se

    def test_estimated_exceedance_matches_oracle_beyond_the_full_law(self):
        # n = 30 is past the full law's limit; the split enumeration still covers it
        n_reps = 4000
        result = run_scenario(Scenario(Dist.constant(0.3), Transform.perfect(), 30), n_reps, 58)
        exact = exact_exceedance_probability([0.3] * 30)
        se = math.sqrt(exact * (1 - exact) / n_reps)
        assert abs(result.exceed_prob - exact) <= 4 * se

    def test_estimated_exceedance_matches_oracle_for_random_truths(self):
        # P(exceed) for q ~ Beta(2, 5) is the oracle's exact value averaged over q, estimated from 200 draws
        n, n_reps, draws = 20, 4000, 200
        result = run_scenario(Scenario(Dist.beta(2.0, 5.0), Transform.perfect(), n), n_reps, 59)
        q = sample_true_probs(Dist.beta(2.0, 5.0), (draws, n), np.random.default_rng(2025))
        exact = np.array([exact_exceedance_probability(row) for row in q])
        estimate = result.exceed_prob
        se = math.sqrt(estimate * (1 - estimate) / n_reps + np.var(exact, ddof=1) / draws)
        assert abs(estimate - exact.mean()) <= 4 * se

    def test_validation(self):
        scenario = Scenario(Dist.constant(0.5), Transform.perfect(), 10)
        with pytest.raises(ValidationError):
            run_scenario(scenario, 0, 1)
        with pytest.raises(ValidationError):
            run_scenario(scenario, 10, 1, workers=0)
        with pytest.raises(ValidationError):
            Scenario(Dist.constant(0.5), Transform.perfect(), 0)
        with pytest.raises(ValidationError, match=r"^scenario must be a Scenario, got None$"):
            run_scenario(None, 5, 1)

    def test_negative_seed_rejected_before_any_block(self, monkeypatch):
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        scenario = Scenario(Dist.constant(0.5), Transform.perfect(), 10)
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            run_scenario(scenario, 10, -1)
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            run_study(small_config(seed=-1))


class TestStudy:
    def test_cartesian_count(self):
        labels = [scenario.label for cell in run_study(small_config()) for scenario in cell.scenarios]
        assert len(labels) == 4
        assert len(set(labels)) == 4

    def test_full_grid_counts(self):
        config = load_study_config(CONFIGS / "full_grid.json")
        scenarios = scenarios_for(config)
        assert len(scenarios) == 70
        assert sum(1 for s in scenarios if s.n == 300) == 35
        assert sum(1 for s in scenarios if s.n == 1000) == 35

    def test_quick_demo_runs(self):
        config = load_study_config(CONFIGS / "quick_demo.json")
        scenarios = scenarios_for(config)
        assert len(scenarios) == 9

    def test_every_kind_config_covers_both_registries(self):
        # the CI smoke run simulates this config, so a new kind cannot skip it
        config = load_study_config(CONFIGS / "every_kind.json")
        assert {dgm.kind for dgm in config.dgms} == {*TRUE_DISTRIBUTIONS, "empirical"}
        assert {transform.kind for transform in config.transforms} == set(PREDICTOR_TRANSFORMS)
        assert config.n_reps % BLOCK_REPS != 0  # one block is partial

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="only forked workers inherit modules")
    def test_forked_workers_find_numpy_random_loaded(self, tmp_path):
        # numpy loads numpy.random on first use; a fresh study loads it once, before its pool forks
        code = """if True:
            import functools, os, sys
            from brierlab import engine
            from brierlab.dgm import PredictorTransformSpec as T, TrueDistributionSpec as D

            @functools.wraps(engine._run_block)
            def first_task_reports(*task, run_block=engine._run_block):
                mark = os.path.join(sys.argv[1], str(os.getpid()))
                if not os.path.exists(mark):
                    with open(mark, "w") as fh:
                        fh.write(str("numpy.random" in sys.modules))
                return run_block(*task)

            engine._run_block = first_task_reports
            dgms = tuple(D.constant(c) for c in (0.1, 0.3, 0.5, 0.7))
            config = engine.StudyConfig("fresh", 5, 300, (20,), dgms, (T.perfect(),))
            print("numpy.random" in sys.modules)
            list(engine.run_study(config, workers=2))
        """
        src = str(Path(engine.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout == "False\n"  # nothing before the pool loads it
        reports = [path.read_text() for path in tmp_path.iterdir()]
        assert reports and set(reports) == {"True"}

    def test_shorter_run_is_a_prefix_of_a_longer_one(self):
        # replication r of a cell draws the same numbers whatever N is, so a run can later be extended
        config = load_study_config(CONFIGS / "every_kind.json")
        short = list(run_study(dataclasses.replace(config, n_reps=100)))
        long = list(run_study(dataclasses.replace(config, n_reps=2 * BLOCK_REPS + 44)))
        assert sum(len(cell.scenarios) for cell in short) == 40
        for a, b in zip(short, long, strict=True):
            assert a.scenarios == b.scenarios
            assert np.array_equal(a.table, b.table[:, :100])

    def test_study_reproducible(self):
        for a, b in zip(run_study(small_config()), run_study(small_config()), strict=True):
            assert np.array_equal(a.table, b.table)

    @pytest.mark.parametrize("labels", [("a b", "a_b"), ("same", "same")])
    def test_filename_collision_fails_before_any_replication(self, monkeypatch, labels):
        calls = []
        original = engine._run_block

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "_run_block", counting)
        dgms = tuple(
            Dist.empirical(make_synthetic_pool(0.3, size=60, rng=1, label=label)) for label in labels
        )
        with pytest.raises(ConfigError, match="collide") as info:
            run_study(small_config(dgms=dgms))
        assert calls == []
        for label in labels:
            assert f"empirical({label})" in str(info.value)

    def test_pool_smaller_than_a_sample_size_fails_before_any_block(self, monkeypatch):
        # a directly built config is checked too, not only a config document
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        tiny = Dist.empirical(make_synthetic_pool(0.3, size=3, rng=1, label="tiny"))
        with pytest.raises(InsufficientPoolError) as info:
            run_study(small_config(dgms=(Dist.uniform(0.0, 1.0), tiny), sample_sizes=(2, 5)))
        assert str(info.value) == "dgms[1]: pool 'tiny' has 3 values, cannot subsample n=5 without replacement"

    def test_parallel_study_starts_one_process_pool(self, monkeypatch):
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        config = small_config(n_reps=BLOCK_REPS + 37)
        parallel = list(run_study(config, workers=2))
        assert len(starts) == 1
        for a, b in zip(run_study(config), parallel, strict=True):
            assert np.array_equal(a.table, b.table)

    def test_pool_files_match_generator(self):
        # the checked-in pools are the generator's output, bit for bit
        for pool in synthetic_pools(DEFAULT_SEED, 5000):
            stored = load_empirical_pool(CONFIGS / "pools" / f"{pool.label}.txt")
            assert stored.label == pool.label
            assert np.array_equal(stored.probabilities, pool.probabilities)



class TestDirectInputChecks:
    """Bad direct-API input fails with ValidationError, not a numpy or Python error."""

    @pytest.mark.parametrize("empty", ["transforms", "dgms", "sample_sizes"])
    def test_empty_grid_rejected_before_any_block(self, monkeypatch, empty):
        calls = []
        monkeypatch.setattr(engine, "_run_block", lambda *args: calls.append(args))
        with pytest.raises(ValidationError, match="at least one"):
            run_study(small_config(**{empty: ()}))
        assert calls == []

    @pytest.mark.parametrize("index", [-1, 1.5, True])
    def test_bad_cell_index_rejected(self, index):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 10)
        with pytest.raises(ValidationError, match="cell index"):
            run_scenario(scenario, 5, 1, scenario_index=index)

    @pytest.mark.parametrize("n_reps", [0, -3, 10.5, True])
    def test_bad_replication_count_rejected(self, n_reps):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 10)
        with pytest.raises(ValidationError, match="replication count"):
            run_scenario(scenario, n_reps, 1)

    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10", 0])
    def test_non_integral_sample_size_rejected(self, n):
        with pytest.raises(ValidationError, match="sample size"):
            Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), n)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_non_integer_seed_rejected_before_any_block(self, monkeypatch, seed):
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        with pytest.raises(ValidationError, match=rf"^seed must be an integer, got {seed!r}$"):
            run_study(small_config(seed=seed))

    @pytest.mark.parametrize("workers", [1.5, True, "2", None])
    def test_non_integer_worker_count_rejected_before_any_block(self, monkeypatch, workers):
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        with pytest.raises(ValidationError, match=rf"^worker count must be an integer, got {workers!r}$"):
            run_study(small_config(), workers=workers)

    def test_numpy_integer_seed_and_worker_count_accepted(self):
        expected = run_study(small_config())
        for got, want in zip(run_study(small_config(seed=np.int64(321)), workers=np.int32(1)), expected, strict=True):
            assert np.array_equal(got.table, want.table)

    @pytest.mark.parametrize("build, message", [
        (lambda: Scenario("uniform", Transform.perfect(), 5), "scenario true_dist must be a TrueDistributionSpec, got 'uniform'"),
        (lambda: Scenario(Dist.uniform(0.0, 1.0), "perfect", 5),
         "scenario transform must be a PredictorTransformSpec, got 'perfect'"),
        (lambda: Scenario(Transform.perfect(), Transform.perfect(), 5),
         "scenario true_dist must be a TrueDistributionSpec, got PredictorTransformSpec(kind='perfect', params=(), "
         "label='perfect')"),
        (lambda: small_config(dgms=(Dist.uniform(0.0, 1.0), "uniform")),
         "scenario true_dist must be a TrueDistributionSpec, got 'uniform'"),
        (lambda: small_config(transforms=(Transform.perfect(), None)),
         "scenario transform must be a PredictorTransformSpec, got None"),
    ], ids=["scenario-dist", "scenario-transform", "swapped", "config-dgm", "config-transform"])
    def test_a_spec_field_that_is_not_a_spec_is_refused(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_numpy_integer_sample_size_accepted(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), np.int64(10))
        assert scenario.label.endswith("+n10")
        assert run_scenario(scenario, 3, 1).brier_samples.shape == (3,)


class TestStudyConfigChecks:
    """A StudyConfig checks its grid when it is built, directly or through dataclasses.replace."""

    TINY = Dist.empirical(make_synthetic_pool(0.3, size=3, rng=1, label="tiny"))

    @pytest.mark.parametrize("overrides, error, message", [
        ({"sample_sizes": ()}, ValidationError, "a study needs at least one sample size, true distribution and transform"),
        ({"dgms": (Dist.constant(0.5), Dist.constant(0.5))}, ConfigError,
         "scenario and cell labels collide after filename sanitization: ['constant(0.5)+n50', "
         "'constant(0.5)+perfect+n50', 'constant(0.5)+bias(+0.1)+n50', 'constant(0.5)+n50', "
         "'constant(0.5)+perfect+n50', 'constant(0.5)+bias(+0.1)+n50']"),
        # the cell file of empirical(a+perfect) at n = 50 is the perfect scenario file of empirical(a)
        ({"dgms": tuple(Dist.empirical(make_synthetic_pool(0.3, size=60, rng=1, label=label))
                        for label in ("a", "a+perfect"))}, ConfigError,
         "scenario and cell labels collide after filename sanitization: "
         "['empirical(a)+perfect+n50', 'empirical(a+perfect)+n50']"),
        ({"dgms": (Dist.uniform(0.0, 1.0), TINY), "sample_sizes": (2, 5)}, InsufficientPoolError,
         "dgms[1]: pool 'tiny' has 3 values, cannot subsample n=5 without replacement"),
        ({"sample_sizes": 50}, ValidationError, "study sample_sizes must be a sequence other than a string, got 50"),
        ({"sample_sizes": "50"}, ValidationError, "study sample_sizes must be a sequence other than a string, got '50'"),
        ({"sample_sizes": (50, 2.5)}, ValidationError, "scenario sample size must be an integer, got 2.5"),
        ({"sample_sizes": (10, True)}, ValidationError, "scenario sample size must be an integer, got True"),
        ({"dgms": Dist.uniform(0.0, 1.0)}, ValidationError,
         f"study dgms must be a sequence other than a string, got {Dist.uniform(0.0, 1.0)!r}"),
        ({"dgms": "abc"}, ValidationError, "study dgms must be a sequence other than a string, got 'abc'"),
        ({"transforms": Transform.perfect()}, ValidationError,
         f"study transforms must be a sequence other than a string, got {Transform.perfect()!r}"),
        ({"seed": -1}, ValidationError, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, ValidationError, "seed must be an integer, got 1.5"),
        ({"n_reps": 0}, ValidationError, "replication count must be >= 1, got 0"),
        ({"n_reps": True}, ValidationError, "replication count must be an integer, got True"),
        ({"name": 3}, ValidationError, "study name must be a string, got 3"),
        # empirical_<240 a's>_n50.csv is 258 characters, over the 255 bytes a file name may take
        ({"dgms": (Dist.empirical(make_synthetic_pool(0.3, size=60, rng=1, label="a" * 240)),)}, ConfigError,
         "scenario and cell labels make file names over 255 characters: "
         f"['empirical({'a' * 240})+n50', 'empirical({'a' * 240})+perfect+n50', "
         f"'empirical({'a' * 240})+bias(+0.1)+n50']"),
    ], ids=["empty-grid", "label-clash", "cell-file-clash", "small-pool", "sizes-int", "sizes-str", "sizes-float",
            "sizes-bool", "bare-dgm", "str-dgms", "bare-transform", "negative-seed", "float-seed", "zero-reps",
            "bool-reps", "int-name", "name-too-long"])
    def test_refused_when_built_before_any_block(self, monkeypatch, overrides, error, message):
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        with pytest.raises(error) as info:
            small_config(**overrides)
        assert str(info.value) == message
        valid = small_config()
        with pytest.raises(error) as info:
            dataclasses.replace(valid, **overrides)
        assert str(info.value) == message

    def test_checks_run_in_order_empty_grid_then_clash_then_pool(self):
        with pytest.raises(ValidationError, match="at least one"):
            small_config(dgms=(self.TINY, self.TINY), transforms=())
        with pytest.raises(ConfigError, match="collide"):
            small_config(dgms=(self.TINY, self.TINY), sample_sizes=(2, 5))


class TestCountBounds:
    """Counts and sizes are at most 2**53, the largest rep a results file can hold, refused before any block."""

    SCENARIO = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 10)

    @pytest.mark.parametrize("build, message", [
        (lambda: small_config(sample_sizes=(50, 10**30)), f"scenario sample size must be <= 2**53, got {10**30}"),
        (lambda: small_config(n_reps=10**20), f"replication count must be <= 2**53, got {10**20}"),
        (lambda: dataclasses.replace(small_config(), n_reps=2**53 + 1),
         "replication count must be <= 2**53, got 9007199254740993"),
        (lambda: Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), np.int64(2**53 + 1)),
         "scenario sample size must be <= 2**53, got 9007199254740993"),
        (lambda: run_scenario(TestCountBounds.SCENARIO, 2**53 + 1, 1),
         "replication count must be <= 2**53, got 9007199254740993"),
        (lambda: sample_true_probs(Dist.uniform(0.0, 1.0), 10**30, np.random.default_rng(1)),
         f"total size must be <= 2**53, got {10**30}"),
        # the product of numpy integers, 2**64, would wrap to 0
        (lambda: sample_true_probs(Dist.uniform(0.0, 1.0), (np.int64(2**32),) * 2, np.random.default_rng(1)),
         f"total size must be <= 2**53, got {2**64}"),
        (lambda: make_synthetic_pool(0.3, size=10**30), f"pool size must be <= 2**53, got {10**30}"),
        (lambda: run_study(small_config(), workers=2**53 + 1), "worker count must be <= 2**53, got 9007199254740993"),
    ], ids=["study-n", "study-N", "replaced-N", "scenario-n", "run_scenario-N", "draw-n", "draw-rows-by-n",
            "pool-size", "workers"])
    def test_a_count_above_2_53_is_refused(self, monkeypatch, build, message):
        # listing the blocks of N = 2**53 + 1 would exhaust memory before the first one ran
        monkeypatch.setattr(engine, "_run_cells", lambda *args: pytest.fail("the blocks were listed"))
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the address space on Linux")
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=FORK_ONLY)])
    def test_the_first_block_runs_before_the_rest_are_made(self, workers):
        # N = 10**10 is 78 125 000 blocks: listed up front, their tasks alone would not fit in 1 GiB
        code = """if True:
            import resource, sys
            from brierlab import engine
            from brierlab.dgm import PredictorTransformSpec as T, TrueDistributionSpec as D

            class Sentinel(Exception):
                pass

            def first_block_fails(*task):
                raise Sentinel

            engine._run_block = first_block_fails
            resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
            scenario = engine.Scenario(D.constant(0.5), T.perfect(), 10)
            try:
                engine.run_scenario(scenario, 10**10, 1, workers=int(sys.argv[1]))
            except Sentinel:
                print("first block ran")
        """
        src = str(Path(engine.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, str(workers)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "first block ran\n", "")

    def test_2_53_is_taken(self):
        # building a scenario or a study runs nothing
        assert Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 2**53).label == f"uniform(0,1)+perfect+n{2**53}"
        assert small_config(n_reps=2**53, sample_sizes=(2**53,)).n_reps == 2**53
        assert validation.MAX_COUNT == 2**53

    @pytest.mark.parametrize("field, value, message", [
        ("sample_sizes", [10**30], f"scenario sample size must be <= 2**53, got {10**30}"),
        ("N", 10**20, f"replication count must be <= 2**53, got {10**20}"),
    ], ids=["sample_sizes", "N"])
    def test_simulate_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, field, value, message):
        doc = {"study": {"name": "big", "seed": 1, "N": 5, "sample_sizes": [10]},
               "dgms": [{"kind": "constant", "c": 0.5}], "transforms": [{"kind": "perfect"}]}
        doc["study"][field] = value
        (tmp_path / "big.json").write_text(json.dumps(doc))
        monkeypatch.setattr(engine, "_run_cells", lambda *args: pytest.fail("the blocks were listed"))
        assert main(["simulate", "--config", str(tmp_path / "big.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestStreamedWrites:
    """Each cell is committed as it arrives: a failure at the second cell keeps the first and writes no summary."""

    CONFIG = small_config(n_reps=BLOCK_REPS + 37)  # two cells of two blocks each
    FIRST_CELL = ["uniform_0_1_bias_0.1_n50.csv", "uniform_0_1_n50.csv", "uniform_0_1_perfect_n50.csv"]

    def check_first_cell_kept(self, tmp_path, out):
        whole = tmp_path / "whole"
        write_study_results(run_study(self.CONFIG), whole)
        assert sorted(path.name for path in out.iterdir()) == self.FIRST_CELL  # no summary.csv, no .tmp file
        for name in self.FIRST_CELL:
            assert (out / name).read_bytes() == (whole / name).read_bytes()
        args = ["report", "--results", str(out), "--figure", "1", "--n", "50", "--out", str(tmp_path / "fig")]
        assert main(args) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_file_write_keeps_the_cells_before_it(self, tmp_path, monkeypatch, workers):
        out = tmp_path / "out"
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst) == out / "constant_0.5_n50.csv":
                raise OSError(errno.ENOSPC, "No space left on device", str(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        threads = threading.active_count()
        with pytest.raises(OSError, match="No space left on device") as info:
            write_study_results(run_study(self.CONFIG, workers), out)
        # info holds the traceback, and with it the writer's frame and the stream it was given
        assert info.value.errno == errno.ENOSPC and multiprocessing.active_children() == []
        assert threading.active_count() == threads
        self.check_first_cell_kept(tmp_path, out)

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=FORK_ONLY)])
    def test_failed_block_keeps_the_cells_before_it(self, tmp_path, monkeypatch, workers):
        @functools.wraps(engine._run_block)  # pickled by its name, so a forked worker runs it too
        def failing_block(scenarios, root_seed, cell, block, n_reps, run_block=engine._run_block):
            if cell == 1:
                raise RuntimeError(f"block {block} of cell {cell} failed")
            return run_block(scenarios, root_seed, cell, block, n_reps)

        monkeypatch.setattr(engine, "_run_block", failing_block)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            write_study_results(run_study(self.CONFIG, workers), tmp_path / "out")
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert str(info.value) == "block 0 of cell 1 failed"
        monkeypatch.undo()
        self.check_first_cell_kept(tmp_path, tmp_path / "out")

    def test_closing_a_serial_study_stops_its_thread(self, monkeypatch):
        ran = []

        def counted_block(scenarios, root_seed, cell, block, n_reps, run_block=engine._run_block):
            ran.append((cell, block))
            return run_block(scenarios, root_seed, cell, block, n_reps)

        monkeypatch.setattr(engine, "_run_block", counted_block)
        threads = threading.active_count()
        cells = run_study(dataclasses.replace(self.CONFIG, sample_sizes=(50, 60)), 1)  # four cells of two blocks
        assert next(cells).index == 0
        cells.close()
        assert threading.active_count() == threads
        # the thread runs at most two blocks ahead of the caller, and none once closed: no block of cells 2 and 3
        assert ran[:2] == [(0, 0), (0, 1)] and set(ran[2:]) <= {(1, 0), (1, 1)}

    def test_a_parallel_study_starts_its_pool_when_first_iterated(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool started"))
        run_study(self.CONFIG, workers=2).close()


def reference_score_cell(scenarios, streams, rows):
    """The block kernel with its earlier formulas: the outcome draw compares with a clipped copy of q,
    the perfect prediction's score squares q - y, and noise is added to q as q + noise and
    q + m * (1 - 2k)."""
    q_stream, transform_streams, outcome_stream = streams
    q = sample_true_probs(scenarios[0].true_dist, (rows, scenarios[0].n), q_stream)
    y = (outcome_stream.random(q.shape) < np.clip(q, 0.0, 1.0)).astype(np.float64)

    width = len(scenarios)
    table = np.empty((2 * width + 3, rows))
    ybar = table[-1] = y.mean(axis=1)
    reference = ybar - ybar * ybar
    brier_perfect = np.mean((q - y) ** 2, axis=1)
    table[-3] = reference - brier_perfect
    table[-2] = brier_perfect > reference + EXCEEDANCE_TIE_TOL
    for t, (scenario, stream) in enumerate(zip(scenarios, transform_streams)):
        kind, params = scenario.transform.kind, scenario.transform.params
        if kind == "perfect":
            p = q.copy()
        elif kind == "additive_bias":
            p = q + params[0]
        elif kind == "uniform_noise":
            p = q + stream.uniform(-params[0], params[0], q.shape)
        else:
            p = q + params[0] * (1.0 - 2.0 * stream.integers(0, 2, q.shape))
        np.clip(p, 0.0, 1.0, out=p)
        table[width + t] = p.mean(axis=1) - ybar
        p -= y
        table[t] = np.square(p, out=p).mean(axis=1)
    return table


class TestKernelMatchesReference:
    """The block kernel writes the reference kernel's bytes for every DGM kind x every transform kind."""

    DISTS = (
        Dist.uniform(0.0, 1.0),
        Dist.beta(2.0, 5.0),
        Dist.constant(0.0),
        Dist.constant(1.0),
        Dist.constant(-0.0),
        Dist.constant(0.3),
        Dist.two_point(0.0, 1.0, 0.4),
        Dist.two_point(0.1, 0.9, 0.3),
        Dist.empirical(EmpiricalProbabilityPool(np.linspace(0.0, 1.0, 64), "grid")),
    )
    # the biases clamp at 1 and at 0, and a magnitude of 1 or more clamps every noisy value
    TRANSFORMS = (
        Transform.perfect(),
        Transform.additive_bias(0.3),
        Transform.additive_bias(-0.3),
        Transform.uniform_noise(0.1),
        Transform.rademacher_noise(0.1),
        Transform.rademacher_noise(1.0),
        Transform.rademacher_noise(1.5),
    )

    def test_every_kind_is_covered(self):
        assert {dist.kind for dist in self.DISTS} == {*TRUE_DISTRIBUTIONS, "empirical"}
        assert {transform.kind for transform in self.TRANSFORMS} == set(PREDICTOR_TRANSFORMS)

    @pytest.mark.parametrize("n", [1, 30])
    @pytest.mark.parametrize("dist", DISTS, ids=lambda dist: dist.label)
    def test_full_and_partial_blocks(self, dist, n):
        scenarios = tuple(Scenario(dist, transform, n) for transform in self.TRANSFORMS)
        n_reps = BLOCK_REPS + 37  # block 1 is partial
        for block, rows in ((0, BLOCK_REPS), (1, 37)):
            streams = engine._cell_streams(99, 4, block, len(scenarios))
            want = reference_score_cell(scenarios, streams, rows)
            got = engine._run_block(scenarios, 99, 4, block, n_reps)
            assert got.shape == want.shape == (2 * len(scenarios) + 3, rows)
            assert got.tobytes() == want.tobytes()


class TestCommonRandomNumbers:
    """The transforms of one (DGM, n) cell are scored on the same q and y."""

    def test_cell_scenarios_share_gap_exceedance_and_ybar(self):
        transforms = (Transform.perfect(), Transform.additive_bias(0.1), Transform.uniform_noise(0.1))
        config = small_config(
            n_reps=BLOCK_REPS + 37,
            sample_sizes=(50, 60),
            dgms=(Dist.uniform(0.0, 1.0), Dist.beta(2.0, 5.0)),
            transforms=transforms,
        )
        cells = list(run_study(config))
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        # scenario t of cell c is scenario c * T + t of the grid
        assert [scenario for cell in cells for scenario in cell.scenarios] == scenarios_for(config)
        for cell in cells:
            assert len({(s.n, s.true_dist) for s in cell.scenarios}) == 1
            assert len({row.tobytes() for row in cell.table[:3]}) == 3  # one brier row per transform
            # the first transform of cell c draws what a one-cell study at index c draws
            alone = run_scenario(cell.scenarios[0], config.n_reps, config.seed, scenario_index=cell.index)
            for name, row in (("brier_samples", 0), ("cil_samples", 3), ("gap_samples", -3), ("exceeded", -2),
                              ("ybar_samples", -1)):
                assert np.array_equal(getattr(alone, name), cell.table[row])
            assert alone.summaries == {"brier": cell.stats[0], "cil": cell.stats[3], "gap": cell.stats[-1]}
        assert not np.array_equal(cells[0].table[-1], cells[1].table[-1])

    def test_a_cell_holds_the_kernel_table_read_only_with_its_row_summaries(self):
        n_reps = BLOCK_REPS + 37
        config = small_config(
            n_reps=n_reps,
            transforms=(Transform.perfect(), Transform.additive_bias(0.1), Transform.uniform_noise(0.1)),
        )
        cells = list(run_study(config))
        assert [len(cell.scenarios) for cell in cells] == [3, 3]
        for cell in cells:
            assert cell.table.shape == (2 * 3 + 3, n_reps)
            assert not cell.table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cell.table[-3, 0] = 0
            blocks = [engine._run_block(cell.scenarios, config.seed, cell.index, block, n_reps) for block in (0, 1)]
            assert np.array_equal(cell.table, np.concatenate(blocks, axis=1))
            # brier, cil and gap rows; exceeded and ybar have none
            assert len(cell.stats) == 2 * 3 + 1
            for row, stats in zip(cell.table, cell.stats):
                assert stats == summarize(row)  # bit for bit
        assert not np.array_equal(cells[0].table[-3], cells[1].table[-3])

    def test_run_scenario_arrays_are_read_only(self):
        n_reps = BLOCK_REPS + 37
        result = run_scenario(Scenario(Dist.beta(2.0, 5.0), Transform.uniform_noise(0.1), 40), n_reps, 7)
        for name in ("brier_samples", "cil_samples", "gap_samples", "ybar_samples", "exceeded"):
            samples = getattr(result, name)
            assert samples.shape == (n_reps,)
            with pytest.raises(ValueError, match="read-only"):
                samples[0] = 0
        assert result.exceeded.dtype == bool

    def test_paired_bias_difference_is_delta_squared(self):
        # q <= 0.2, so q + 0.1 never clamps and brier(bias) - brier(perfect) = delta^2 + 2 delta cil(perfect)
        n_reps, delta = 2000, 0.1
        config = small_config(
            n_reps=n_reps,
            sample_sizes=(300,),
            dgms=(Dist.uniform(0.0, 0.2),),
            transforms=(Transform.perfect(), Transform.additive_bias(delta)),
        )
        [cell] = run_study(config)
        perfect_brier, bias_brier, perfect_cil = cell.table[:3]
        difference = bias_brier - perfect_brier
        assert np.allclose(difference, delta**2 + 2 * delta * perfect_cil, rtol=0, atol=1e-15)
        se = np.std(difference, ddof=1) / math.sqrt(n_reps)
        assert abs(np.mean(difference) - delta**2) <= 4 * se
        # unpaired draws would give about sqrt(2) times brier's SD, not a quarter of it
        assert np.std(difference, ddof=1) < np.std(perfect_brier, ddof=1) / 3


class TestConfigDocuments:
    def write(self, tmp_path, doc):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        return path

    def base_doc(self):
        return {
            "study": {"name": "t", "seed": 3, "N": 5, "sample_sizes": [20]},
            "dgms": [{"kind": "uniform", "a": 0, "b": 1}],
            "transforms": [{"kind": "perfect"}],
        }

    def test_round_trip(self, tmp_path):
        config = load_study_config(self.write(tmp_path, self.base_doc()))
        assert config.name == "t"
        assert config.n_reps == 5
        assert config.sample_sizes == (20,)
        assert config.dgms[0].label == "uniform(0,1)"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "marked.json"
        path.write_text("\ufeff" + json.dumps(self.base_doc()), encoding="utf-8")
        assert load_study_config(path) == load_study_config(self.write(tmp_path, self.base_doc()))

    def test_empirical_path_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "pools").mkdir()
        (tmp_path / "pools" / "p.txt").write_text("0.1\n0.2\n0.3\n")
        doc = self.base_doc()
        doc["study"]["sample_sizes"] = [3]  # a 3-value pool cannot serve a larger n
        doc["dgms"].append({"kind": "empirical", "path": "pools/p.txt", "label": "p"})
        config = load_study_config(self.write(tmp_path, doc))
        assert config.dgms[1].pool.size == 3

    def test_bad_beta_names_field(self, tmp_path):
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "beta", "alpha": 0, "beta": 5}]
        with pytest.raises(ConfigError, match=r"dgms\[0\]"):
            load_study_config(self.write(tmp_path, doc))

    def test_infinite_beta_shape_names_field(self, tmp_path):
        # JSON as Python reads it: "Infinity" is a number
        path = tmp_path / "study.json"
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "beta", "alpha": 2, "beta": 5}]
        path.write_text(json.dumps(doc).replace('"alpha": 2', '"alpha": Infinity'))
        with pytest.raises(ConfigError, match=r"^dgms\[0\]: beta shapes must be positive and finite"):
            load_study_config(path)

    def test_empty_transforms_rejected(self, tmp_path):
        doc = self.base_doc()
        doc["transforms"] = []
        with pytest.raises(ValidationError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value) == "a study needs at least one sample size, true distribution and transform"

    def test_missing_study_field(self, tmp_path):
        doc = self.base_doc()
        del doc["study"]["seed"]
        with pytest.raises(ConfigError, match="study.seed"):
            load_study_config(self.write(tmp_path, doc))

    def test_unknown_kind(self, tmp_path):
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "zeta"}]
        with pytest.raises(ConfigError, match="zeta"):
            load_study_config(self.write(tmp_path, doc))

    def test_unknown_or_unhashable_transform_kind(self, tmp_path):
        for kind in ("empirical", ["perfect"]):
            doc = self.base_doc()
            doc["transforms"] = [{"kind": "perfect"}, {"kind": kind}]
            with pytest.raises(ConfigError) as info:
                load_study_config(self.write(tmp_path, doc))
            assert str(info.value) == f"transforms[1]: unknown predictor-transform kind {kind!r}"

    def test_missing_parameter_names_field(self, tmp_path):
        doc = self.base_doc()
        doc["transforms"] = [{"kind": "uniform_noise", "halfwidth": 0.1}]
        with pytest.raises(ConfigError, match=r"transforms\[0\]\.half_width: missing required field"):
            load_study_config(self.write(tmp_path, doc))
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "two_point", "v0": 0.1, "v1": 0.9}]
        with pytest.raises(ConfigError, match=r"dgms\[0\]\.w: missing required field"):
            load_study_config(self.write(tmp_path, doc))

    @pytest.mark.parametrize(
        "spec_class, fields_by_kind",
        [(Dist, TRUE_DISTRIBUTIONS), (Transform, PREDICTOR_TRANSFORMS)],
    )
    def test_kind_tables_match_constructors(self, spec_class, fields_by_kind):
        for kind, entry in fields_by_kind.items():
            fields = entry.fields
            constructor = getattr(spec_class, kind)
            assert tuple(inspect.signature(constructor).parameters) == fields
            args = [0.1 * (i + 1) for i in range(len(fields))]
            assert constructor(*args).kind == kind

    @pytest.mark.parametrize(
        "family, entry, message",
        [
            ("dgms", {"kind": "uniform", "a": "0", "b": 1},
             "dgms[0]: true-distribution kind 'uniform' takes finite numbers, got ('0', 1)"),
            ("dgms", {"kind": "beta", "alpha": True, "beta": 5},
             "dgms[0]: true-distribution kind 'beta' takes finite numbers, got (True, 5)"),
            ("transforms", {"kind": "additive_bias", "delta": None},
             "transforms[0]: predictor-transform kind 'additive_bias' takes finite numbers, got (None,)"),
            ("transforms", {"kind": "uniform_noise", "half_width": [0.1]},
             "transforms[0]: predictor-transform kind 'uniform_noise' takes finite numbers, got ([0.1],)"),
        ],
        ids=["string", "bool", "null", "list"],
    )
    def test_non_number_parameter_names_field(self, tmp_path, family, entry, message):
        doc = self.base_doc()
        doc[family] = [entry]
        with pytest.raises(ConfigError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("family", ["dgms", "transforms"])
    def test_non_object_entry_rejected(self, tmp_path, family):
        for entry in (3, "perfect", [{"kind": "perfect"}]):
            doc = self.base_doc()
            doc[family] = [entry]
            with pytest.raises(ConfigError, match=rf"^{family}\[0\]: must be an object$"):
                load_study_config(self.write(tmp_path, doc))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"kind": "empirical", "path": None}, "dgms[0].path: must be a non-empty string, got None"),
            ({"kind": "empirical", "path": ""}, "dgms[0].path: must be a non-empty string, got ''"),
            ({"kind": "empirical", "path": ["p.txt"]}, "dgms[0].path: must be a non-empty string, got ['p.txt']"),
            ({"kind": "empirical", "path": "p.txt", "label": ["a"]},
             "dgms[0].label: must be a non-empty string, got ['a']"),
            ({"kind": "empirical", "path": "p.txt", "label": None}, "dgms[0].label: must be a non-empty string, got None"),
            ({"kind": "empirical", "path": "p.txt", "label": ""}, "dgms[0].label: must be a non-empty string, got ''"),
        ],
        ids=["null-path", "empty-path", "list-path", "list-label", "null-label", "empty-label"],
    )
    def test_mistyped_empirical_entry_names_field(self, tmp_path, entry, message):
        (tmp_path / "p.txt").write_text("0.1\n0.2\n0.3\n")
        doc = self.base_doc()
        doc["dgms"] = [entry]
        with pytest.raises(ConfigError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value) == message

    def test_label_clash_is_named_before_a_too_small_pool(self, tmp_path):
        (tmp_path / "p.txt").write_text("0.1\n0.2\n")
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "empirical", "path": "p.txt"}] * 2  # both labelled p, both smaller than n = 20
        with pytest.raises(ConfigError, match="^scenario and cell labels collide after filename sanitization"):
            load_study_config(self.write(tmp_path, doc))

    def test_nul_in_pool_path_names_field(self, tmp_path):
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "uniform", "a": 0, "b": 1}, {"kind": "empirical", "path": "a\u0000b"}]
        with pytest.raises(ConfigError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value) == "dgms[1].path: cannot read pool file: embedded null byte"

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("N", 0, "replication count must be >= 1, got 0"),
        ("sample_sizes", [0], "scenario sample size must be >= 1, got 0"),
        ("name", 3, "study name must be a string, got 3"),
    ], ids=["negative-seed", "zero-N", "zero-size", "int-name"])
    def test_study_values_are_checked_by_the_study_config(self, tmp_path, field, value, message):
        doc = self.base_doc()
        doc["study"][field] = value
        with pytest.raises(ValidationError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("top_level, field, value, message", [
        (True, "dgms", {"kind": "perfect"}, "document.dgms: must be a list, got {'kind': 'perfect'}"),
        (True, "transforms", "perfect", "document.transforms: must be a list, got 'perfect'"),
        (False, "sample_sizes", "20", "study.sample_sizes: must be a list, got '20'"),
    ], ids=["dgms", "transforms", "sample_sizes"])
    def test_a_field_that_is_not_a_list_names_it(self, tmp_path, top_level, field, value, message):
        doc = self.base_doc()
        (doc if top_level else doc["study"])[field] = value
        with pytest.raises(ConfigError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value) == message

    def test_missing_pool_file(self, tmp_path):
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "empirical", "path": "nope.txt"}]
        with pytest.raises(ConfigError, match="nope"):
            load_study_config(self.write(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_study_config(path)

    @pytest.mark.parametrize("entry, field", [("dgm", "b"), ("study", "seed")])
    def test_a_number_past_the_int_digit_limit_is_a_config_error_naming_the_file(self, tmp_path, entry, field):
        # Python's int() refuses more than 4300 digits, so json reads no such number
        doc = self.base_doc()
        (doc["dgms"][0] if entry == "dgm" else doc["study"])[field] = "HUGE"
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
        with pytest.raises(ConfigError) as info:
            load_study_config(path)
        assert str(info.value).startswith(f"{path}: not valid JSON: ")
        assert "digits" in str(info.value)


# The one file per scenario that came before cell files: a scenario file joined with its cell file.
JOINED_COLUMNS = ("rep", "brier", "cil", "gap", "exceeded", "ybar")


def reference_scenario_text(cell, t):
    """The six-column file of a cell's scenario t as the per-scenario writer formatted it, every column on its own."""
    brier, cil, gap, exceeded, ybar = cell.table[[t, len(cell.scenarios) + t, -3, -2, -1]].tolist()
    cells = zip(
        map(str, range(1, len(gap) + 1)),
        map(repr, brier),
        map(repr, cil),
        map(repr, gap),
        ("1" if flag == 1.0 else "0" for flag in exceeded),
        map(repr, ybar),
    )
    lines = [",".join(JOINED_COLUMNS), *map(",".join, cells)]
    return "\n".join(lines) + "\n"


def joined_text(scenario_path, cell_path):
    """A scenario file joined with its cell file on rep, as the six-column file's text."""
    (scenario_header, *scenario_rows), (cell_header, *cell_rows) = (
        [line.split(",") for line in path.read_text().splitlines()] for path in (scenario_path, cell_path)
    )
    assert (scenario_header, cell_header) == (list(SCENARIO_CSV_COLUMNS), list(CELL_CSV_COLUMNS))
    by_rep = {row[0]: row[1:] for row in cell_rows}
    assert len(by_rep) == len(cell_rows) == len(scenario_rows)
    rows = [row + by_rep[row[0]] for row in scenario_rows]
    return "\n".join(",".join(row) for row in [JOINED_COLUMNS, *rows]) + "\n"


class TestPersistence:
    def test_study_files_match_per_scenario_writer(self, tmp_path):
        # two cells, N = 165: a full block and a partial one
        study = list(run_study(small_config(n_reps=BLOCK_REPS + 37)))
        paths = write_study_results(study, tmp_path)
        # each cell file, then the cell's two scenario files, then the summary
        assert [path.name for path in paths] == [
            "uniform_0_1_n50.csv", "uniform_0_1_perfect_n50.csv", "uniform_0_1_bias_0.1_n50.csv",
            "constant_0.5_n50.csv", "constant_0.5_perfect_n50.csv", "constant_0.5_bias_0.1_n50.csv",
            "summary.csv",
        ]
        cells = {path.name: path for path in paths[0::3]}
        scenarios = [(cell, t) for cell in study for t in range(len(cell.scenarios))]
        for (cell, t), path in zip(scenarios, paths[1:3] + paths[4:6], strict=True):
            label = cell.scenarios[t].label
            [row] = [row for row in read_summary_csv(paths[-1]) if row["scenario"] == label][:1]
            assert joined_text(path, cells[row["cell"]]) == reference_scenario_text(cell, t)

    @pytest.mark.parametrize("read_only_view", [False, True], ids=["copy", "read-only-view"])
    def test_changed_writable_arrays_are_formatted_again(self, tmp_path, read_only_view):
        # no text outlives a write: a read-only view changes with its writable base
        config = small_config(seed=3, n_reps=5, sample_sizes=(20,), dgms=(Dist.uniform(0.0, 1.0),),
                              transforms=(Transform.perfect(),))
        [cell] = run_study(config)
        table = cell.table.copy()
        held = table.view() if read_only_view else table
        held.flags.writeable = not read_only_view
        own = dataclasses.replace(cell, table=held)
        cell, scenario, _ = write_study_results([own], tmp_path / "a")
        first = joined_text(scenario, cell)
        table[-3, 0] = 0.5  # the gap of replication 1
        cell, scenario, _ = write_study_results([own], tmp_path / "b")
        second = joined_text(scenario, cell)
        assert first != second
        assert second == reference_scenario_text(own, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_written_cell_is_not_kept(self, tmp_path, workers):
        # only its summary rows outlive a cell's files, so a study holds no more than two cells' tables at once
        tables = []

        def watched(cells):
            for cell in cells:
                # the writer may still hold the cell before this one, but no earlier cell
                assert [table() for table in tables[:-1]] == [None] * len(tables[:-1])
                tables.append(weakref.ref(cell.table))
                yield cell

        write_study_results(watched(run_study(small_config(sample_sizes=(20, 30)), workers)), tmp_path)
        assert len(tables) == 4

    def test_empty_result_list_writes_nothing(self, tmp_path):
        # a summary with no scenario files beside it would look like a complete run
        with pytest.raises(ValidationError, match="no scenario results"):
            write_study_results([], tmp_path / "new")
        assert not (tmp_path / "new").exists()
        earlier = write_study_results(run_study(small_config()), tmp_path / "old")
        before = {path: path.read_bytes() for path in earlier}
        with pytest.raises(ValidationError, match="no scenario results"):
            write_study_results([], tmp_path / "old")
        assert {path: path.read_bytes() for path in (tmp_path / "old").iterdir()} == before

    @pytest.mark.parametrize("pool_label", ["summary", "summary.csv"])
    def test_a_pool_labelled_summary_cannot_take_the_summarys_file(self, tmp_path, pool_label):
        # every derived label ends in +n<n>, so its file ends in _n<n>.csv and is never summary.csv
        pool = EmpiricalProbabilityPool(np.linspace(0.1, 0.9, 30), pool_label)
        config = small_config(dgms=(Dist.empirical(pool),), sample_sizes=(10,))
        paths = write_study_results(run_study(config), tmp_path)
        stem = f"empirical_{pool_label}"
        assert [path.name for path in paths] == [
            f"{stem}_n10.csv", f"{stem}_perfect_n10.csv", f"{stem}_bias_0.1_n10.csv", "summary.csv"
        ]
        rows = read_summary_csv(tmp_path / "summary.csv")  # three metric rows per scenario
        labels = [f"empirical({pool_label})+{transform}+n10" for transform in ("perfect", "bias(+0.1)")]
        assert [row["scenario"] for row in rows] == [label for label in labels for _ in range(3)]
        assert {row["cell"] for row in rows} == {f"{stem}_n10.csv"}

    def test_two_runs_of_one_cell_are_refused(self, tmp_path):
        # each would write the cell file from a table of its own, so neither cell file could be trusted
        cells = [
            next(run_study(small_config(seed=3, n_reps=5, sample_sizes=(20,), dgms=(Dist.uniform(0.0, 1.0),),
                                        transforms=(transform,))))
            for transform in (Transform.perfect(), Transform.additive_bias(0.1))
        ]
        with pytest.raises(ConfigError) as info:
            write_study_results(cells, tmp_path / "out")
        assert str(info.value) == (
            "scenario and cell labels collide after filename sanitization: ['uniform(0,1)+n20', 'uniform(0,1)+n20']"
        )
        # the first run's files are written as it arrives; the second is refused before any of its own
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
            "uniform_0_1_n20.csv", "uniform_0_1_perfect_n20.csv"
        ]

    def test_round_trip(self, tmp_path):
        cells = list(run_study(small_config()))
        paths = write_study_results(cells, tmp_path)
        assert paths[-1].name == "summary.csv"
        assert len(paths) == 2 + 4 + 1  # cells, scenarios, summary
        # two transforms: rows brier, brier, cil, cil, gap, exceeded, ybar
        brier, _, cil, _, gap, exceeded, ybar = cells[0].table

        data = read_scenario_csv(paths[1])
        assert list(data) == list(SCENARIO_CSV_COLUMNS)
        assert np.array_equal(data["brier"], brier)
        assert np.array_equal(data["cil"], cil)
        assert data["rep"].tolist() == list(range(1, 41))

        cell = read_cell_csv(paths[0])
        assert list(cell) == list(CELL_CSV_COLUMNS)
        assert np.array_equal(cell["gap"], gap)
        assert cell["exceeded"].dtype == bool and np.array_equal(cell["exceeded"], exceeded == 1.0)
        assert np.array_equal(cell["ybar"], ybar)
        assert cell["rep"].tolist() == list(range(1, 41))

        rows = read_summary_csv(paths[-1])
        assert len(rows) == 4 * 3  # scenarios x metrics
        first = rows[0]
        assert first["scenario"] == cells[0].scenarios[0].label
        assert first["median"] == cells[0].stats[0].median
        assert first["exceed_prob"] == np.mean(exceeded)
        assert [row["cell"] for row in rows] == [paths[0].name] * 6 + [paths[3].name] * 6

    def test_schema_self_check(self, tmp_path):
        results = run_study(small_config())
        paths = write_study_results(results, tmp_path)
        for path, read, old in ((paths[1], read_scenario_csv, "rep,brier"), (paths[0], read_cell_csv, "rep,gap")):
            path.write_text(path.read_text().replace(old, "rep,score"))
            with pytest.raises(ValidationError, match="header"):
                read(path)
        summary = paths[-1].read_text().replace("exceed_prob", "exceedance")
        paths[-1].write_text(summary)
        with pytest.raises(ValidationError, match="header"):
            read_summary_csv(paths[-1])

    def test_filenames_are_safe_and_distinct(self):
        config = load_study_config(CONFIGS / "full_grid.json")
        names = [scenario_filename(s.label) for s in scenarios_for(config)]
        assert len(set(names)) == len(names)
        for name in names:
            assert "/" not in name and "," not in name and " " not in name

    @pytest.mark.parametrize("cell", ["abc", "", "1.0.0", "nan", "inf", "-inf"])
    def test_bad_summary_cell_names_file_and_line(self, tmp_path, cell):
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[-1], 2, 3, cell)  # median of the second data row
        with pytest.raises(ValidationError, match=r"summary\.csv: line 3: "):
            read_summary_csv(paths[-1])

    @pytest.mark.parametrize("label", ["a\x01b", "\x00", "x\x1f", "\ufffe", "a\uffffb"])
    def test_summary_label_xml_cannot_hold_names_file_and_line(self, tmp_path, label):
        # a results file edited by another tool: report would write the label into an SVG no XML parser reads
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[-1], 2, 0, label)
        with pytest.raises(ValidationError) as info:
            read_summary_csv(paths[-1])
        assert str(info.value) == f"{paths[-1]}: line 3: scenario {label!r} holds a character XML 1.0 cannot hold"

    @pytest.mark.parametrize("cell", ["abc", "", "nan?", "nan", "inf", "-inf"])
    def test_bad_scenario_cell_names_file_and_line(self, tmp_path, cell):
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[1], 5, 2, cell)  # cil of replication 5
        with pytest.raises(ValidationError, match=rf"{paths[1].name}: line 6: "):
            read_scenario_csv(paths[1])
        replace_cell(paths[0], 5, 3, cell)  # ybar of replication 5
        with pytest.raises(ValidationError, match=rf"{paths[0].name}: line 6: "):
            read_cell_csv(paths[0])

    # the paths of write_study_results: 0 is the first cell file, 1 its first scenario file
    @pytest.mark.parametrize(
        "index, read, column, cell, message",
        [
            (1, read_scenario_csv, 0, "1.5", "rep '1.5' is not an integer"),
            (0, read_cell_csv, 0, "1.5", "rep '1.5' is not an integer"),
            (0, read_cell_csv, 2, "0.5", "exceeded '0.5' is not 0 or 1"),
            (0, read_cell_csv, 2, "2", "exceeded '2' is not 0 or 1"),
            (0, read_cell_csv, 2, "-1", "exceeded '-1' is not 0 or 1"),
        ],
        ids=["scenario-rep", "cell-rep", "exceeded-0.5", "exceeded-2", "exceeded--1"],
    )
    def test_impossible_scenario_cell_names_file_and_line(self, tmp_path, index, read, column, cell, message):
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[index], 5, column, cell)
        with pytest.raises(ValidationError, match=rf"{paths[index].name}: line 6: {message}$"):
            read(paths[index])

    def test_impossible_scenario_cell_exits_2_in_report(self, tmp_path, capsys):
        results = run_study(small_config(sample_sizes=(300,)))
        paths = write_study_results(results, tmp_path / "res")
        replace_cell(paths[0], 5, 2, "0.5")  # exceeded, in the first cell file, which figure 3 reads
        args = ["report", "--results", str(tmp_path / "res"), "--figure", "3", "--out", str(tmp_path / "fig")]
        assert main(args) == 2
        assert f"{paths[0].name}: line 6: exceeded '0.5' is not 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["0", "-3", "1e300", "9007199254740994"])
    def test_out_of_range_rep_names_file_and_line(self, tmp_path, cell):
        paths = write_study_results(run_study(small_config()), tmp_path)
        per_line_cell_rows = lambda path: validation.csv_rows(path, engine._CELL_CSV)  # noqa: E731
        for path, reads in ((paths[1], (read_scenario_csv, per_line_scenario_rows)),
                            (paths[0], (read_cell_csv, per_line_cell_rows))):
            replace_cell(path, 5, 0, cell)
            message = rf"{path.name}: line 6: rep '{cell}' is outside 1\.\.2\*\*53$"
            for read in reads:
                with pytest.raises(ValidationError, match=message):
                    read(path)

    def test_vectorised_path_bounds_rep(self, tmp_path, monkeypatch):
        paths = write_study_results(run_study(small_config()), tmp_path)
        per_line = validation.csv_rows
        calls = []
        monkeypatch.setattr(validation, "csv_rows", lambda path, fmt: calls.append(path) or per_line(path, fmt))
        replace_cell(paths[1], 5, 0, str(2**53))
        assert read_scenario_csv(paths[1])["rep"][4] == 2**53
        assert calls == []
        replace_cell(paths[1], 5, 0, "1e300")
        with pytest.raises(ValidationError, match="line 6: rep '1e300'"):
            read_scenario_csv(paths[1])
        assert calls == [paths[1]]

    def test_out_of_range_rep_exits_2_in_report(self, tmp_path, capsys):
        results = run_study(small_config(sample_sizes=(300,)))
        paths = write_study_results(results, tmp_path / "res")
        replace_cell(paths[1], 5, 0, "1e300")  # in the first scenario file, which figure 2 reads
        args = ["report", "--results", str(tmp_path / "res"), "--figure", "2", "--out", str(tmp_path / "fig")]
        assert main(args) == 2
        assert f"{paths[1].name}: line 6: rep '1e300' is outside 1..2**53" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "columns, read, fmt",
        [
            ((REP_CELLS, SCENARIO_CELLS, SCENARIO_CELLS), read_scenario_csv, engine._SCENARIO_CSV),
            ((REP_CELLS, SCENARIO_CELLS, EXCEEDED_CELLS, SCENARIO_CELLS), read_cell_csv, engine._CELL_CSV),
        ],
        ids=["scenario", "cell"],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scenario_reader_matches_per_line_reader(self, tmp_path_factory, columns, read, fmt, data):
        # a row of each column's drawn cells, or a blank line, or a row of 2 or 5 fields
        row = st.tuples(*map(st.sampled_from, columns)).map(",".join) | st.sampled_from(["", "  ", "1,2", "1,0,1,0,1"])
        text = data.draw(st.lists(row, max_size=5).map(lambda lines: "\n".join([",".join(fmt.header), *lines]) + "\n"))
        path = tmp_path_factory.mktemp("results") / "r.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)

        def outcome(read):
            try:
                return np.asarray(read(path), dtype=float).tolist()
            except ValidationError as exc:
                return str(exc)

        def public(path):
            return np.column_stack(list(read(path).values()))

        assert outcome(public) == outcome(lambda path: validation.csv_rows(path, fmt))

    @settings(max_examples=300, deadline=None)
    @given(
        metric=st.sampled_from(SCENARIO_CSV_COLUMNS[1:]),
        text=st.lists(
            st.lists(
                st.sampled_from(["1", "2", "7", "1.5", "-3", "1e2", "x"])
                | st.sampled_from(["0.25", "-0", "1e-3", " 0.5"])
                | st.sampled_from(SCENARIO_CELLS + UNTYPED_CELLS),
                min_size=3, max_size=3,
            ).map(",".join)
            | st.sampled_from(["", "  ", "1,0.5", "1,0.5,0.5,0.5", "1,0.5,\x1c"]),
            max_size=5,
        ).map(lambda lines: "\n".join([",".join(SCENARIO_CSV_COLUMNS), *lines]) + "\n"),
    )
    # a quote opens a quoted cell to the csv module, which then takes the next line into it
    @example(metric="brier", text='rep,brier,cil\n1,0.25,"a\n2,0.5,0.5\n')
    @example(metric="cil", text='rep,brier,cil\n1,"a,0.25\n2,0.5,0.5\n')
    @example(metric="cil", text="rep,brier,cil\n1,\x00,0.25\n")
    # a cell over the csv module's field limit, which numpy would read as 0.0, in each column
    @example(metric="brier", text="rep,brier,cil\n1,0." + "0" * 200_000 + "1,0.25\n")
    @example(metric="cil", text="rep,brier,cil\n1,0." + "0" * 200_000 + "1,0.25\n")
    def test_metric_read_matches_per_line_reader_and_the_whole_read(self, tmp_path_factory, text, metric):
        # figures 1 and 2 read rep and their metric alone: the other column is counted but not parsed
        path = tmp_path_factory.mktemp("scenario") / "s.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)

        def outcome(read):
            try:
                return np.asarray(read(path), dtype=float).tolist()
            except ValidationError as exc:
                return str(exc)

        selected = outcome(lambda path: np.column_stack(list(read_scenario_csv(path, metric).values())))
        assert selected == outcome(lambda path: validation.csv_rows(path, engine._SCENARIO_METRIC_CSV[metric]))
        try:
            whole = read_scenario_csv(path)
        except ValidationError:
            return
        part = read_scenario_csv(path, metric)
        assert list(part) == ["rep", metric]
        for name, column in part.items():
            assert (column.dtype, column.tobytes()) == (whole[name].dtype, whole[name].tobytes())

    def test_metric_read_refuses_an_unknown_metric(self, tmp_path):
        paths = write_study_results(run_study(small_config()), tmp_path)
        with pytest.raises(ValueError, match=r"^metric must be one of \['brier', 'cil'\] or None, got 'rep'$"):
            read_scenario_csv(paths[1], "rep")

    def test_scenario_csv_text(self, tmp_path):
        result = run_scenario(Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 50), 40, 321)
        path = write_scenario_csv(result, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no cell file
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [SCENARIO_CSV_COLUMNS]
            + [
                (rep, repr(float(b)), repr(float(c)))
                for rep, (b, c) in enumerate(zip(result.brier_samples, result.cil_samples), start=1)
            ]
        )
        assert path.read_text() == buf.getvalue()

    def test_failed_write_leaves_no_stray_file(self, tmp_path, monkeypatch):
        cells = list(run_study(small_config()))
        write_summary_csv(cells, tmp_path)
        before = (tmp_path / "summary.csv").read_bytes()

        def failing_replace(source, target):
            assert Path(source).exists()  # the temp file is written before it would replace the summary
            raise OSError(errno.EIO, "replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_summary_csv(cells[:1], tmp_path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
        assert (tmp_path / "summary.csv").read_bytes() == before

    def test_written_files_take_the_default_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        for path in write_study_results(run_study(small_config()), tmp_path):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_written_files_take_the_umask_without_reading_it(self, tmp_path, monkeypatch):
        # the umask is process-wide: a writer that sets it to read it changes the mode of
        # a file another thread creates meanwhile, so the kernel must apply it instead
        results = run_study(small_config())
        previous = os.umask(0o027)
        try:
            def no_umask(mask):
                raise AssertionError("os.umask called")

            monkeypatch.setattr(os, "umask", no_umask)
            paths = write_study_results(results, tmp_path)
            monkeypatch.undo()
        finally:
            os.umask(previous)
        assert len(paths) == len(list(tmp_path.iterdir()))
        for path in paths:
            assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_failed_write_removes_only_its_own_temp_file(self, tmp_path, monkeypatch):
        # a temp file of the same name that another writer made is not ours to remove
        cells = list(run_study(small_config()))
        monkeypatch.setattr(os, "urandom", lambda size: b"\0" * size)
        other = tmp_path / f".{bytes(8).hex()}.tmp"
        other.write_text("another writer's")
        with pytest.raises(FileExistsError):
            write_summary_csv(cells, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [other.name]
        assert other.read_text() == "another writer's"

    def test_wrong_field_count_names_line(self, tmp_path):
        paths = write_study_results(run_study(small_config()), tmp_path)
        for path, width, reader in (
            (paths[1], len(SCENARIO_CSV_COLUMNS), read_scenario_csv),
            (paths[0], len(CELL_CSV_COLUMNS), read_cell_csv),
            (paths[-1], len(SUMMARY_CSV_COLUMNS), read_summary_csv),
        ):
            path.write_text(path.read_text() + "\n1,2\n")
            with pytest.raises(ValidationError, match=rf"line \d+: expected {width} fields"):
                reader(path)
