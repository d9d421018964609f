"""Scenario engine: replications, summaries, studies, persistence."""

import concurrent.futures
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brierlab import engine
from brierlab.analytic import perfect_bs_lower_bound
from brierlab.cli import main
from brierlab.dgm import (
    PREDICTOR_TRANSFORM_FIELDS,
    TRUE_DISTRIBUTION_FIELDS,
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
    SCENARIO_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    Scenario,
    load_study_config,
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
from brierlab.errors import ConfigError, ValidationError
from brierlab.oracle import exact_exceedance_probability
from brierlab.presets import DEFAULT_SEED, synthetic_pools

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Float cells for the scenario-reader parity test; see CELLS in test_scoring.py.
SCENARIO_CELLS = ("0.25", "-0.5", "1e-3", "-0", "nan", "inf", "1e400", "0.2_5", '"0.5"', " 0.5", "", "abc", "\x1c0.5")


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


def replace_cell(path, row, column, text):
    """Overwrite one cell of a results CSV, counting the header as row 0."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][column] = text
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


class TestRunReplication:
    """Replications as the rows of a block: engine._run_block and run_replication."""

    def test_constant_half_perfect_is_exact(self):
        scenario = Scenario(Dist.constant(0.5), Transform.perfect(), 300)
        for block in range(2):
            rows = engine._run_block(scenario, 5, 0, block, BLOCK_REPS + 20)
            assert rows.shape == ((BLOCK_REPS, 20)[block], 5)
            assert np.all(rows[:, 0] == 0.25)  # each (0.5 - y)^2 is exactly 0.25

    def test_two_point_degenerate_is_zero(self):
        scenario = Scenario(Dist.two_point(0.0, 1.0, 0.5), Transform.perfect(), 300)
        rows = engine._run_block(scenario, 5, 0, 0, 20)
        assert rows.shape == (20, 5)
        assert np.all(rows[:, 0] == 0.0)

    def test_deterministic_per_stream(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.uniform_noise(0.1), 100)
        a = engine._run_block(scenario, 7, 2, 9, 10 * BLOCK_REPS)
        b = engine._run_block(scenario, 7, 2, 9, 10 * BLOCK_REPS)
        other = engine._run_block(scenario, 7, 2, 8, 10 * BLOCK_REPS)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_gap_and_exceedance_are_consistent(self):
        scenario = Scenario(Dist.uniform(0.0, 1.0), Transform.perfect(), 50)
        brier, _, gap, exceeded, ybar = engine._run_block(scenario, 11, 0, 0, 50).T
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
            Dist.empirical(make_synthetic_pool(0.3, size=400, seed=2)),
        ],
        ids=lambda dist: dist.kind,
    )
    def test_single_replication_is_first_row_of_its_block(self, dist):
        transforms = (Transform.additive_bias(0.1), Transform.uniform_noise(0.1), Transform.rademacher_noise(0.1))
        for transform in transforms:
            scenario = Scenario(dist, transform, 60)
            row = run_replication(scenario, replication_streams(13, 4, 2))
            assert np.array_equal(row, engine._run_block(scenario, 13, 4, 2, 3 * BLOCK_REPS)[0])

    def test_empirical_rows_hold_distinct_pool_entries(self):
        values = np.linspace(0.001, 0.999, 500)  # every pool entry distinct
        spec = Dist.empirical(EmpiricalProbabilityPool(values, "distinct", float(np.mean(values))))
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

    def test_validation(self):
        scenario = Scenario(Dist.constant(0.5), Transform.perfect(), 10)
        with pytest.raises(ValidationError):
            run_scenario(scenario, 0, 1)
        with pytest.raises(ValidationError):
            run_scenario(scenario, 10, 1, workers=0)
        with pytest.raises(ValidationError):
            Scenario(Dist.constant(0.5), Transform.perfect(), 0)


class TestStudy:
    def test_cartesian_count(self):
        results = run_study(small_config())
        assert len(results) == 4
        labels = [r.scenario.label for r in results]
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

    def test_study_reproducible(self):
        a = run_study(small_config())
        b = run_study(small_config())
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.brier_samples, rb.brier_samples)

    @pytest.mark.parametrize("labels", [("a b", "a_b"), ("same", "same")])
    def test_filename_collision_fails_before_any_replication(self, monkeypatch, labels):
        calls = []
        original = engine._run_block

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "_run_block", counting)
        dgms = tuple(
            Dist.empirical(make_synthetic_pool(0.3, size=60, seed=1, label=label)) for label in labels
        )
        with pytest.raises(ConfigError, match="collide") as info:
            run_study(small_config(dgms=dgms))
        assert calls == []
        for label in labels:
            assert f"empirical({label})" in str(info.value)

    def test_parallel_study_starts_one_process_pool(self, monkeypatch):
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        config = small_config(n_reps=BLOCK_REPS + 37)
        parallel = run_study(config, workers=2)
        assert len(starts) == 1
        for a, b in zip(run_study(config), parallel):
            assert np.array_equal(a.brier_samples, b.brier_samples)
            assert np.array_equal(a.exceeded, b.exceeded)

    def test_pool_files_match_generator(self):
        # the checked-in pools are the generator's output, bit for bit
        for pool in synthetic_pools(DEFAULT_SEED, 5000):
            stored = load_empirical_pool(CONFIGS / "pools" / f"{pool.label}.txt")
            assert stored.label == pool.label
            assert np.array_equal(stored.probabilities, pool.probabilities)


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

    def test_empirical_path_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "pools").mkdir()
        (tmp_path / "pools" / "p.txt").write_text("0.1\n0.2\n0.3\n")
        doc = self.base_doc()
        doc["dgms"].append({"kind": "empirical", "path": "pools/p.txt", "label": "p"})
        config = load_study_config(self.write(tmp_path, doc))
        assert config.dgms[1].pool.size == 3

    def test_bad_beta_names_field(self, tmp_path):
        doc = self.base_doc()
        doc["dgms"] = [{"kind": "beta", "alpha": 0, "beta": 5}]
        with pytest.raises(ConfigError, match=r"dgms\[0\]"):
            load_study_config(self.write(tmp_path, doc))

    def test_empty_transforms_rejected(self, tmp_path):
        doc = self.base_doc()
        doc["transforms"] = []
        with pytest.raises(ConfigError, match="transforms"):
            load_study_config(self.write(tmp_path, doc))

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
            with pytest.raises(ConfigError, match=r"transforms\[1\]\.kind: unknown predictor-transform kind"):
                load_study_config(self.write(tmp_path, doc))

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
        [(Dist, TRUE_DISTRIBUTION_FIELDS), (Transform, PREDICTOR_TRANSFORM_FIELDS)],
    )
    def test_kind_tables_match_constructors(self, spec_class, fields_by_kind):
        for kind, fields in fields_by_kind.items():
            constructor = getattr(spec_class, kind)
            assert tuple(inspect.signature(constructor).parameters) == fields
            args = [0.1 * (i + 1) for i in range(len(fields))]
            assert constructor(*args).kind == kind

    @pytest.mark.parametrize(
        "family, entry, message",
        [
            ("dgms", {"kind": "uniform", "a": "0", "b": 1}, "dgms[0].a: must be a number, got '0'"),
            ("dgms", {"kind": "beta", "alpha": True, "beta": 5}, "dgms[0].alpha: must be a number, got True"),
            ("transforms", {"kind": "additive_bias", "delta": None}, "transforms[0].delta: must be a number, got None"),
            ("transforms", {"kind": "uniform_noise", "half_width": [0.1]}, "transforms[0].half_width: must be a number"),
        ],
        ids=["string", "bool", "null", "list"],
    )
    def test_non_number_parameter_names_field(self, tmp_path, family, entry, message):
        doc = self.base_doc()
        doc[family] = [entry]
        with pytest.raises(ConfigError) as info:
            load_study_config(self.write(tmp_path, doc))
        assert str(info.value).startswith(message)

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


class TestPersistence:
    def test_round_trip(self, tmp_path):
        results = run_study(small_config())
        paths = write_study_results(results, tmp_path)
        assert paths[-1].name == "summary.csv"
        assert len(paths) == 5

        data = read_scenario_csv(paths[0])
        assert list(data) == list(SCENARIO_CSV_COLUMNS)
        assert np.array_equal(data["brier"], results[0].brier_samples)
        assert np.array_equal(data["exceeded"], results[0].exceeded)
        assert data["rep"].tolist() == list(range(1, 41))

        rows = read_summary_csv(paths[-1])
        assert len(rows) == 4 * 3  # scenarios x metrics
        first = rows[0]
        assert first["scenario"] == results[0].scenario.label
        assert first["median"] == results[0].summaries["brier"].median

    def test_schema_self_check(self, tmp_path):
        results = run_study(small_config())
        paths = write_study_results(results, tmp_path)
        mangled = paths[0].read_text().replace("rep,brier", "rep,score")
        paths[0].write_text(mangled)
        with pytest.raises(ValidationError, match="header"):
            read_scenario_csv(paths[0])
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

    @pytest.mark.parametrize("cell", ["abc", "", "nan?", "nan", "inf", "-inf"])
    def test_bad_scenario_cell_names_file_and_line(self, tmp_path, cell):
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[0], 5, 2, cell)  # cil of replication 5
        with pytest.raises(ValidationError, match=rf"{paths[0].name}: line 6: "):
            read_scenario_csv(paths[0])

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (0, "1.5", "rep '1.5' is not an integer"),
            (4, "0.5", "exceeded '0.5' is not 0 or 1"),
            (4, "2", "exceeded '2' is not 0 or 1"),
            (4, "-1", "exceeded '-1' is not 0 or 1"),
        ],
    )
    def test_impossible_scenario_cell_names_file_and_line(self, tmp_path, column, cell, message):
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[0], 5, column, cell)
        with pytest.raises(ValidationError, match=rf"{paths[0].name}: line 6: {message}$"):
            read_scenario_csv(paths[0])

    def test_impossible_scenario_cell_exits_2_in_report(self, tmp_path, capsys):
        results = run_study(small_config(sample_sizes=(300,)))
        paths = write_study_results(results, tmp_path / "res")
        replace_cell(paths[0], 5, 4, "0.5")
        args = ["report", "--results", str(tmp_path / "res"), "--figure", "2", "--out", str(tmp_path / "fig")]
        assert main(args) == 2
        assert f"{paths[0].name}: line 6: exceeded '0.5' is not 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["0", "-3", "1e300", "9007199254740994"])
    def test_out_of_range_rep_names_file_and_line(self, tmp_path, cell):
        paths = write_study_results(run_study(small_config()), tmp_path)
        replace_cell(paths[0], 5, 0, cell)
        message = rf"{paths[0].name}: line 6: rep '{cell}' is outside 1\.\.2\*\*53$"
        for read in (read_scenario_csv, engine._scenario_rows):
            with pytest.raises(ValidationError, match=message):
                read(paths[0])

    def test_vectorised_path_bounds_rep(self, tmp_path, monkeypatch):
        paths = write_study_results(run_study(small_config()), tmp_path)
        per_line = engine._scenario_rows
        calls = []
        monkeypatch.setattr(engine, "_scenario_rows", lambda path: calls.append(path) or per_line(path))
        replace_cell(paths[0], 5, 0, str(2**53))
        assert read_scenario_csv(paths[0])["rep"][4] == 2**53
        assert calls == []
        replace_cell(paths[0], 5, 0, "1e300")
        with pytest.raises(ValidationError, match="line 6: rep '1e300'"):
            read_scenario_csv(paths[0])
        assert calls == [paths[0]]

    def test_out_of_range_rep_exits_2_in_report(self, tmp_path, capsys):
        results = run_study(small_config(sample_sizes=(300,)))
        paths = write_study_results(results, tmp_path / "res")
        replace_cell(paths[0], 5, 0, "1e300")
        args = ["report", "--results", str(tmp_path / "res"), "--figure", "2", "--out", str(tmp_path / "fig")]
        assert main(args) == 2
        assert f"{paths[0].name}: line 6: rep '1e300' is outside 1..2**53" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.lists(
            st.tuples(
                st.sampled_from(["1", "2", "7", "1.5", "-3", "1e2", "x"]),
                *[st.sampled_from(SCENARIO_CELLS)] * 3,
                st.sampled_from(["0", "1", "0.5", "2", "-0", "1.0", "nan"]),
                st.sampled_from(SCENARIO_CELLS),
            ).map(",".join)
            | st.sampled_from(["", "  ", "1,2"]),
            max_size=5,
        ).map(lambda lines: "\n".join([",".join(SCENARIO_CSV_COLUMNS), *lines]) + "\n")
    )
    def test_scenario_reader_matches_per_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("scenario") / "s.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)

        def outcome(read):
            try:
                return np.asarray(read(path), dtype=float).tolist()
            except ValidationError as exc:
                return str(exc)

        def public(path):
            return np.column_stack(list(read_scenario_csv(path).values()))

        assert outcome(public) == outcome(engine._scenario_rows)

    def test_scenario_csv_text(self, tmp_path):
        result = run_study(small_config())[0]
        path = write_scenario_csv(result, tmp_path)
        samples = zip(result.brier_samples, result.cil_samples, result.gap_samples,
                      result.exceeded, result.ybar_samples)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [SCENARIO_CSV_COLUMNS]
            + [
                (rep, repr(float(b)), repr(float(c)), repr(float(g)), int(e), repr(float(ybar)))
                for rep, (b, c, g, e, ybar) in enumerate(samples, start=1)
            ]
        )
        assert path.read_text() == buf.getvalue()

    def test_failed_write_leaves_no_stray_file(self, tmp_path):
        results = run_study(small_config())
        write_summary_csv(results, tmp_path)
        before = (tmp_path / "summary.csv").read_bytes()
        scenario = dataclasses.replace(results[0].scenario, label="unencodable\udc80")
        broken = [dataclasses.replace(results[0], scenario=scenario)]
        with pytest.raises(UnicodeEncodeError):
            write_summary_csv(broken, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
        assert (tmp_path / "summary.csv").read_bytes() == before

    def test_written_files_take_the_default_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        for path in write_study_results(run_study(small_config()), tmp_path):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_wrong_field_count_names_line(self, tmp_path):
        paths = write_study_results(run_study(small_config()), tmp_path)
        for path, width in ((paths[0], len(SCENARIO_CSV_COLUMNS)), (paths[-1], len(SUMMARY_CSV_COLUMNS))):
            path.write_text(path.read_text() + "\n1,2\n")
            reader = read_scenario_csv if path is paths[0] else read_summary_csv
            with pytest.raises(ValidationError, match=rf"line \d+: expected {width} fields"):
                reader(path)
