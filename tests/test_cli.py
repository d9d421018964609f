"""Command-line verbs: outputs, exit codes, figure emission, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brierlab
from brierlab import engine
from brierlab.cli import main


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("p,y\n0.5,1\n0.5,0\n0.9,1\n0.2,0\n")
    return path


@pytest.fixture
def study_config(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(
        json.dumps(
            {
                "study": {"name": "cli", "seed": 11, "N": 40, "sample_sizes": [30]},
                "dgms": [
                    {"kind": "uniform", "a": 0, "b": 1},
                    {"kind": "constant", "c": 0.5},
                ],
                "transforms": [
                    {"kind": "perfect"},
                    {"kind": "uniform_noise", "half_width": 0.1},
                ],
            }
        )
    )
    return path


@pytest.fixture
def results_dir(tmp_path, study_config):
    out = tmp_path / "results"
    assert main(["simulate", "--config", str(study_config), "--out", str(out)]) == 0
    return out


def test_rendering_does_not_load_scipy():
    # brierlab needs numpy only, down to drawing a violin
    src = str(Path(brierlab.__file__).resolve().parents[1])
    code = (
        "import sys, numpy, brierlab.cli\n"
        "from brierlab import figures\n"
        "figures.violin_svg([('g', numpy.linspace(0, 1, 50))], 't', 'y')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestScore:
    def test_text_report(self, pair_file, capsys):
        assert main(["score", "--input", str(pair_file)]) == 0
        out = capsys.readouterr().out
        assert "n=4" in out
        assert "brier=" in out
        assert "reference_incidence=" in out
        assert "warnings=" in out

    def test_json_report(self, pair_file, capsys):
        assert main(["score", "--input", str(pair_file), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 4
        assert 0.0 <= record["brier"] <= 1.0
        assert isinstance(record["warnings"], list)

    def test_zero_score_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        rows = "".join(f"{y},{y}\n" for y in ([1, 0] * 6))
        path.write_text("p,y\n" + rows)
        assert main(["score", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "brier=0.0" in out
        assert "ZERO_SCORE_SUSPECT" in out
        assert "ALL_EXTREME_PREDICTIONS" in out

    def test_half_predictions_score_quarter(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n" + "".join(f"0.5,{i % 2}\n" for i in range(8)))
        assert main(["score", "--input", str(path)]) == 0
        assert "brier=0.25" in capsys.readouterr().out

    def test_malformed_row_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n0.5,1\n0.5,2\n")
        assert main(["score", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_bytes(b"p,y\n0.5,1\n\xff0.5,0\n")
        assert main(["score", "--input", str(path)]) == 2
        assert f"{path}: not readable as utf-8 text" in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["score", "--input", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_2(self, pair_file, capsys, delta):
        assert main(["score", "--input", str(pair_file), "--near-reference-delta", delta]) == 2
        assert "near_reference_delta must be finite and positive" in capsys.readouterr().err


class TestExpect:
    def test_model_comparison_values(self, capsys):
        assert main(["expect", "--mode", "g", "--p1", "0", "--q1", "0.1"]) == 0
        assert "expected_score=0.1" in capsys.readouterr().out
        assert main(["expect", "--mode", "g", "--p1", "0.25", "--q1", "0.1"]) == 0
        assert "expected_score=0.1125" in capsys.readouterr().out

    def test_perfect_half(self, capsys):
        assert main(["expect", "--mode", "f", "--q1", "0.5"]) == 0
        assert "expected_perfect_score=0.25" in capsys.readouterr().out

    def test_perturb(self, capsys):
        assert main(["expect", "--mode", "perturb", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("perturb_difference=0.01")

    def test_shift_with_direction(self, capsys):
        assert main(["expect", "--mode", "shift", "--q1", "0.9", "--eps", "0.1",
                     "--direction", "minus"]) == 0
        assert "shift_difference=0.07" in capsys.readouterr().out

    def test_jensen_vector(self, capsys):
        assert main(["expect", "--mode", "jensen", "--q", "0.2,0.4"]) == 0
        out = capsys.readouterr().out
        assert "bound=0.21" in out
        assert "tight=false" in out

    def test_clt_vectors(self, capsys):
        assert main(["expect", "--mode", "clt", "--p", "0.1,0.1", "--q", "0.1,0.1"]) == 0
        out = capsys.readouterr().out
        assert "mean=0.09" in out
        assert "sd_of_mean=" in out

    def test_missing_argument_exits_2(self, capsys):
        assert main(["expect", "--mode", "g", "--p1", "0.5"]) == 2

    def test_domain_error_exits_2(self, capsys):
        assert main(["expect", "--mode", "f", "--q1", "1.5"]) == 2


class TestSimulate:
    def test_writes_expected_files(self, results_dir):
        files = sorted(p.name for p in results_dir.iterdir())
        assert "summary.csv" in files
        assert len(files) == 5  # 4 scenarios + summary

    def test_seed_override_changes_results(self, tmp_path, study_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(study_config), "--out", str(out_a),
                     "--seed", "99"]) == 0
        assert main(["simulate", "--config", str(study_config), "--out", str(out_b)]) == 0
        assert (out_a / "summary.csv").read_bytes() != (out_b / "summary.csv").read_bytes()

    def test_same_seed_byte_identical(self, tmp_path, study_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--config", str(study_config), "--out", str(out)]) == 0
        for path_a in out_a.iterdir():
            assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()

    @pytest.mark.parametrize("undecodable", ["config", "pool"])
    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys, undecodable):
        pool = tmp_path / "pool.txt"
        pool.write_bytes(b"0.1\n0.2\n" + (b"\xff0.3\n" if undecodable == "pool" else b""))
        config = tmp_path / "study.json"
        config.write_text(
            json.dumps(
                {
                    "study": {"name": "x", "seed": 1, "N": 2, "sample_sizes": [1]},
                    "dgms": [{"kind": "empirical", "path": str(pool)}],
                    "transforms": [{"kind": "perfect"}],
                }
            )
        )
        if undecodable == "config":
            config.write_bytes(config.read_bytes().replace(b'"x"', b'"\xff"'))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        bad = config if undecodable == "config" else pool
        assert f"{bad}: not readable as utf-8 text" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_beta_exits_2_naming_field(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "study": {"name": "x", "seed": 1, "N": 2, "sample_sizes": [5]},
                    "dgms": [{"kind": "beta", "alpha": 0, "beta": 5}],
                    "transforms": [{"kind": "perfect"}],
                }
            )
        )
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "dgms[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dgm, transform, message",
        [
            ({"kind": "uniform", "a": "0", "b": 1}, {"kind": "perfect"}, "dgms[0].a: must be a number, got '0'"),
            ({"kind": "uniform", "a": 0, "b": 1}, {"kind": "additive_bias", "delta": None},
             "transforms[0].delta: must be a number, got None"),
            (3, {"kind": "perfect"}, "dgms[0]: must be an object"),
            ({"kind": "uniform", "a": 0, "b": 1}, ["perfect"], "transforms[0]: must be an object"),
            ({"kind": "empirical", "path": None}, {"kind": "perfect"},
             "dgms[0].path: must be a non-empty string, got None"),
        ],
        ids=["string-parameter", "null-parameter", "dgm-not-object", "transform-not-object", "null-pool-path"],
    )
    def test_mistyped_entry_exits_2_naming_field(self, tmp_path, capsys, dgm, transform, message):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "study": {"name": "x", "seed": 1, "N": 2, "sample_sizes": [5]},
                    "dgms": [dgm],
                    "transforms": [transform],
                }
            )
        )
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_label_collision_exits_2_before_any_replication(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "pool.txt").write_text("0.2\n0.4\n0.6\n0.8\n" * 10)
        config = tmp_path / "collide.json"
        config.write_text(
            json.dumps(
                {
                    "study": {"name": "x", "seed": 1, "N": 300, "sample_sizes": [5]},
                    "dgms": [
                        {"kind": "empirical", "path": "pool.txt", "label": "a b"},
                        {"kind": "empirical", "path": "pool.txt", "label": "a_b"},
                    ],
                    "transforms": [{"kind": "perfect"}],
                }
            )
        )
        calls = []
        original = engine._run_block

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "_run_block", counting)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "empirical(a b)" in err and "empirical(a_b)" in err
        assert not (tmp_path / "o").exists()

    def test_failed_rewrite_removes_stale_summary(self, results_dir, study_config, tmp_path, monkeypatch):
        writes = []
        original = engine.write_scenario_csv

        def failing_second_write(result, directory):
            writes.append(result.scenario.label)
            if len(writes) == 2:
                raise OSError("disk full")
            return original(result, directory)

        monkeypatch.setattr(engine, "write_scenario_csv", failing_second_write)
        assert main(["simulate", "--config", str(study_config), "--out", str(results_dir)]) == 3
        assert len(writes) == 2
        assert not (results_dir / "summary.csv").exists()
        assert main(["report", "--results", str(results_dir), "--figure", "4",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2


class TestReport:
    @pytest.mark.parametrize("figure", ["1", "2", "3", "4"])
    def test_figures_from_results(self, results_dir, tmp_path, figure):
        out = tmp_path / "figs"
        code = main(["report", "--results", str(results_dir), "--figure", figure,
                     "--out", str(out), "--n", "30"])
        assert code == 0
        svg = (out / f"figure{figure}.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg
        assert (out / f"figure{figure}.csv").exists()

    def test_regeneration_is_byte_identical(self, results_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["report", "--results", str(results_dir), "--figure", "1",
                         "--out", str(out), "--n", "30"]) == 0
        assert (out_a / "figure1.svg").read_bytes() == (out_b / "figure1.svg").read_bytes()
        assert (out_a / "figure1.csv").read_bytes() == (out_b / "figure1.csv").read_bytes()

    def test_missing_results_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--results", str(empty), "--figure", "1",
                     "--out", str(tmp_path / "f")]) == 2
        assert "summary.csv" in capsys.readouterr().err

    def test_wrong_sample_size_exits_2_listing_available(self, results_dir, tmp_path, capsys):
        assert main(["report", "--results", str(results_dir), "--figure", "1",
                     "--out", str(tmp_path / "f")]) == 2  # default n=1000 absent
        err = capsys.readouterr().err
        assert "available sample sizes" in err and "30" in err

    def test_missing_scenario_file_exits_2(self, results_dir, tmp_path, capsys):
        victim = next(p for p in results_dir.iterdir() if p.name != "summary.csv")
        victim.unlink()
        assert main(["report", "--results", str(results_dir), "--figure", "1",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert victim.name in capsys.readouterr().err

    @pytest.mark.parametrize("victim", ["summary", "scenario"])
    def test_undecodable_file_exits_2_naming_it(self, results_dir, tmp_path, capsys, victim):
        label = engine.read_summary_csv(results_dir / "summary.csv")[0]["scenario"]
        name = "summary.csv" if victim == "summary" else engine.scenario_filename(label)
        path = results_dir / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(["report", "--results", str(results_dir), "--figure", "1",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert f"{path}: not readable as utf-8 text" in capsys.readouterr().err

    def test_corrupt_schema_detected(self, results_dir, tmp_path, capsys):
        summary = results_dir / "summary.csv"
        summary.write_text(summary.read_text().replace("median", "med"))
        assert main(["report", "--results", str(results_dir), "--figure", "4",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert "header" in capsys.readouterr().err

    def test_non_numeric_summary_cell_exits_2_naming_line(self, results_dir, tmp_path, capsys):
        summary = results_dir / "summary.csv"
        lines = summary.read_text().splitlines()
        prefix, _median, *rest = lines[1].rsplit(",", 5)  # the last five fields are numbers
        lines[1] = ",".join([prefix, "abc", *rest])
        summary.write_text("\n".join(lines) + "\n")
        assert main(["report", "--results", str(results_dir), "--figure", "2",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        err = capsys.readouterr().err
        assert "summary.csv: line 2:" in err and "abc" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_scenario_cell_exits_2_naming_line(self, results_dir, tmp_path, capsys, cell):
        label = engine.read_summary_csv(results_dir / "summary.csv")[0]["scenario"]
        path = results_dir / engine.scenario_filename(label)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = cell  # brier of the third replication
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--results", str(results_dir), "--figure", "1",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        err = capsys.readouterr().err
        assert f"{path.name}: line 4: non-finite value" in err
