"""Command-line verbs: outputs, exit codes, figure emission, determinism."""

import contextlib
import csv
import errno
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

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


def run_under_ascii_locale(*args):
    """Run the command line in a fresh interpreter whose locale encodes ASCII only."""
    src = str(Path(brierlab.__file__).resolve().parents[1])
    locale_free = (key for key in os.environ if not key.startswith(("LC_", "LANG", "PYTHONIO")))
    env = {key: os.environ[key] for key in locale_free}
    env.update(PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    return subprocess.run(
        [sys.executable, "-m", "brierlab.cli", *args], env=env, capture_output=True, text=True
    )


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


def test_import_does_not_load_xml_sax():
    # figures escapes its three characters itself; xml.sax.saxutils pulls in urllib, http and email.
    # numpy.random (secrets, hashlib) is loaded by the first draw or pool start, not by the import.
    src = str(Path(brierlab.__file__).resolve().parents[1])
    code = "import sys, brierlab.cli\nprint(sorted(m for m in sys.modules if m.startswith(('xml.sax', 'numpy.random'))))"
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

    def test_outcomes_written_as_decimals_print_the_same_bytes(self, tmp_path, capsys):
        pairs = [(i / 97, i % 3 % 2) for i in range(97)]
        outputs = []
        for spell in (str, lambda y: f"{y}.0"):
            path = tmp_path / "pairs.csv"
            path.write_text("p,y\n" + "".join(f"{p!r},{spell(y)}\n" for p, y in pairs))
            assert main(["score", "--input", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

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

    def test_redirected_stdout_takes_the_report(self, pair_file):
        # main() leaves a stdout that is not a text file as it is
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["score", "--input", str(pair_file), "--json"]) == 0
        assert json.loads(out.getvalue())["n"] == 4

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["score", "--input", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p,y\n0.5,1\n" + "x" * 200_000 + ",1\n", 3),
            ("p,y\n0.5,1\n0." + "0" * 200_000 + "1,1\n", 3),  # numpy would read it as 0.0
            ("x" * 200_000 + ",y\n0.5,1\n", 1),
        ],
        ids=["data-cell", "numeric-data-cell", "header-cell"],
    )
    def test_oversized_cell_exits_2_naming_line(self, tmp_path, capsys, text, line):
        # a cell over csv.field_size_limit() (128 KiB) is bad input, not a crash
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        assert main(["score", "--input", str(path)]) == 2
        assert f"{path}: line {line}: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_2(self, pair_file, capsys, delta):
        assert main(["score", "--input", str(pair_file), "--near-reference-delta", delta]) == 2
        assert "near_reference_delta must be finite and positive" in capsys.readouterr().err


class TestExpect:
    """Whole stdout and stderr, so that "expected_score=0.1" cannot pass for "expected_score=0.1125"."""

    def test_model_comparison_values(self, capsys):
        assert main(["expect", "--mode", "g", "--p1", "0", "--q1", "0.1"]) == 0
        assert capsys.readouterr() == ("expected_score=0.1\n", "")
        assert main(["expect", "--mode", "g", "--p1", "0.25", "--q1", "0.1"]) == 0
        assert capsys.readouterr() == ("expected_score=0.1125\n", "")

    def test_perfect_half(self, capsys):
        assert main(["expect", "--mode", "f", "--q1", "0.5"]) == 0
        assert capsys.readouterr() == ("expected_perfect_score=0.25\n", "")

    def test_perturb(self, capsys):
        assert main(["expect", "--mode", "perturb", "--eps", "0.1"]) == 0
        assert capsys.readouterr() == ("perturb_difference=0.010000000000000002\n", "")

    def test_shift_with_direction(self, capsys):
        assert main(["expect", "--mode", "shift", "--q1", "0.9", "--eps", "0.1",
                     "--direction", "minus"]) == 0
        assert capsys.readouterr() == ("shift_difference=0.07\n", "")
        assert main(["expect", "--mode", "shift", "--q1", "0.2", "--eps", "0.1"]) == 0
        assert capsys.readouterr() == ("shift_difference=0.05\n", "")

    def test_jensen_vector(self, capsys):
        assert main(["expect", "--mode", "jensen", "--q", "0.2,0.4"]) == 0
        assert capsys.readouterr() == ("bound=0.21000000000000002\ntight=false\n", "")
        assert main(["expect", "--mode", "jensen", "--q", "0.3,0.3"]) == 0
        assert capsys.readouterr() == ("bound=0.21\ntight=true\n", "")

    def test_clt_vectors(self, capsys):
        assert main(["expect", "--mode", "clt", "--p", "0.1,0.1", "--q", "0.1,0.1"]) == 0
        assert capsys.readouterr() == (
            "mean=0.09\nvariance=0.05760000000000002\nn=2\nsd_of_mean=0.16970562748477144\n", ""
        )

    @pytest.mark.parametrize("argv, flag", [
        ("--mode g --q1 0.5", "--p1"),
        ("--mode g --p1 0.5", "--q1"),
        ("--mode f", "--q1"),
        ("--mode shift --eps 0.1", "--q1"),
        ("--mode shift --q1 0.5", "--eps"),
        ("--mode perturb", "--eps"),
        ("--mode jensen", "--q"),
        ("--mode clt --q 0.1", "--p"),
        ("--mode clt --p 0.1", "--q"),
    ])
    def test_missing_argument_exits_2(self, capsys, argv, flag):
        assert main(["expect", *argv.split()]) == 2
        mode = argv.split()[1]
        assert capsys.readouterr() == ("", f"error: mode {mode!r} requires {flag}\n")

    @pytest.mark.parametrize("argv, message", [
        ("--mode f --q1 1.5", "q1 = 1.5 lies outside [0, 1]"),
        ("--mode g --p1 1.5 --q1 0.1", "p1 = 1.5 lies outside [0, 1]"),
        ("--mode g --p1 0.1 --q1 -0.5", "q1 = -0.5 lies outside [0, 1]"),
        ("--mode shift --q1 0.2 --eps -1", "epsilon must be a nonnegative real, got -1.0"),
        ("--mode shift --q1 0.2 --eps 0.5", "upward shift requires q1 + eps <= 1/2, got 0.2 + 0.5"),
        ("--mode perturb --eps -1", "epsilon must be a nonnegative real, got -1.0"),
        ("--mode perturb --eps 1e200", "epsilon must be at most 1, got 1e+200"),
        ("--mode jensen --q a,b", "--q: expected comma-separated decimals, got 'a,b'"),
        ("--mode jensen --q ,", "true probabilities must contain at least one element"),
        ("--mode clt --p x --q 0.1", "--p: expected comma-separated decimals, got 'x'"),
        ("--mode clt --p 0.1 --q y", "--q: expected comma-separated decimals, got 'y'"),
        ("--mode clt --p 0.1,0.2 --q 0.1", "predictions/true probabilities have mismatched lengths: 2 vs 1"),
    ])
    def test_domain_error_exits_2(self, capsys, argv, message):
        assert main(["expect", *argv.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_domain_error_prints_a_plain_float(self, capsys):
        assert main(["expect", "--mode", "clt", "--p", "1.5,0.2", "--q", "0.5,0.5"]) == 2
        err = capsys.readouterr().err
        assert "predictions[0] = 1.5 lies outside" in err
        assert "np.float64" not in err


class TestSimulate:
    def test_writes_expected_files(self, results_dir):
        files = sorted(p.name for p in results_dir.iterdir())
        assert "summary.csv" in files
        assert len(files) == 7  # 2 cells + 4 scenarios + summary
        for row in engine.read_summary_csv(results_dir / "summary.csv"):
            assert row["cell"] in files and engine.scenario_filename(row["scenario"]) in files

    def test_failed_cell_write_exits_3_keeping_the_cells_before_it(self, tmp_path, study_config, capsys):
        out = tmp_path / "o"
        (out / "constant_0.5_n30.csv").mkdir(parents=True)  # the second cell's file cannot replace a directory
        assert main(["simulate", "--config", str(study_config), "--out", str(out), "--workers", "2"]) == 3
        assert multiprocessing.active_children() == []
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and "constant_0.5_n30.csv" in captured.err
        assert captured.out.count("\n") == 4  # the progress lines of both cells, and no "wrote" line
        assert sorted(path.name for path in out.iterdir()) == [
            "constant_0.5_n30.csv", "uniform_0_1_n30.csv", "uniform_0_1_perfect_n30.csv",
            "uniform_0_1_unif_noise_0.1_n30.csv",
        ]
        assert main(["report", "--results", str(out), "--figure", "1", "--n", "30", "--out", str(tmp_path / "f")]) == 2

    @pytest.mark.parametrize("out", ["afile", "afile/o"], ids=["a-file", "under-a-file"])
    def test_out_that_is_no_directory_exits_3_before_any_block(self, tmp_path, study_config, monkeypatch, capsys, out):
        (tmp_path / "afile").write_text("not a directory\n")
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        assert main(["simulate", "--config", str(study_config), "--out", str(tmp_path / out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("i/o error: ")
        assert (tmp_path / "afile").read_text() == "not a directory\n"

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

    def test_negative_seed_exits_2_naming_it(self, tmp_path, study_config, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(study_config), "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_worker_count_exits_2_making_no_directory(self, tmp_path, study_config, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(study_config), "--out", str(out), "--workers", "0"]) == 2
        assert capsys.readouterr().err == "error: worker count must be >= 1, got 0\n"
        assert not out.exists()

    def test_non_ascii_label_in_progress_under_ascii_locale(self, tmp_path):
        # the progress line names each scenario; a label the locale cannot
        # encode is printed with a backslash escape instead of failing the run
        pool = tmp_path / "pool.txt"
        pool.write_text("0.1\n0.2\n0.3\n0.6\n", encoding="utf-8")
        config = tmp_path / "study.json"
        doc = {
            "study": {"name": "x", "seed": 3, "N": 20, "sample_sizes": [2]},
            "dgms": [{"kind": "empirical", "path": str(pool), "label": "ostéo"}],
            "transforms": [{"kind": "perfect"}],
        }
        config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        results = tmp_path / "results"
        done = run_under_ascii_locale("simulate", "--config", str(config), "--out", str(results))
        assert done.returncode == 0, done.stderr
        assert "empirical(ost\\xe9o)" in done.stdout
        assert sorted(path.name for path in results.iterdir()) == [
            "empirical_ost_o_n2.csv", "empirical_ost_o_perfect_n2.csv", "summary.csv"
        ]

    @pytest.mark.parametrize("route", ["label", "file-name"])
    def test_pool_label_utf8_cannot_encode_exits_2_before_any_block(self, tmp_path, monkeypatch, capsys, route):
        # a lone surrogate passes every other check, and writing summary.csv would fail after the whole run
        name = os.fsdecode(b"a\x80b.txt" if route == "file-name" else b"pool.txt")
        try:
            (tmp_path / name).write_text("0.1\n0.2\n0.3\n0.4\n0.5\n")
        except (OSError, UnicodeEncodeError):
            pytest.skip("this file system takes UTF-8 file names only")
        dgm = {"kind": "empirical", "path": name, **({"label": "a\udc80b"} if route == "label" else {})}
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"study": {"name": "x", "seed": 1, "N": 5, "sample_sizes": [5]},
                                      "dgms": [dgm], "transforms": [{"kind": "perfect"}]}))
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: dgms[0]: a pool label must be text that UTF-8 can encode, got 'a\\udc80b'\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("route", ["label", "file-name"])
    def test_pool_label_xml_cannot_hold_exits_2_before_any_block(self, tmp_path, monkeypatch, capsys, route):
        # U+0001 passes every other check, and report would write an SVG that no XML parser reads
        name = "a\x01b.txt" if route == "file-name" else "pool.txt"
        try:
            (tmp_path / name).write_text("0.1\n0.2\n0.3\n0.4\n0.5\n")
        except OSError:
            pytest.skip("this file system refuses control characters in file names")
        dgm = {"kind": "empirical", "path": name, **({"label": "a\x01b"} if route == "label" else {})}
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"study": {"name": "x", "seed": 1, "N": 5, "sample_sizes": [5]},
                                      "dgms": [dgm], "transforms": [{"kind": "perfect"}]}))
        monkeypatch.setattr(engine, "_run_block", lambda *task: pytest.fail("a block ran"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: dgms[0]: a pool label must be text that XML 1.0 can hold, got 'a\\x01b'\n"
        )
        assert not (tmp_path / "o").exists()

    def test_number_past_the_int_digit_limit_exits_2_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "huge.json"
        config.write_text('{"study": {"name": "x", "seed": 1, "N": 5, "sample_sizes": [5]}, '
                          '"dgms": [{"kind": "beta", "alpha": 1%s, "beta": 2}], '
                          '"transforms": [{"kind": "perfect"}]}' % ("0" * 5000))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: not valid JSON: ") and "digits" in err
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
            ({"kind": "uniform", "a": "0", "b": 1}, {"kind": "perfect"},
             "dgms[0]: true-distribution kind 'uniform' takes finite numbers, got ('0', 1)"),
            ({"kind": "uniform", "a": 0, "b": 1}, {"kind": "additive_bias", "delta": None},
             "transforms[0]: predictor-transform kind 'additive_bias' takes finite numbers, got (None,)"),
            (3, {"kind": "perfect"}, "dgms[0]: must be an object"),
            ({"kind": "uniform", "a": 0, "b": 1}, ["perfect"], "transforms[0]: must be an object"),
            ({"kind": "empirical", "path": None}, {"kind": "perfect"},
             "dgms[0].path: must be a non-empty string, got None"),
            ({"kind": "empirical", "path": "a\u0000b"}, {"kind": "perfect"},
             "dgms[0].path: cannot read pool file: embedded null byte"),
        ],
        ids=["string-parameter", "null-parameter", "dgm-not-object", "transform-not-object", "null-pool-path",
             "nul-pool-path"],
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
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "seed must be >= 0, got -1"),
            ("N", 0, "replication count must be >= 1, got 0"),
            ("sample_sizes", [0], "scenario sample size must be >= 1, got 0"),
            ("sample_sizes", 5, "study.sample_sizes: must be a list, got 5"),
        ],
        ids=["negative-seed", "zero-N", "zero-size", "size-not-list"],
    )
    def test_bad_study_value_exits_2_naming_it(self, tmp_path, capsys, field, value, message):
        study = {"name": "x", "seed": 1, "N": 2, "sample_sizes": [5], field: value}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"study": study, "dgms": [{"kind": "constant", "c": 0.5}],
                                      "transforms": [{"kind": "perfect"}]}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    def test_pool_smaller_than_sample_size_exits_2_before_any_block(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "pool.txt").write_text("0.2\n0.4\n0.6\n")
        config = tmp_path / "tiny.json"
        config.write_text(
            json.dumps(
                {
                    "study": {"name": "x", "seed": 1, "N": 10, "sample_sizes": [5]},
                    "dgms": [
                        {"kind": "uniform", "a": 0, "b": 1},
                        {"kind": "empirical", "path": "pool.txt", "label": "tiny"},
                    ],
                    "transforms": [{"kind": "perfect"}],
                }
            )
        )
        calls = []
        monkeypatch.setattr(engine, "_run_block", lambda *task: calls.append(task))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""  # no cell ran, so none was reported
        assert "dgms[1]: pool 'tiny' has 3 values, cannot subsample n=5 without replacement" in captured.err
        assert not (tmp_path / "o").exists()

    def test_failed_rewrite_removes_stale_summary(self, results_dir, study_config, tmp_path, monkeypatch):
        writes = []
        original = engine.commit_text

        def failing_second_write(path, text):
            writes.append(path.name)
            if len(writes) == 2:
                raise OSError("disk full")
            return original(path, text)

        monkeypatch.setattr(engine, "commit_text", failing_second_write)
        assert main(["simulate", "--config", str(study_config), "--out", str(results_dir)]) == 3
        assert len(writes) == 2 and "summary.csv" not in writes  # the first cell's first scenario file failed
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
        # the figure CSV holds the summary text of the rows it shows: violins their metric's
        # statistics, the bars each scenario's exceed_prob (on its brier row; every metric has it)
        metric, columns = {
            "1": ("brier", ("scenario", "n", "metric", "median", "q05", "q95", "mean")),
            "2": ("cil", ("scenario", "n", "metric", "median", "q05", "q95", "mean")),
            "3": ("gap", ("scenario", "n", "metric", "median", "q05", "q95", "mean")),
            "4": ("brier", ("scenario", "n", "exceed_prob")),
        }[figure]
        with open(results_dir / "summary.csv", newline="") as fh:
            header, *summary = list(csv.reader(fh))
        shown = [dict(zip(header, row)) for row in summary if row[1] == "30" and row[2] == metric]
        assert len(shown) == 4
        with open(out / f"figure{figure}.csv", newline="") as fh:
            written = list(csv.reader(fh))
        assert written == [list(columns), *([row[c] for c in columns] for row in shown)]
        floats = [cell for row in written[1:] for name, cell in zip(columns, row) if name not in ("scenario", "n", "metric")]
        assert floats and all(cell == repr(float(cell)) for cell in floats)  # each float as its repr

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

    @pytest.mark.parametrize("kind, figure", [("per-scenario", "1"), ("cell", "3")])
    def test_missing_scenario_file_exits_2(self, results_dir, tmp_path, capsys, kind, figure):
        row = engine.read_summary_csv(results_dir / "summary.csv")[0]  # the first scenario that needs either file
        victim = results_dir / (row["cell"] if kind == "cell" else engine.scenario_filename(row["scenario"]))
        victim.unlink()
        assert main(["report", "--results", str(results_dir), "--figure", figure,
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert capsys.readouterr().err == (
            f"error: {results_dir}: missing {kind} file {victim.name} needed for scenario {row['scenario']!r}\n"
        )

    def test_figure_3_reads_each_cell_file_once(self, results_dir, tmp_path, monkeypatch):
        # a cell's scenarios share its gap column, so each violin of a cell draws the one array read
        reads = []
        read_cell_csv = engine.read_cell_csv
        monkeypatch.setattr(engine, "read_cell_csv", lambda path: reads.append(path.name) or read_cell_csv(path))
        monkeypatch.setattr(engine, "read_scenario_csv", lambda path: pytest.fail(f"figure 3 read {path}"))
        assert main(["report", "--results", str(results_dir), "--figure", "3",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 0
        assert reads == ["uniform_0_1_n30.csv", "constant_0.5_n30.csv"]

    def test_results_without_cell_files_exit_2_naming_the_summary_header(self, tmp_path, capsys):
        # a directory written before cell files: six-column scenario files and no cell column
        results = tmp_path / "old"
        results.mkdir()
        (results / "summary.csv").write_text(
            "scenario,n,metric,median,q05,q95,mean,exceed_prob\n"
            "uniform(0,1)+perfect+n30,30,gap,0.08,0.06,0.1,0.08,0.0\n"
        )
        (results / "uniform_0_1_perfect_n30.csv").write_text(
            "rep,brier,cil,gap,exceeded,ybar\n1,0.16,0.01,0.08,0,0.5\n"
        )
        for figure in ("1", "2", "3", "4"):
            assert main(["report", "--results", str(results), "--figure", figure,
                         "--out", str(tmp_path / "f"), "--n", "30"]) == 2
            assert capsys.readouterr().err == (
                f"error: {results / 'summary.csv'}: line 1: expected header "
                "'scenario,n,metric,median,q05,q95,mean,exceed_prob,cell', "
                "got 'scenario,n,metric,median,q05,q95,mean,exceed_prob'\n"
            )

    @pytest.mark.parametrize("victim", ["summary", "scenario"])
    def test_undecodable_file_exits_2_naming_it(self, results_dir, tmp_path, capsys, victim):
        label = engine.read_summary_csv(results_dir / "summary.csv")[0]["scenario"]
        name = "summary.csv" if victim == "summary" else engine.scenario_filename(label)
        path = results_dir / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(["report", "--results", str(results_dir), "--figure", "1",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert f"{path}: not readable as utf-8 text" in capsys.readouterr().err

    def test_non_ascii_label_under_ascii_locale(self, tmp_path):
        # every file is UTF-8 whatever the locale: a pool label written under
        # one locale reads back, and lands in the SVG, under plain ASCII
        pool = tmp_path / "pool.txt"
        pool.write_text("0.1\n0.2\n0.3\n0.6\n", encoding="utf-8")
        config = tmp_path / "study.json"
        doc = {
            "study": {"name": "x", "seed": 3, "N": 20, "sample_sizes": [2]},
            "dgms": [{"kind": "empirical", "path": str(pool), "label": "ostéo"}],
            "transforms": [{"kind": "uniform_noise", "half_width": 0.1}],
        }
        config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        results = tmp_path / "results"
        assert main(["simulate", "--config", str(config), "--out", str(results)]) == 0
        out = tmp_path / "figs"
        done = run_under_ascii_locale(
            "report", "--results", str(results), "--figure", "1", "--n", "2", "--out", str(out)
        )
        assert done.returncode == 0, done.stderr
        root = ElementTree.fromstring((out / "figure1.svg").read_bytes())
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert any(text and "(ostéo)" in text for text in texts)

    @pytest.mark.parametrize("figure", ["1", "4"])
    def test_summary_label_xml_cannot_hold_exits_2_naming_line(self, results_dir, tmp_path, capsys, figure):
        summary = results_dir / "summary.csv"
        with open(summary, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        label = rows[1][0]
        rows[1][0] = rows[2][0] = rows[3][0] = label.replace("+", "\x01+", 1)  # each metric row of one scenario
        with open(summary, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "f"
        assert main(["report", "--results", str(results_dir), "--figure", figure, "--out", str(out), "--n", "30"]) == 2
        assert capsys.readouterr().err == (
            f"error: {summary}: line 2: scenario {rows[1][0]!r} holds a character XML 1.0 cannot hold\n"
        )
        assert not (out / f"figure{figure}.svg").exists()

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

    def test_oversized_summary_cell_exits_2_naming_line(self, results_dir, tmp_path, capsys):
        summary = results_dir / "summary.csv"
        lines = summary.read_text().splitlines()
        lines.insert(2, "x" * 200_000 + lines[2])
        summary.write_text("\n".join(lines) + "\n")
        assert main(["report", "--results", str(results_dir), "--figure", "1",
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert "summary.csv: line 3: field larger than field limit" in capsys.readouterr().err

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
        assert f"{path.name}: line 4: brier {cell!r} is outside [0, 1]" in err

    @pytest.mark.parametrize("figure", ["1", "2"])
    def test_oversized_scenario_cell_exits_2_naming_line(self, results_dir, tmp_path, capsys, figure):
        # over the csv module's field limit, though numpy reads it as 0.0
        label = engine.read_summary_csv(results_dir / "summary.csv")[0]["scenario"]
        path = results_dir / engine.scenario_filename(label)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[1] = "0." + "0" * 200_000 + "1"  # brier of the first replication
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--results", str(results_dir), "--figure", figure,
                     "--out", str(tmp_path / "f"), "--n", "30"]) == 2
        assert f"{path.name}: line 2: field larger than field limit (131072)" in capsys.readouterr().err

    def test_bad_cell_fails_only_the_figure_that_draws_its_column(self, results_dir, tmp_path, capsys):
        # figure 1 parses rep and brier of each scenario file, figure 2 rep and cil; both count every row's fields
        label = engine.read_summary_csv(results_dir / "summary.csv")[0]["scenario"]
        path = results_dir / engine.scenario_filename(label)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))

        def report(figure, edit):
            edited = [list(row) for row in rows]
            edit(edited)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(edited)
            out = tmp_path / "figures"
            shutil.rmtree(out, ignore_errors=True)
            code = main(["report", "--results", str(results_dir), "--figure", figure, "--out", str(out), "--n", "30"])
            return code, capsys.readouterr().err, sorted(child.name for child in out.iterdir())

        def bad_cil(edited):
            edited[3][2] = "abc"  # cil of the third replication

        assert report("1", bad_cil) == (0, "", ["figure1.csv", "figure1.svg"])
        cells = [*rows[3][:2], "abc"]
        assert report("2", bad_cil) == (2, f"error: {path}: line 4: non-numeric entry {cells!r}\n", [])
        for figure in ("1", "2"):
            assert report(figure, lambda edited: edited[5].append("0.5")) == (
                2, f"error: {path}: line 6: expected 3 fields, got 4\n", []
            )

    def test_brier_cells_whose_spread_overflows_exit_2_writing_no_figure(self, results_dir, tmp_path, capsys):
        # finite, but the sd of 1e308 and -1e308 overflows: the figure would be drawn with nan coordinates
        label = engine.read_summary_csv(results_dir / "summary.csv")[0]["scenario"]
        path = results_dir / engine.scenario_filename(label)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][1], rows[2][1] = "1e308", "-1e308"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "f"
        assert main(["report", "--results", str(results_dir), "--figure", "1", "--out", str(out), "--n", "30"]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: brier '1e308' is outside [0, 1]\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("figure", ["1", "4"])
    @pytest.mark.parametrize("failing", [".svg", ".csv"])
    def test_failed_figure_write_exits_3_leaving_no_partial_file(self, results_dir, tmp_path, monkeypatch, figure,
                                                                 failing):
        replace = os.replace

        def full_disk(src, dst):
            if str(dst).endswith(failing):
                raise OSError(errno.ENOSPC, "No space left on device", str(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", full_disk)
        out = tmp_path / "f"
        assert main(["report", "--results", str(results_dir), "--figure", figure, "--out", str(out), "--n", "30"]) == 3
        # each file is whole or absent: the SVG, written first, stays when only the CSV fails
        assert sorted(path.name for path in out.iterdir()) == ([f"figure{figure}.svg"] if failing == ".csv" else [])

    def test_exceed_prob_past_one_exits_2_writing_no_figure(self, results_dir, tmp_path, capsys):
        # a finite value the bar chart's axis ticks overflow on: the figure would be drawn with inf coordinates
        summary = results_dir / "summary.csv"
        with open(summary, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == "brier"  # the first scenario's row, which figure 4 draws
        rows[1][7] = "1.7e308"
        with open(summary, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "f"
        assert main(["report", "--results", str(results_dir), "--figure", "4", "--out", str(out), "--n", "30"]) == 2
        assert capsys.readouterr().err == f"error: {summary}: line 2: exceed_prob '1.7e308' is outside [0, 1]\n"
        assert list(out.iterdir()) == []
