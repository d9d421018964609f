"""Scoring metrics, reference scores, diagnostics, and pair-file parsing."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brierlab import scoring, validation
from brierlab.cli import main
from brierlab.errors import DimensionError, ValidationError
from brierlab.scoring import (
    ALL_EXTREME_PREDICTIONS,
    NEAR_REFERENCE,
    ZERO_SCORE_SUSPECT,
    brier_score,
    cil,
    diagnose,
    mae,
    read_pair_file,
    reference_scores,
    rmse,
    score_report,
)
from brierlab.validation import as_probability_vector

# Cells the text readers must treat exactly as float() does: numbers, out of
# range and non-finite values, cells float() accepts but np.loadtxt does not
# (quoted, underscored, non-ASCII digits), and cells np.loadtxt accepts but
# float() does not (U+001C..U+001F around a number).
CELLS = (
    "0", "1", "0.5", ".25", "1.", "1e-3", "-0", "-1e-13", "1.0000000000001", "1.5", "2",
    "nan", "inf", "-inf", "1e400", "0.2_5", '"0.5"', '"1"', " 0.5", "0.5 ", "\t1", "\xa00.5",
    "\u0661", "", "abc", "1 # x", "0x1p-2", "\x00", "\x1c0.5", "1\x1f",
)


@st.composite
def pair_file_texts(draw):
    """A header ``p,y`` and a few lines drawn from CELLS, with a random line end."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    line = st.one_of(
        st.tuples(st.sampled_from(["0.25", "1e-3", "-0", "1."]), st.sampled_from(CELLS)).map(",".join),
        st.tuples(st.sampled_from(CELLS), st.sampled_from(CELLS)).map(",".join),
        st.lists(st.sampled_from(CELLS), min_size=1, max_size=3).map(",".join),
        st.sampled_from(["", "   ", "\t"]),
    )
    lines = draw(st.lists(line, max_size=6))
    return end.join(["p,y", *lines]) + draw(st.sampled_from([end, ""]))


@st.composite
def prediction_outcome_pairs(draw, max_size=60):
    n = draw(st.integers(min_value=1, max_value=max_size))
    p = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    return np.array(p), np.array(y)


class TestBrierScore:
    def test_exact_match_at_extremes(self):
        assert brier_score([1.0, 0.0], [1, 0]) == 0.0

    def test_constant_half_scores_quarter_for_any_y(self):
        for y in ([1, 0], [0, 0, 0], [1, 1, 1, 1]):
            assert brier_score([0.5] * len(y), y) == 0.25

    def test_single_term_square(self):
        assert brier_score([0.25], [0]) == pytest.approx(0.0625, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            brier_score([0.5, 0.5], [1])

    def test_out_of_domain_prediction(self):
        with pytest.raises(ValidationError):
            brier_score([1.5], [1])

    def test_out_of_domain_outcome(self):
        with pytest.raises(ValidationError):
            brier_score([0.5], [2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            brier_score([], [])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            brier_score([float("nan")], [1])

    @pytest.mark.parametrize("p, y, message", [
        (["a", 0.2], [1, 0], "predictions must hold numbers only: could not convert string to float: 'a'"),
        ([0.1, 0.2], [1, "b"], "outcomes must hold numbers only: could not convert string to float: 'b'"),
    ], ids=["prediction", "outcome"])
    def test_non_number_rejected_naming_the_input(self, p, y, message):
        with pytest.raises(ValidationError) as info:
            brier_score(p, y)
        assert str(info.value) == message

    def test_tiny_overshoot_snapped_not_rejected(self):
        # within 1e-12 of the boundary: accepted and snapped
        assert brier_score([1.0 + 5e-13], [1]) == 0.0
        with pytest.raises(ValidationError):
            brier_score([1.0 + 1e-9], [1])


# A bad (predictions, outcomes) pair, with the error every scoring function raises for it: predictions are
# checked, then outcomes, then the lengths.
BAD_PAIRS = {
    "mismatched-lengths": (([0.1, 0.2], [1]), DimensionError, "predictions/outcomes have mismatched lengths: 2 vs 1"),
    "out-of-range": (([0.1, 1.5], [1, 0]), ValidationError, "predictions[1] = 1.5 lies outside [0, 1] by more than 1e-12"),
    "nan": (([0.1, float("nan")], [1, 0]), ValidationError, "predictions[1] is not finite: nan"),
    "not-an-outcome": (([0.1, 0.2], [1, 2]), ValidationError, "outcomes[1] = 2.0 is not a 0/1 outcome"),
    "empty": (([], []), ValidationError, "predictions must contain at least one element"),
    "non-number": (
        ([0.1, "a"], [1, 0]), ValidationError, "predictions must hold numbers only: could not convert string to float: 'a'"
    ),
    "predictions-first": (([1.5], [2, 0]), ValidationError, "predictions[0] = 1.5 lies outside [0, 1] by more than 1e-12"),
    "outcomes-before-lengths": (([0.1], [2, 0]), ValidationError, "outcomes[0] = 2.0 is not a 0/1 outcome"),
}


@pytest.mark.parametrize("call", [brier_score, rmse, mae, cil, diagnose, score_report], ids=lambda call: call.__name__)
@pytest.mark.parametrize("pair, error, message", BAD_PAIRS.values(), ids=list(BAD_PAIRS))
def test_every_scoring_function_refuses_a_bad_pair_alike(call, pair, error, message):
    with pytest.raises(ValidationError) as info:  # a DimensionError is one
        call(*pair)
    assert (type(info.value), str(info.value)) == (error, message)


class TestCompanionMetrics:
    def test_symmetric_errors_cancel_in_cil(self):
        p, y = [0.5, 0.5], [1, 0]
        assert rmse(p, y) == pytest.approx(0.5, abs=1e-15)
        assert mae(p, y) == pytest.approx(0.5, abs=1e-15)
        assert cil(p, y) == pytest.approx(0.0, abs=1e-15)

    def test_constant_one_sided_error(self):
        p, y = [0.2, 0.2], [0, 0]
        assert cil(p, y) == pytest.approx(0.2, abs=1e-15)
        assert mae(p, y) == pytest.approx(0.2, abs=1e-15)
        assert rmse(p, y) == pytest.approx(0.2, abs=1e-15)

    def test_inequality_chain_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 101))
            p = rng.random(n)
            y = (rng.random(n) < 0.5).astype(float)
            c, m, r, b = cil(p, y), mae(p, y), rmse(p, y), brier_score(p, y)
            assert c <= m + 1e-12
            assert m <= r + 1e-12
            assert b <= m + 1e-12

    def test_rmse_is_root_of_brier(self):
        p, y = [0.3, 0.8, 0.1], [0, 1, 1]
        assert rmse(p, y) ** 2 == pytest.approx(brier_score(p, y), abs=1e-12)


class TestReferenceScores:
    def test_half_incidence(self):
        half, incidence = reference_scores([1, 0, 1, 0])
        assert half == 0.25
        assert incidence == pytest.approx(0.25, abs=1e-15)

    def test_ten_percent_incidence(self):
        _, incidence = reference_scores([1] + [0] * 9)
        assert incidence == pytest.approx(0.09, abs=1e-12)

    def test_degenerate_all_zero(self):
        _, incidence = reference_scores([0, 0, 0])
        assert incidence == 0.0

    def test_incidence_reference_never_exceeds_quarter(self, rng):
        for _ in range(200):
            y = (rng.random(int(rng.integers(1, 50))) < rng.random()).astype(float)
            half, incidence = reference_scores(y)
            assert incidence <= half + 1e-15

    def test_closed_forms_match_direct_evaluation(self, rng):
        # predicting constant 1/2 always scores 1/4; predicting the observed
        # incidence always scores ybar - ybar^2
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = (rng.random(n) < rng.random()).astype(float)
            ybar = float(y.mean())
            assert brier_score([0.5] * n, y) == pytest.approx(0.25, abs=1e-15)
            assert brier_score([ybar] * n, y) == pytest.approx(ybar - ybar**2, abs=1e-12)


class TestDiagnose:
    def test_zero_score_on_matching_extremes(self):
        y = [1, 0] * 10
        codes = diagnose(y, y)
        assert codes == [ZERO_SCORE_SUSPECT, ALL_EXTREME_PREDICTIONS]

    def test_near_reference_for_constant_half(self):
        p = [0.5] * 10
        y = [1, 0] * 5
        assert diagnose(p, y) == [NEAR_REFERENCE]

    def test_clean_case_emits_nothing(self):
        # spread-out predictions, score far from 0 and from ybar - ybar^2:
        # brier = 0.81, reference = 0.25, |0.81 - 0.25| >= 0.05
        p = [0.9, 0.9, 0.1, 0.1]
        y = [0, 0, 1, 1]
        assert abs(brier_score(p, y) - reference_scores(y)[1]) >= 0.05
        assert diagnose(p, y) == []

    def test_zero_score_needs_ten_cases(self):
        y = [1, 0, 1]
        assert diagnose(y, y) == [ALL_EXTREME_PREDICTIONS]

    def test_near_reference_delta_is_configurable(self):
        p = [0.45] * 8
        y = [1, 0] * 4
        # brier = 0.2525, reference = 0.25
        assert NEAR_REFERENCE in diagnose(p, y, near_reference_delta=0.01)
        assert NEAR_REFERENCE not in diagnose(p, y, near_reference_delta=0.001)

    def test_delta_must_be_positive(self):
        for delta in (0.0, float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError, match="finite and positive"):
                diagnose([0.5], [1], near_reference_delta=delta)

    def test_non_number_delta_rejected_naming_it(self):
        # float()'s own wording follows, and differs between Python versions
        with pytest.raises(ValidationError, match="^near_reference_delta must be a number: "):
            diagnose([0.5], [1], None)

    def test_inputs_not_mutated(self):
        p = np.array([0.2, 0.7])
        y = np.array([0.0, 1.0])
        diagnose(p, y)
        assert p.tolist() == [0.2, 0.7]
        assert y.tolist() == [0.0, 1.0]


class TestScoreReport:
    def test_fields_are_consistent(self, rng):
        p = rng.random(40)
        y = (rng.random(40) < 0.4).astype(float)
        report = score_report(p, y)
        assert report.n == 40
        assert report.brier == pytest.approx(report.rmse**2, abs=1e-12)
        assert report.cil <= report.mae <= report.rmse + 1e-12
        assert report.brier <= report.mae + 1e-12
        assert report.reference_half == 0.25

    def test_fields_equal_their_sums_written_out(self, rng):
        # each field against its definition summed exactly here, not against another brierlab function
        for n in (1, 7, 400):
            p, y = rng.random(n).tolist(), (rng.random(n) < 0.3).astype(float).tolist()
            report = score_report(p, y)
            brier = math.fsum((pi - yi) ** 2 for pi, yi in zip(p, y)) / n
            mean_p, ybar = math.fsum(p) / n, math.fsum(y) / n
            close = functools.partial(pytest.approx, rel=1e-15, abs=0.0)
            assert report.n == n
            assert report.brier == close(brier)
            assert report.rmse == close(math.sqrt(brier))
            assert report.mae == close(math.fsum(abs(pi - yi) for pi, yi in zip(p, y)) / n)
            # cil is a difference: relative to the larger of its two means
            assert abs(report.cil - (mean_p - ybar)) <= 1e-15 * max(mean_p, ybar)
            assert (report.reference_half, report.reference_incidence) == (0.25, close(ybar - ybar * ybar))

    def test_warnings_are_diagnose(self):
        for p, y, codes in (
            ([0.5] * 10, [1, 0] * 5, [NEAR_REFERENCE]),  # brier 0.25 = ybar - ybar**2
            ([1, 0] * 10, [1, 0] * 10, [ZERO_SCORE_SUSPECT, ALL_EXTREME_PREDICTIONS]),
            ([1, 0] * 4, [1, 0] * 4, [ALL_EXTREME_PREDICTIONS]),  # a zero score on 8 cases is no suspect
            ([1] * 10, [1] * 10, [ZERO_SCORE_SUSPECT, ALL_EXTREME_PREDICTIONS, NEAR_REFERENCE]),
            ([0.1, 0.9] * 25, [1, 0] * 25, []),  # brier 0.81
        ):
            assert score_report(p, y).warnings == tuple(codes)
            assert diagnose(p, y) == codes

    def test_delta_checked_before_vectors(self):
        with pytest.raises(ValidationError, match="near_reference_delta"):
            score_report([1.5], [2], near_reference_delta=0.0)

    def test_non_number_delta_rejected_naming_it(self):
        with pytest.raises(ValidationError, match="^near_reference_delta must be a number: got the string 'a'$"):
            score_report([0.5], [1], near_reference_delta="a")

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
    @pytest.mark.parametrize("entry", [score_report, diagnose], ids=["score_report", "diagnose"])
    def test_bool_delta_refused(self, entry, flag):
        # a delta of True is no delta of 1, as the closed forms and the specs refuse True
        message = rf"^near_reference_delta must be a number: got {re.escape(repr(flag))}$"
        with pytest.raises(ValidationError, match=message):
            entry([0.5], [1], near_reference_delta=flag)

    def test_as_dict_round_trips_warnings(self):
        report = score_report([0.5, 0.5], [1, 0])
        record = report.as_dict()
        assert record["warnings"] == [NEAR_REFERENCE]
        assert set(record) == {
            "n", "brier", "rmse", "mae", "cil",
            "reference_half", "reference_incidence", "warnings",
        }


class TestProperties:
    @given(prediction_outcome_pairs())
    def test_score_within_unit_interval(self, pair):
        p, y = pair
        assert 0.0 <= brier_score(p, y) <= 1.0

    @given(prediction_outcome_pairs(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pair, shuffler):
        p, y = pair
        order = list(range(len(p)))
        shuffler.shuffle(order)
        order = np.array(order)
        assert brier_score(p[order], y[order]) == pytest.approx(brier_score(p, y), abs=1e-12)
        assert mae(p[order], y[order]) == pytest.approx(mae(p, y), abs=1e-12)
        assert cil(p[order], y[order]) == pytest.approx(cil(p, y), abs=1e-12)
        assert rmse(p[order], y[order]) == pytest.approx(rmse(p, y), abs=1e-12)

    @given(prediction_outcome_pairs())
    def test_inequality_chain(self, pair):
        p, y = pair
        assert cil(p, y) <= mae(p, y) + 1e-12
        assert mae(p, y) <= rmse(p, y) + 1e-12
        assert brier_score(p, y) <= mae(p, y) + 1e-12

    def test_rmse_ordering_matches_brier_ordering(self, rng):
        # square root preserves order on [0, 1]
        for _ in range(200):
            n = int(rng.integers(1, 30))
            p1, p2 = rng.random(n), rng.random(n)
            y = (rng.random(n) < 0.5).astype(float)
            b1, b2 = brier_score(p1, y), brier_score(p2, y)
            r1, r2 = rmse(p1, y), rmse(p2, y)
            assert (b1 < b2) == (r1 < r2) or b1 == b2


def read_outcome(read, path):
    """The arrays a reader returns, or the message of the ValidationError it raises."""
    try:
        p, y = read(path)
    except ValidationError as exc:
        return str(exc)
    return p.tolist(), y.tolist()


def per_line_pairs(path):
    """read_pair_file's arrays, from the per-line reader alone."""
    p, y = np.array(validation.csv_rows(path, scoring._PAIR_CSV)).T
    return as_probability_vector(p), y


class TestPairFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n0.25,0\n0.75,1\n")
        p, y = read_pair_file(path)
        assert p.tolist() == [0.25, 0.75]
        assert y.tolist() == [0.0, 1.0]

    def test_header_required(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.25,0\n")
        with pytest.raises(ValidationError, match="header"):
            read_pair_file(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n0.5,1\nnope,0\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_pair_file(path)

    def test_out_of_range_outcome_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n0.5,2\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_pair_file(path)

    def test_out_of_range_probability_rejected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n0.5,1\n1.3,0\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_pair_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("")
        with pytest.raises(ValidationError):
            read_pair_file(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n")
        with pytest.raises(ValidationError):
            read_pair_file(path)

    @settings(max_examples=300, deadline=None)
    @given(text=pair_file_texts())
    def test_matches_per_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert read_outcome(read_pair_file, path) == read_outcome(per_line_pairs, path)

    @pytest.mark.parametrize(
        "text",
        [
            "p,y\r\n0.25,0\r\n0.75,1\r\n",  # CRLF line ends
            "p,y\n0.25,0\n0.75,1",  # no trailing newline
            "p,y\n0.25,0\n \t \n0.75,1\n",  # a whitespace-only line
            'p,y\n"0.25",0\n0.75,"1"\n',  # quoted cells
            "p,y\n0.2_5,0\n0.75,1\n",  # an underscore, which float() accepts
        ],
        ids=["crlf", "no-trailing-newline", "whitespace-line", "quoted", "underscore"],
    )
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert read_outcome(read_pair_file, path) == ([0.25, 0.75], [0.0, 1.0])
        assert read_outcome(per_line_pairs, path) == ([0.25, 0.75], [0.0, 1.0])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p,y\n0.25,0\n0.75,1 # x\n", "line 3: non-numeric entry"),  # '#' starts no comment
            ("p,y\n0.25,0\n\x1c0.75,1\n", "line 3: non-numeric entry"),  # loadtxt alone strips U+001C
            ("p,y\n0.25,0\n0.75,1,0\n", "line 3: expected 2 fields, got 3"),
            ("p,y\n0.25\n", "line 2: expected 2 fields, got 1"),
        ],
        ids=["hash", "separator", "three-columns", "one-column"],
    )
    def test_edge_files_rejected(self, tmp_path, text, message):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_pair_file(path)

    def test_header_only_file_prints_no_numpy_warning(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["score", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: no data rows found\n"

    @pytest.mark.parametrize("rows", [2, 60_000], ids=["text", "path"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, rows):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF; past 1 MiB numpy parses the file by path
        rng = np.random.default_rng(rows)
        body = "".join(f"{p!r},{y}\n" for p, y in zip(rng.random(rows).tolist(), rng.integers(0, 2, rows).tolist()))
        assert (len(body) > validation._CHUNK) == (rows > 2)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("p,y\n" + body, encoding="utf-8")
        marked.write_text("\ufeffp,y\n" + body, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfp,y\n")
        assert score_report(*read_pair_file(marked)) == score_report(*read_pair_file(plain))

    @pytest.mark.parametrize("last", ["1", "1.0", "0_1"], ids=["integer-parse", "float-parse", "per-line"])
    def test_arrays_are_float_contiguous_writable_and_apart(self, tmp_path, last):
        path = tmp_path / "pairs.csv"
        path.write_text(f"p,y\n0.25,0\n1.0000000000001,{last}\n")
        p, y = read_pair_file(path)
        assert (p.tolist(), y.tolist()) == ([0.25, 1.0], [0.0, 1.0])
        for arr in (p, y):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable
        assert not np.shares_memory(p, y)

    def test_arrays_are_contiguous_float(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("p,y\n0.25,0\n0.75,1\n1.0000000000001,1\n")
        p, y = read_pair_file(path)
        assert p.tolist() == [0.25, 0.75, 1.0]
        for arr in (p, y):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
