"""The shared CSV table reader (one rule table per format, one per-line reader) and the real-number rule."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brierlab
from brierlab import engine, scoring, validation
from brierlab.cli import main
from brierlab.errors import ValidationError

# Each format with its public reader and one valid data row.
FORMATS = {
    "pair": (scoring._PAIR_CSV, scoring.read_pair_file, ["0.25", "1"]),
    "scenario": (engine._SCENARIO_CSV, engine.read_scenario_csv, ["3", "0.1", "0.0"]),
    "cell": (engine._CELL_CSV, engine.read_cell_csv, ["3", "0.01", "1", "0.5"]),
    "summary": (
        engine._SUMMARY_CSV,
        engine.read_summary_csv,
        ["lbl", "30", "brier", "0.1", "0.05", "0.2", "0.1", "0.5", "u_n30.csv"],
    ),
}

# A cell that breaks each rule, keyed by the rule's message.
BREAKING_CELLS = {
    "probability {} outside [0, 1]": "1.5",
    "outcome {} is not 0 or 1": "0.5",
    "brier {!r} is outside [0, 1]": "1.5",
    "cil {!r} is outside [-1, 1]": "-1.5",
    "gap {!r} is outside [-1, 0.25]": "0.3",
    "ybar {!r} is outside [0, 1]": "-0.5",
    "median {!r} is outside [-1, 1]": "1.7e308",
    "q05 {!r} is outside [-1, 1]": "-2",
    "q95 {!r} is outside [-1, 1]": "1.0000000000000002",
    "mean {!r} is outside [-1, 1]": "nan",
    "exceed_prob {!r} is outside [0, 1]": "inf",
    "rep {!r} is not an integer": "1.5",
    "rep {!r} is outside 1..2**53": "0",
    "exceeded {!r} is not 0 or 1": "2",
    "cell {!r} is not a file name": "../u_n30.csv",
    "scenario {!r} holds a character XML 1.0 cannot hold": "l\x01bl",
}

# The csv module refuses a cell over its field limit, which numpy takes (0.0 for "0.", 200 000 zeros and "1").
LIMIT = csv.field_size_limit()

RULE_CASES = [
    pytest.param(name, index, id=f"{name}-rule{index}")
    for name, (fmt, _, _) in FORMATS.items()
    for index in range(len(fmt.rules))
]


# Each closed-range rule: it takes both its ends, and refuses NaN and +-inf as values outside it.
RANGE_CASES = [
    pytest.param(name, index, id=f"{name}-rule{index}")
    for name, (fmt, _, _) in FORMATS.items()
    for index, (_, _, message) in enumerate(fmt.rules)
    if " is outside [" in message
]


def write_table(path, name, rows, end="\n"):
    fmt, _, _ = FORMATS[name]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(end.join([",".join(fmt.header), *(",".join(row) for row in rows)]) + end)
    return path


def failure(read, path):
    with pytest.raises(ValidationError) as info:
        read(path)
    return str(info.value)


@pytest.mark.parametrize("name, index", RULE_CASES)
def test_each_rule_names_the_same_line_through_both_readers(tmp_path, name, index):
    fmt, read, good = FORMATS[name]
    column, _, message = fmt.rules[index]
    bad = list(good)
    bad[column] = BREAKING_CELLS[message]
    path = write_table(tmp_path / f"{name}.csv", name, [good, good, bad, good])
    expected = f"{path}: line 4: {message.format(bad[column])}"
    assert failure(read, path) == expected
    assert failure(lambda path: validation.csv_rows(path, fmt), path) == expected


def test_each_number_column_but_rep_and_exceeded_has_a_range():
    ranged = set()
    for name, index in (case.values for case in RANGE_CASES):
        fmt = FORMATS[name][0]
        ranged.add(f"{name}.{fmt.header[fmt.rules[index][0]]}")
    assert ranged == {"scenario.brier", "scenario.cil", "cell.gap", "cell.ybar", "summary.median", "summary.q05",
                      "summary.q95", "summary.mean", "summary.exceed_prob"}


@pytest.mark.parametrize("name, index", RANGE_CASES)
def test_a_range_takes_its_ends_and_refuses_nan_and_infinities(tmp_path, name, index):
    fmt, read, good = FORMATS[name]
    column, _, message = fmt.rules[index]
    ends = re.search(r"\[(\S+), (\S+)\]$", message).groups()
    rows = [list(good), list(good)]
    rows[0][column], rows[1][column] = ends
    path = write_table(tmp_path / "ends.csv", name, rows)
    assert [row[column] for row in validation.csv_rows(path, fmt)] == list(map(float, ends))
    assert len(read(path)) > 0
    for cell in ("nan", "inf", "-inf"):
        bad = list(good)
        bad[column] = cell
        path = write_table(tmp_path / f"{name}.csv", name, [good, bad])
        expected = f"{path}: line 3: {message.format(cell)}"
        assert failure(read, path) == expected
        assert failure(lambda path: validation.csv_rows(path, fmt), path) == expected


@pytest.mark.parametrize("name", FORMATS)
def test_shared_failures_have_one_wording(tmp_path, name):
    fmt, read, good = FORMATS[name]
    width = len(fmt.header)
    non_numeric = list(good)
    non_numeric[fmt.types.index(float)] = "abc"
    for bad, message in (
        (good[:-1], f"line 3: expected {width} fields, got {width - 1}"),
        (non_numeric, f"line 3: non-numeric entry {non_numeric!r}"),
        # a last cell numpy would read as 0.0, which each format's last column takes
        ([*good[:-1], "0." + "0" * 200_000 + "1"], f"line 3: field larger than field limit ({LIMIT})"),
    ):
        path = write_table(tmp_path / f"{name}.csv", name, [good, bad, good])
        assert failure(read, path) == f"{path}: {message}"
        assert failure(lambda path: validation.csv_rows(path, fmt), path) == f"{path}: {message}"


@pytest.mark.parametrize("name", FORMATS)
def test_no_data_rows_has_one_wording(tmp_path, name):
    _, read, _ = FORMATS[name]
    path = write_table(tmp_path / f"{name}.csv", name, [[" \t "], [""]])
    assert failure(read, path) == f"{path}: no data rows found"


@pytest.mark.parametrize("name", FORMATS)
def test_first_error_in_file_order_is_named(tmp_path, name):
    fmt, read, good = FORMATS[name]
    column, _, message = fmt.rules[0]
    bad = list(good)
    bad[column] = BREAKING_CELLS[message]
    path = write_table(tmp_path / f"{name}.csv", name, [good, bad, good, good[:1]])
    assert failure(read, path) == f"{path}: line 3: {message.format(bad[column])}"


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_whitespace_only_lines_are_skipped(tmp_path, name, end):
    _, read, good = FORMATS[name]
    plain = read(write_table(tmp_path / "plain.csv", name, [good, good], end))
    spaced = read(write_table(tmp_path / "spaced.csv", name, [[""], good, [" \t"], good, ["  "]], end))
    assert repr(spaced) == repr(plain)


@pytest.mark.parametrize("name", FORMATS)
def test_a_leading_byte_order_mark_is_dropped_by_both_readers(tmp_path, name):
    # a spreadsheet's "CSV UTF-8" export starts the file with U+FEFF
    fmt, read, good = FORMATS[name]
    plain = write_table(tmp_path / "plain.csv", name, [good, good])
    marked = write_text(tmp_path / "marked.csv", "\ufeff" + plain.read_text(encoding="utf-8"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert repr(read(marked)) == repr(read(plain))
    assert validation.csv_rows(marked, fmt) == validation.csv_rows(plain, fmt)


@pytest.mark.parametrize("name", FORMATS)
def test_a_byte_order_mark_past_the_first_byte_is_refused(tmp_path, name):
    fmt, read, good = FORMATS[name]
    header = ",".join(fmt.header[:1] + ("\ufeff" + fmt.header[1],) + fmt.header[2:])
    path = write_text(tmp_path / f"{name}.csv", header + "\n" + ",".join(good) + "\n")
    expected = f"{path}: line 1: expected header {','.join(fmt.header)!r}, got {header!r}"
    assert failure(read, path) == expected
    assert failure(lambda path: validation.csv_rows(path, fmt), path) == expected


@pytest.mark.parametrize("name", FORMATS)
def test_valid_file_is_read_in_one_pass(tmp_path, monkeypatch, name):
    # pair and scenario files never reach the per-line reader unless a line
    # is bad; the summary, whose cells are not all numbers, is read by it once
    fmt, read, good = FORMATS[name]
    per_line = validation.csv_rows
    calls = []
    for module in (validation, engine):
        monkeypatch.setattr(module, "csv_rows", lambda path, fmt: calls.append(path) or per_line(path, fmt))
    path = write_table(tmp_path / f"{name}.csv", name, [good] * 5)
    read(path)
    assert calls == ([path] if name == "summary" else [])


# The parses of read_float_csv: from the text in memory, from its UTF-8 bytes when that text is over
# one chunk and the file cannot be named to numpy, and from the file by name.
IN_MEMORY, FROM_BYTES, BY_NAME = io.StringIO, io.TextIOWrapper, str

GOOD_PAIRS = ([0.25, 0.75], [0.0, 1.0])


def pair_outcome(path):
    """read_pair_file's arrays as lists, or the message of its ValidationError."""
    try:
        p, y = scoring.read_pair_file(path)
    except ValidationError as exc:
        return str(exc)
    return p.tolist(), y.tolist()


def parses_used(monkeypatch):
    """A list to which each later np.loadtxt call appends the type of its source."""
    sources = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda source, **kwargs: sources.append(type(source)) or loadtxt(source, **kwargs))
    return sources


def on_both_branches(monkeypatch, path):
    """The outcome of reading path with the default chunk, then with a 2-character one, and the parses used."""
    sources = parses_used(monkeypatch)
    outcomes = []
    for chunk in (validation._CHUNK, 2):
        monkeypatch.setattr(validation, "_CHUNK", chunk)
        outcomes.append(pair_outcome(path))
    return outcomes, sources


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize(
    "text",
    [
        "p,y\r\n0.25,0\r\n0.75,1\r\n",
        "p,y\r0.25,0\r0.75,1\r",
        "p,y\n\n0.25,0\n\n\n0.75,1\n\n",
        "p,y\n0.25,0\n0.75,1",
        " P , Y \n0.25,0\n0.75,1\n",
        '"p\n",y\n0.25,0\n0.75,1\n',
        "p,y\n0.25,0\x0b\n0.75,1\x0c\n",
        "p,y\n0.25\x85,0\n0.75,1\u2028\n",
    ],
    ids=["crlf", "cr", "blank-lines", "no-final-newline", "header-case-spaces", "two-line-header", "vt-ff", "nel-ls"],
)
def test_both_parses_read_the_same_table(tmp_path, monkeypatch, text):
    path = write_text(tmp_path / "pairs.csv", text)
    monkeypatch.setattr(validation, "_rows", lambda *args: pytest.fail("a good file reached the per-line reader"))
    assert on_both_branches(monkeypatch, path) == ([GOOD_PAIRS, GOOD_PAIRS], [IN_MEMORY, BY_NAME])


@pytest.mark.parametrize(
    "text, message",
    [
        ("p,y\n0.25,0\x850.75,1\n", "line 2: expected 2 fields, got 3"),  # U+0085 ends no line
        ("p,y\n0.25,0\x0b0.75,1\n", "line 2: expected 2 fields, got 3"),  # nor does U+000B
        ("p,y\r\n0.25,0\r\nnope,1\r\n", "line 3: non-numeric entry ['nope', '1']"),
        ('"p\n",y\n0.25,0\n0.75,2\n', "line 4: outcome 2 is not 0 or 1"),
        ("p,y\n0.25,0\n\x1c\n0.75,1\n\x1c0.5,1\n", "line 5: non-numeric entry ['\\x1c0.5', '1']"),
        ("\ufeffp,y\n0.25,0\nnope,1\n", "line 3: non-numeric entry ['nope', '1']"),
    ],
    ids=["nel", "vt", "crlf-bad-row", "two-line-header", "separator", "byte-order-mark"],
)
def test_both_parses_name_the_same_bad_line(tmp_path, monkeypatch, text, message):
    path = write_text(tmp_path / "pairs.csv", text)
    outcomes, _ = on_both_branches(monkeypatch, path)
    assert outcomes == [f"{path}: {message}"] * 2


def sized_body(size):
    """Rows ``0.25,1`` making up a body of exactly size characters, and their count."""
    row = "0.25,1\n"
    count = (size - 2) // len(row)
    return row * count + " " * (size - count * len(row) - 1) + "\n", count


@pytest.mark.parametrize("extra, source", [(-1, IN_MEMORY), (0, IN_MEMORY), (1, BY_NAME)], ids=["under", "at", "over"])
def test_body_over_one_chunk_is_parsed_by_name(tmp_path, monkeypatch, extra, source):
    body, count = sized_body(validation._CHUNK + extra)
    path = write_text(tmp_path / "pairs.csv", "p,y\n" + body)
    sources = parses_used(monkeypatch)
    p, y = scoring.read_pair_file(path)
    assert sources == [source]
    assert p.tolist() == [0.25] * count and y.tolist() == [1.0] * count


def test_a_byte_order_mark_before_a_body_parsed_by_name_is_skipped_with_the_header(tmp_path, monkeypatch):
    # numpy decodes the body as plain UTF-8; the mark lies in the header row it skips
    text = "p,y\n" + sized_body(validation._CHUNK + 1)[0].replace("0.25,1", "0.75,0", 7)
    plain = write_text(tmp_path / "plain.csv", text)
    marked = write_text(tmp_path / "marked.csv", "\ufeff" + text)
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = scoring.read_pair_file(plain)
    sources = parses_used(monkeypatch)
    assert repr(scoring.read_pair_file(marked)) == repr(expected)
    assert sources == [BY_NAME]


# Each outcome cell: the np.loadtxt calls read_pair_file makes, whether the per-line reader then reads the file,
# and whether the cell is refused. A uint8 parse takes the cell in one call; a cell it refuses is parsed again as
# float64 (1.0, 1e0 and -0), and a cell numpy refuses or a rule fails goes on to the per-line reader.
OUTCOME_SPELLINGS = {
    "0": (1, False, False),
    "1": (1, False, False),
    "+1": (1, False, False),
    "01": (1, False, False),
    " 1 ": (1, False, False),
    "1\u2028": (1, False, False),
    "\xa01": (1, False, False),
    "+0": (1, False, False),
    "1.0": (2, False, False),
    "1e0": (2, False, False),
    "-0": (2, False, False),
    "0_1": (2, True, False),
    "\u0661": (2, True, False),
    "2": (1, True, True),
    "256": (2, True, True),
    "0.5": (2, True, True),
    "nan": (2, True, True),
}


def pair_bytes(read, path):
    """The dtype and bytes of each array read returns, so that -0.0 shows, or the message of its ValidationError."""
    try:
        arrays = read(path)
    except ValidationError as exc:
        return str(exc)
    return [(arr.dtype.str, arr.tobytes()) for arr in arrays]


def snapped_per_line_pairs(path):
    """The per-line reader's p, snapped to [0, 1], and y."""
    p, y = np.array(validation.csv_rows(path, scoring._PAIR_CSV)).T
    return np.clip(p, 0.0, 1.0), y


@pytest.mark.parametrize(
    "cell, parses, per_line, refused",
    [pytest.param(cell, *how, id=ascii(cell)) for cell, how in OUTCOME_SPELLINGS.items()],
)
def test_each_outcome_spelling_reads_as_the_per_line_reader_does(
    tmp_path, monkeypatch, cell, parses, per_line, refused
):
    path = write_text(tmp_path / "pairs.csv", f"p,y\n0.25,0\n1.0000000000001,{cell}\n0.75,1\n")
    expected = pair_bytes(snapped_per_line_pairs, path)
    if refused:
        assert expected == f"{path}: line 3: outcome {cell} is not 0 or 1"
    else:
        assert expected[1] == ("<f8", np.array([0.0, float(cell), 1.0]).tobytes())
    sources = parses_used(monkeypatch)
    rows, used = validation._rows, []
    monkeypatch.setattr(validation, "_rows", lambda *args: used.append(args) or rows(*args))
    assert pair_bytes(scoring.read_pair_file, path) == expected
    assert (len(sources), bool(used)) == (parses, per_line)


def loadtxt_with_float_fallback(monkeypatch):
    """Make np.loadtxt read an integer field as numpy 1.23 to 1.26 read a cell such as 0.5 in it.

    Those versions parse the cell as a float and truncate it, after a DeprecationWarning; when the
    warning is raised as an error, numpy fails the cell with its usual conversion ValueError.
    """
    loadtxt = np.loadtxt

    def fallback(source, dtype=float, **kwargs):
        if np.dtype(dtype).names is None:
            return loadtxt(source, dtype=dtype, **kwargs)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '0.5' to uint8 at row 2, column 2.") from exc
        table = loadtxt(source, dtype=float, **{**kwargs, "ndmin": 2})
        records = np.zeros(len(table), dtype)
        for name, column in zip(records.dtype.names, table.T):
            records[name] = column
        return records

    monkeypatch.setattr(np, "loadtxt", fallback)


@pytest.mark.parametrize("chunk", [validation._CHUNK, 2], ids=["in-memory", "by-name"])
def test_an_outcome_an_integer_parser_would_truncate_is_refused(tmp_path, monkeypatch, chunk):
    path = write_text(tmp_path / "pairs.csv", "p,y\n0.25,0\n0.5,0.5\n0.75,1\n")
    monkeypatch.setattr(validation, "_CHUNK", chunk)
    loadtxt_with_float_fallback(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # as outside a test run
        assert pair_outcome(path) == f"{path}: line 3: outcome 0.5 is not 0 or 1"


@pytest.mark.parametrize("text", ["p,y\n0.25,0\nnope,1\n", "p,y\n0.25,0\n0.75,1,0\n"], ids=["probability", "fields"])
def test_only_a_refused_outcome_cell_is_parsed_again(tmp_path, monkeypatch, text):
    path = write_text(tmp_path / "pairs.csv", text)
    sources = parses_used(monkeypatch)
    assert pair_outcome(path).startswith(f"{path}: line 3: ")
    assert sources == [IN_MEMORY]


@pytest.mark.parametrize("suffix, source", [("", BY_NAME), (".gz", FROM_BYTES)], ids=["plain", "gz-name"])
def test_a_last_decimal_outcome_is_parsed_twice_without_the_per_line_reader(tmp_path, monkeypatch, suffix, source):
    path = write_text(tmp_path / f"pairs.csv{suffix}", "p,y\n0.25,0\n0.5,1\n0.75,1.0\n")
    monkeypatch.setattr(validation, "_rows", lambda *args: pytest.fail("a good file reached the per-line reader"))
    expected = ([0.25, 0.5, 0.75], [0.0, 1.0, 1.0])
    assert on_both_branches(monkeypatch, path) == ([expected, expected], [IN_MEMORY, IN_MEMORY, source, source])


def test_separator_in_a_later_chunk_names_its_line(tmp_path, monkeypatch):
    body, count = sized_body(validation._CHUNK)
    path = write_text(tmp_path / "pairs.csv", "p,y\n" + body + "0.5,0\n\x1c0.5,1\n0.5,0\n")
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("parsed despite a separator"))
    with pytest.raises(ValidationError) as info:
        scoring.read_pair_file(path)
    assert str(info.value) == f"{path}: line {count + 4}: non-numeric entry ['\\x1c0.5', '1']"


def tiny_p_row(length, field=None):
    """A pair row ``0.0…01,1`` of length characters, or one whose p cell has field characters."""
    return "0." + "0" * (field - 3 if field else length - 5) + "1,1"


# Each read of a body with a long line: its chunk, and the source numpy parses when the body is numpy's.
LONG_LINE_READS = {
    "in-memory": (validation._CHUNK, IN_MEMORY),
    "by-name-straddling": (100_000, BY_NAME),  # the long line starts in one chunk and ends in the next
    "by-name-small-chunks": (4096, BY_NAME),
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("chunk, source", list(LONG_LINE_READS.values()), ids=list(LONG_LINE_READS))
def test_a_line_over_the_field_limit_is_read_per_line(tmp_path, monkeypatch, end, chunk, source):
    monkeypatch.setattr(validation, "_CHUNK", chunk)
    sources = parses_used(monkeypatch)
    expected = ([0.5, 0.0, 0.5], [0.0, 1.0, 1.0])

    def pairs(*long_row):
        return write_text(tmp_path / "pairs.csv", end.join(["p,y", "0.5,0", tiny_p_row(*long_row), "0.5,1", ""]))

    # a line of the limit's length is numpy's; one character more goes to the per-line reader alone
    assert (pair_outcome(pairs(LIMIT)), sources) == (expected, [source])
    assert (pair_outcome(pairs(LIMIT + 1)), sources) == (expected, [source])
    path = pairs(None, LIMIT + 1)
    assert (pair_outcome(path), sources) == (f"{path}: line 3: field larger than field limit ({LIMIT})", [source])


@settings(max_examples=500, deadline=None)
@given(text=st.text("ab,\n\r", max_size=40), cuts=st.lists(st.integers(0, 40), max_size=4))
def test_scan_finds_a_line_over_the_field_limit_across_chunks(text, cuts):
    # with a field limit of 7, read in the chunks the cuts make
    ends = sorted(min(cut, len(text)) for cut in cuts)
    lines = re.split("[\r\n]", text)
    run = 0
    for start, end in zip([0, *ends], [*ends, len(text)]):
        if (run := validation._scan(text[start:end], run, 7)) < 0:
            break
    assert run == (-1 if max(map(len, lines)) > 7 else len(lines[-1]))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_names_numpy_would_decompress_are_read_as_text(tmp_path, monkeypatch, suffix):
    path = write_text(tmp_path / f"pairs.csv{suffix}", "p,y\n0.25,0\n0.75,1\n")
    assert on_both_branches(monkeypatch, path) == ([GOOD_PAIRS, GOOD_PAIRS], [IN_MEMORY, FROM_BYTES])
    write_text(path, "p,y\n0.25,0\n\x1c\n0.75,x\n")
    assert on_both_branches(monkeypatch, path)[0] == [f"{path}: line 4: non-numeric entry ['0.75', 'x']"] * 2


@pytest.mark.parametrize("as_path", [True, False], ids=["Path", "relative-str"])
def test_path_forms(tmp_path, monkeypatch, as_path):
    monkeypatch.chdir(tmp_path)
    name = Path("pairs.csv") if as_path else "pairs.csv"
    write_text(name, "p,y\n0.25,0\n0.75,1\n")
    assert on_both_branches(monkeypatch, name) == ([GOOD_PAIRS, GOOD_PAIRS], [IN_MEMORY, BY_NAME])
    write_text(name, "p,y\n0.25,0\nnope,1\n")
    assert on_both_branches(monkeypatch, name)[0] == ["pairs.csv: line 3: non-numeric entry ['nope', '1']"] * 2


# Each parse, as (file name suffix, chunk), with the source np.loadtxt is given.
PARSE_ROUTES = {
    "in-memory": ("", validation._CHUNK, IN_MEMORY),
    "from-bytes": (".gz", 2, FROM_BYTES),
    "by-name": ("", 2, BY_NAME),
}
# A scenario file as figure 1 reads it: rep and brier are parsed, cil is counted but not parsed.
BRIER_ONLY = engine._SCENARIO_METRIC_CSV["brier"]


@pytest.mark.parametrize("suffix, chunk, source", list(PARSE_ROUTES.values()), ids=list(PARSE_ROUTES))
def test_each_parse_reads_the_typed_columns_alone(tmp_path, monkeypatch, suffix, chunk, source):
    assert BRIER_ONLY.types[2] is None and BRIER_ONLY.kept == (0, 1)
    path = write_text(tmp_path / f"s.csv{suffix}", "rep,brier,cil\n1,0.25,abc\n2,0.5,\n\n3,0.75,-9\n")
    expected = [[1.0, 0.25], [2.0, 0.5], [3.0, 0.75]]
    assert validation.csv_rows(path, BRIER_ONLY) == expected
    monkeypatch.setattr(validation, "_CHUNK", chunk)
    monkeypatch.setattr(validation, "_rows", lambda *args: pytest.fail("a good file reached the per-line reader"))
    sources = parses_used(monkeypatch)
    table = validation.read_float_csv(path, BRIER_ONLY)
    assert (table.dtype, table.tolist(), sources) == (np.float64, expected, [source])


@pytest.mark.parametrize("row, width", [("3,0.75", 2), ("3,0.75,abc,0", 4)], ids=["2-fields", "4-fields"])
@pytest.mark.parametrize("suffix, chunk, source", list(PARSE_ROUTES.values()), ids=list(PARSE_ROUTES))
def test_each_parse_refuses_a_row_of_another_width_with_an_untyped_column(
    tmp_path, monkeypatch, suffix, chunk, source, row, width
):
    # numpy's own count of each row's fields refuses it, and the per-line reader names the line
    path = write_text(tmp_path / f"s.csv{suffix}", f"rep,brier,cil\n1,0.25,abc\n2,0.5,\n{row}\n")
    monkeypatch.setattr(validation, "_CHUNK", chunk)
    sources = parses_used(monkeypatch)
    with pytest.raises(ValidationError) as info:
        validation.read_float_csv(path, BRIER_ONLY)
    assert str(info.value) == f"{path}: line 4: expected 3 fields, got {width}"
    assert sources == [source]


@pytest.mark.parametrize(
    "text",
    [
        "p,y\r\n0.25,0\r\n0.75,1\r\n",
        "p,y\n0.25,0\nnope,1\n",
        "p,y\n0.25,0\n\x1c\n0.75,2\n",  # the separator line is blank to the per-line reader
        '"p\n",y\n0.25,0\n0.75,1,0\n',
        "p,y\n",
    ],
    ids=["good", "non-numeric", "separator", "two-line-header", "no-rows"],
)
def test_pipe_reads_as_the_file_does(tmp_path, text):
    # a pipe cannot be read twice, so its text is what the per-line reader reads
    path = write_text(tmp_path / "pairs.csv", text)
    read, write = os.pipe()
    try:
        os.write(write, text.encode())
        os.close(write)
        piped = pair_outcome(f"/dev/fd/{read}")
    finally:
        os.close(read)
    expected = pair_outcome(path)
    if isinstance(expected, str):
        expected = expected.replace(str(path), f"/dev/fd/{read}")
    assert piped == expected


def score_from_stdin(text, *args):
    src = str(Path(brierlab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "brierlab.cli", "score", "--input", "/dev/stdin", *args],
        input=text, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )


def test_piped_bad_file_names_its_line():
    done = score_from_stdin("p,y\n0.5,1\nnope,0\n")
    assert done.returncode == 2
    assert done.stderr == "error: /dev/stdin: line 3: non-numeric entry ['nope', '0']\n"


def test_piped_file_scores_as_the_file_does(tmp_path, capsys):
    text = "p,y\n" + "".join(f"{i / 997!r},{i % 3 == 0:d}\n" for i in range(997))
    path = write_text(tmp_path / "pairs.csv", text)
    assert main(["score", "--input", str(path), "--json"]) == 0
    done = score_from_stdin(text, "--json")
    assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)


@pytest.mark.parametrize("piped", [False, True], ids=["gz-name", "pipe"])
def test_body_parsed_from_memory_peaks_under_three_times_its_size(tmp_path, piped):
    # a StringIO of the body holds 4 bytes per character beside the text: about 5x in all
    data = ("p,y\n" + "".join(f"{i / 99991!r},{i % 2}\n" for i in range(90_000))).encode()
    assert len(data) > 1 << 20
    if piped:
        read, write = os.pipe()
        path = f"/dev/fd/{read}"
        writer = threading.Thread(target=lambda: (os.write(write, data), os.close(write)))
        writer.start()
    else:
        path = tmp_path / "pairs.csv.gz"
        path.write_bytes(data)
    tracemalloc.start()
    try:
        table = validation.read_float_csv(path, scoring._PAIR_CSV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if piped:
            os.close(read)  # a writer still blocked on a full pipe then fails instead of hanging
            writer.join()
    assert table.shape == (90_000, 2)
    assert peak < 3 * len(data)


# Every scalar argument, a spec param or a closed form's, follows one rule: a real
# number that a float holds, and not a bool. Each value: accepted, and the message
# after "x must be a number: " if refused.
REAL_TABLE = {
    "int": (3, None),
    "negative-int": (-2, None),
    "float": (0.25, None),
    "np.float64": (np.float64(0.25), None),
    "np.float32": (np.float32(0.5), None),
    "np.int64": (np.int64(2), None),
    "np.uint8": (np.uint8(1), None),
    "Fraction": (Fraction(1, 3), None),
    "nan": (math.nan, None),
    "inf": (math.inf, None),
    "-inf": (-math.inf, None),
    "True": (True, "got True"),
    "False": (False, "got False"),
    "np.True_": (np.True_, f"got {np.True_!r}"),
    "Decimal": (Decimal("0.5"), "got Decimal('0.5')"),
    "0-d array": (np.array(0.5), f"got {np.array(0.5)!r}"),
    "str": ("0.5", "got the string '0.5'"),
    "bytes": (b"0.5", "got the string b'0.5'"),
    "None": (None, "got None"),
    "list": ([0.5], "got [0.5]"),
    "10**400": (10**400, "got an integer too large for a float"),
}


@pytest.mark.parametrize("value, refusal", list(REAL_TABLE.values()), ids=list(REAL_TABLE))
def test_is_real_and_as_float_take_the_same_values(value, refusal):
    assert validation.is_real(value) is (refusal is None)
    if refusal is None:
        x = validation.as_float(value, "x")
        assert type(x) is float and (x == float(value) or math.isnan(x) and math.isnan(value))
    else:
        with pytest.raises(ValidationError) as info:
            validation.as_float(value, "x")
        assert str(info.value) == f"x must be a number: {refusal}"


# 10**5000 has more digits than Python's int() and repr() take by default (4300), so at least
# repr raises ValueError; every message that shows such a value must still be a ValidationError.
HUGE = 10**5000


def _huge_repr_raises() -> bool:
    try:
        repr(HUGE)
    except ValueError:
        return True
    return False


def _huge_integer_table():
    from brierlab.analytic import PerturbationSpec
    from brierlab.dgm import (
        EmpiricalProbabilityPool,
        PredictorTransformSpec,
        TrueDistributionSpec,
        make_synthetic_pool,
        sample_true_probs,
    )
    from brierlab.engine import Scenario, StudyConfig, run_scenario, run_study

    dist, transform = TrueDistributionSpec.constant(0.5), PredictorTransformSpec.perfect()
    scenario = Scenario(dist, transform, 5)

    def study(**fields):
        return StudyConfig(**{"name": "x", "seed": 1, "n_reps": 2, "sample_sizes": (5,), "dgms": (dist,),
                              "transforms": (transform,), **fields})

    return {
        "beta": (lambda: TrueDistributionSpec.beta(HUGE, 2),
                 "true-distribution kind 'beta' takes finite numbers, got (an unprintable int, 2)"),
        "additive_bias": (lambda: PredictorTransformSpec.additive_bias(HUGE),
                          "predictor-transform kind 'additive_bias' takes finite numbers, got (an unprintable int)"),
        "spec-kind": (lambda: TrueDistributionSpec(HUGE), "unknown true-distribution kind an unprintable int"),
        "spec-arity": (lambda: PredictorTransformSpec("perfect", (HUGE, 1)),
                       "predictor-transform kind 'perfect' takes params (), got (an unprintable int, 1)"),
        "scenario-n": (lambda: Scenario(dist, transform, -HUGE),
                       "scenario sample size must be >= 1, got an unprintable int"),
        "scenario-n-positive": (lambda: Scenario(dist, transform, HUGE),
                                "scenario sample size must be <= 2**53, got an unprintable int"),
        "scenario-true_dist": (lambda: Scenario(HUGE, transform, 5),
                               "scenario true_dist must be a TrueDistributionSpec, got an unprintable int"),
        "scenario-transform": (lambda: Scenario(dist, HUGE, 5),
                               "scenario transform must be a PredictorTransformSpec, got an unprintable int"),
        "study-seed": (lambda: study(seed=-HUGE), "seed must be >= 0, got an unprintable int"),
        "study-N": (lambda: study(n_reps=-HUGE), "replication count must be >= 1, got an unprintable int"),
        "study-N-positive": (lambda: study(n_reps=HUGE),
                             "replication count must be <= 2**53, got an unprintable int"),
        "study-sample_sizes": (lambda: study(sample_sizes=(5, -HUGE)),
                               "study sample sizes must be a sequence of integers >= 1, got (5, an unprintable int)"),
        "study-sample_sizes-positive": (lambda: study(sample_sizes=(5, HUGE)),
                                        "study sample size must be <= 2**53, got an unprintable int"),
        "study-name": (lambda: study(name=HUGE), "study name must be a string, got an unprintable int"),
        "study-dgms": (lambda: study(dgms=HUGE), "study dgms must be a sequence of specs, got an unprintable int"),
        "run_study-workers": (lambda: run_study(study(), workers=-HUGE),
                              "worker count must be >= 1, got an unprintable int"),
        "run_scenario-N": (lambda: run_scenario(scenario, -HUGE, 1),
                           "replication count must be >= 1, got an unprintable int"),
        "run_scenario-N-positive": (lambda: run_scenario(scenario, HUGE, 1),
                                    "replication count must be <= 2**53, got an unprintable int"),
        "run_scenario-seed": (lambda: run_scenario(scenario, 2, -HUGE), "seed must be >= 0, got an unprintable int"),
        "run_scenario-cell": (lambda: run_scenario(scenario, 2, 1, scenario_index=-HUGE),
                              "cell index must be >= 0, got an unprintable int"),
        "pool-label": (lambda: EmpiricalProbabilityPool([0.5], HUGE),
                       "a pool label must be a non-empty string, got an unprintable int"),
        "synthetic-target": (lambda: make_synthetic_pool(HUGE),
                             "target incidence must lie in (0, 1), got an unprintable int"),
        "synthetic-size": (lambda: make_synthetic_pool(0.3, size=-HUGE),
                           "pool size must be an integer >= 1, got an unprintable int"),
        "synthetic-size-positive": (lambda: make_synthetic_pool(0.3, size=HUGE),
                                    "pool size must be <= 2**53, got an unprintable int"),
        "synthetic-spread": (lambda: make_synthetic_pool(0.3, spread=HUGE),
                             "spread must be finite and nonnegative, got an unprintable int"),
        "sample_true_probs-size": (lambda: sample_true_probs(dist, (2, -HUGE), np.random.default_rng(1)),
                                   "size must be an integer n >= 1 or a tuple of integers >= 0 ending in n, "
                                   "got (2, an unprintable int)"),
        "sample_true_probs-size-positive": (lambda: sample_true_probs(dist, (2, HUGE), np.random.default_rng(1)),
                                            "total size must be <= 2**53, got an unprintable int"),
        "perturbation-direction": (lambda: PerturbationSpec(0.1, HUGE),
                                   "direction must be 'plus' or 'minus', got an unprintable int"),
        # numbers too large for a float, which numpy refuses with an OverflowError
        "brier_score": (lambda: scoring.brier_score([10**400], [1]),
                        "predictions must hold numbers only: int too large to convert to float"),
        "pool-values": (lambda: EmpiricalProbabilityPool([10**400], "x"),
                        "pool 'x' must hold numbers only: int too large to convert to float"),
        "summarize": (lambda: engine.summarize([10**400, 1]),
                      "samples must hold numbers only: int too large to convert to float"),
    }


HUGE_TABLE = _huge_integer_table()
needs_digit_limit = pytest.mark.skipif(not _huge_repr_raises(), reason="this Python prints integers of any length")


@needs_digit_limit
@pytest.mark.parametrize("build, message", list(HUGE_TABLE.values()), ids=list(HUGE_TABLE))
def test_a_huge_integer_is_refused_with_a_validation_error(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("value, text", [
    (0.5, "0.5"),
    ("a", "'a'"),
    ((1, "b"), "(1, 'b')"),
    pytest.param(HUGE, "an unprintable int", marks=needs_digit_limit),
    pytest.param((HUGE,), "(an unprintable int)", marks=needs_digit_limit),
    pytest.param([HUGE], "an unprintable list", marks=needs_digit_limit),
], ids=["float", "str", "tuple", "int", "tuple-of-int", "list-of-int"])
def test_shown_is_the_repr_or_a_text_that_never_raises(value, text):
    assert validation.shown(value) == text


def test_not_xml_char_is_the_complement_of_the_xml_char_production():
    # XML 1.0: Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]
    held = [(0x9, 0xA), (0xD, 0xD), (0x20, 0xD7FF), (0xE000, 0xFFFD), (0x10000, 0x10FFFF)]
    everything = "".join(map(chr, range(0x110000)))
    refused = {match.start() for match in validation.NOT_XML_CHAR.finditer(everything)}
    assert refused == set(range(0x110000)).difference(*(range(a, b + 1) for a, b in held))


def test_commit_text_writes_a_name_of_255_characters_and_leaves_no_temp_file(tmp_path):
    # the temp file's name has 21 characters whatever the target's, so any name the file system takes commits
    path = tmp_path / ("a" * 251 + ".csv")
    assert validation.commit_text(path, "x\n") == path
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text() == "x\n"
