"""The shared CSV table reader: one rule table per format, one per-line reader."""

import pytest

from brierlab import engine, scoring, validation
from brierlab.errors import ValidationError

# Each format with its public reader and one valid data row.
FORMATS = {
    "pair": (scoring._PAIR_CSV, scoring.read_pair_file, ["0.25", "1"]),
    "scenario": (engine._SCENARIO_CSV, engine.read_scenario_csv, ["3", "0.1", "0.0", "0.01", "1", "0.5"]),
    "summary": (
        engine._SUMMARY_CSV,
        engine.read_summary_csv,
        ["lbl", "30", "brier", "0.1", "0.05", "0.2", "0.1", "0.5"],
    ),
}

# A cell that breaks each rule, keyed by the rule's message.
BREAKING_CELLS = {
    "probability {} outside [0, 1]": "1.5",
    "outcome {} is not 0 or 1": "0.5",
    "non-finite value {!r}": "nan",
    "rep {!r} is not an integer": "1.5",
    "rep {!r} is outside 1..2**53": "0",
    "exceeded {!r} is not 0 or 1": "2",
}

RULE_CASES = [
    pytest.param(name, index, id=f"{name}-rule{index}")
    for name, (fmt, _, _) in FORMATS.items()
    for index in range(len(fmt.rules))
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


@pytest.mark.parametrize("name", FORMATS)
def test_shared_failures_have_one_wording(tmp_path, name):
    fmt, read, good = FORMATS[name]
    width = len(fmt.header)
    non_numeric = list(good)
    non_numeric[fmt.types.index(float)] = "abc"
    for bad, message in (
        (good[:-1], f"line 3: expected {width} fields, got {width - 1}"),
        (non_numeric, f"line 3: non-numeric entry {non_numeric!r}"),
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
