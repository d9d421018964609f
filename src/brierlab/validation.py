"""Input validation shared by every module, and commit_text, which writes every file brierlab writes.

Each CSV table (pair, scenario, cell, summary file) is described by one CsvFormat and read here.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import numbers
import os
import re
import stat
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

# Probabilities may stray outside [0, 1] by at most this much before they
# are rejected instead of snapped to the boundary.
DOMAIN_TOL = 1e-12

# The largest count, size or results-file rep taken: float64 holds every integer up to it exactly.
MAX_COUNT = 2**53

# Input files (CSV tables, pool files, study configs) are read as UTF-8; "utf-8-sig" also drops the
# U+FEFF byte order mark a spreadsheet's "CSV UTF-8" export puts first, and errors still name "utf-8".
TEXT_ENCODING = "utf-8-sig"

# A character outside XML 1.0's Char production: a C0 control but tab, newline and carriage return,
# a surrogate, U+FFFE or U+FFFF. A scenario label names its violin or bar in an SVG figure.
NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _as_float_vector(values, name: str) -> np.ndarray:
    """values as a nonempty one-dimensional float64 array; anything else raises a ValidationError naming name."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must hold numbers only: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must contain at least one element")
    return arr


def as_probability_vector(values, name: str = "probabilities") -> np.ndarray:
    """Validate a 1-d sequence of probabilities and return it as float64.

    Values within DOMAIN_TOL of the unit interval are snapped to the nearest
    boundary; values further out raise ValidationError. Clamping of genuinely
    out-of-range predictions is a data-generation concern, never a scoring one.
    """
    arr = _as_float_vector(values, name)
    if not np.all(np.isfinite(arr)):
        idx = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValidationError(f"{name}[{idx}] is not finite: {float(arr[idx])!r}")
    out_of_range = (arr < -DOMAIN_TOL) | (arr > 1.0 + DOMAIN_TOL)
    if np.any(out_of_range):
        idx = int(np.flatnonzero(out_of_range)[0])
        raise ValidationError(
            f"{name}[{idx}] = {float(arr[idx])!r} lies outside [0, 1] by more than {DOMAIN_TOL}"
        )
    return np.clip(arr, 0.0, 1.0)


def as_outcome_vector(values, name: str = "outcomes") -> np.ndarray:
    """Validate a 1-d sequence of binary outcomes and return it as float64.

    Every element must equal 0 or 1 exactly.
    """
    arr = _as_float_vector(values, name)
    bad = ~((arr == 0.0) | (arr == 1.0))
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise ValidationError(f"{name}[{idx}] = {float(arr[idx])!r} is not a 0/1 outcome")
    return arr


def check_same_length(a: np.ndarray, b: np.ndarray, what: str = "vectors") -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"{what} have mismatched lengths: {a.shape[0]} vs {b.shape[0]}")


def probability_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Predictions p and true probabilities q, each checked by as_probability_vector, of one length."""
    pair = as_probability_vector(p, "predictions"), as_probability_vector(q, "true probabilities")
    check_same_length(*pair, "predictions/true probabilities")
    return pair


def is_integer(value) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that float() takes, and not a bool: NaN and +-inf are, 10**400 is not (it overflows)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_count(name: str, value) -> None:
    """Refuse, naming it, an integer count or size above MAX_COUNT."""
    if value > MAX_COUNT:
        raise ValidationError(f"{name} must be <= 2**53, got {shown(int(value))}")


def check_integers(*checks: tuple[str, object, int]) -> None:
    """The one check of a seed, count, size or index: refuse, naming it, the first (name, value, least) that is
    not an integer >= least (a bool is not one), or a count (least 1) above MAX_COUNT."""
    for name, value, least in checks:
        if not is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {shown(value)}")
        if value < least:
            raise ValidationError(f"{name} must be >= {least}, got {shown(int(value))}")
        if least == 1:
            check_count(name, value)


def shown(value) -> str:
    """repr(value) for an error message; it never raises, though repr of an int past Python's digit limit does."""
    try:
        return repr(value)
    except Exception:  # such an int, alone or in a tuple, whose items are then shown one by one
        name = type(value).__name__
        return f"({', '.join(map(shown, value))})" if isinstance(value, tuple) else f"an unprintable {name}"


def as_float(value, name: str) -> float:
    """value as a float if is_real takes it; anything else raises a ValidationError naming name."""
    if isinstance(value, (str, bytes)):
        raise ValidationError(f"{name} must be a number: got the string {value!r}")
    if not is_real(value):  # the repr of an integer too large for a float may exceed int's digit limit
        got = "an integer too large for a float" if is_integer(value) else repr(value)
        raise ValidationError(f"{name} must be a number: got {got}")
    return float(value)


def as_unit_scalar(value, name: str) -> float:
    """Validate a scalar probability in [0, 1] (with DOMAIN_TOL slack)."""
    x = as_float(value, name)
    if not np.isfinite(x):
        raise ValidationError(f"{name} is not finite: {x!r}")
    if x < -DOMAIN_TOL or x > 1.0 + DOMAIN_TOL:
        raise ValidationError(f"{name} = {x!r} lies outside [0, 1]")
    return min(max(x, 0.0), 1.0)


class CsvFormat(NamedTuple):
    """A CSV table format: its header, the type of each column and the rules its cells obey.

    A header matches when ``fold`` maps its cells to ``header``. A rule is
    ``(column, test, message)``: ``test`` maps the column's values, an array
    or a single number, to booleans, and ``message.format(cell)`` says why a
    cell fails it. read_float_csv parses rows into the format's _record: the
    ``integer_columns`` as uint8, which takes only cells whose value float()
    gives bit for bit, the other typed columns as float64. A column whose type
    is None is counted in each row but not parsed, kept or ruled: both readers
    return only the typed columns, and refuse a row with another field count.
    """

    header: tuple[str, ...]
    types: tuple[Callable | None, ...]
    rules: tuple[tuple[int, Callable, str], ...]
    fold: Callable[[str], str] = str
    integer_columns: tuple[int, ...] = ()

    @property
    def kept(self) -> tuple[int, ...]:
        """The typed columns, in order: those the readers parse, rule and return."""
        return tuple(column for column, kind in enumerate(self.types) if kind is not None)

    def selecting(self, *names: str) -> CsvFormat:
        """This format with every column but names untyped, and the rules of those columns dropped."""
        kept = {self.header.index(name) for name in names}
        return self._replace(
            types=tuple(kind if column in kept else None for column, kind in enumerate(self.types)),
            rules=tuple(rule for rule in self.rules if rule[0] in kept),
            integer_columns=tuple(column for column in self.integer_columns if column in kept),
        )


def names_undecodable_file(read):
    """Wrap a reader whose first argument is a path.

    Bytes the text encoding cannot decode then raise a ValidationError naming
    the file, which the command line reports with exit code 2.
    """

    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not readable as {exc.encoding} text: {exc.reason}") from None

    return checked


def _records(reader, path):
    """The records of a csv reader; a csv.Error (say, a cell over csv.field_size_limit()) names the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def _past_header(fh, path, fmt: CsvFormat):
    """A csv reader of fh, positioned after a header that matches fmt."""
    reader = csv.reader(fh)
    found = next(_records(reader, path), None)
    expected = ",".join(fmt.header)
    if found is None:
        raise ValidationError(f"{path}: file is empty, expected header {expected!r}")
    if [fmt.fold(cell) for cell in found] != list(fmt.header):
        raise ValidationError(f"{path}: line 1: expected header {expected!r}, got {','.join(found)!r}")
    return reader


@names_undecodable_file
def csv_rows(path, fmt: CsvFormat) -> list[list]:
    """The per-line reader: each data row of a CSV file, its typed cells converted by fmt.types.

    Empty and whitespace-only lines are skipped. The first line with another
    number of fields, a cell its type refuses, a cell that fails a rule or a
    cell longer than csv.field_size_limit() raises a ValidationError naming
    the file and line, as does a file with no data rows.
    """
    with open(path, newline="", encoding=TEXT_ENCODING) as fh:
        return _rows(_past_header(fh, path, fmt), path, fmt)


def _rows(reader, path, fmt: CsvFormat) -> list[list]:
    """The data rows of csv_rows, from a csv reader past the header."""
    rows, kept = [], fmt.kept
    types = [convert or str for convert in fmt.types]  # an untyped cell is kept as its text, then dropped
    for cells in _records(reader, path):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        where = f"{path}: line {reader.line_num}"
        if len(cells) != len(fmt.types):
            raise ValidationError(f"{where}: expected {len(fmt.types)} fields, got {len(cells)}")
        try:
            row = [convert(cell) for convert, cell in zip(types, cells)]
        except ValueError:
            raise ValidationError(f"{where}: non-numeric entry {cells!r}") from None
        for column, test, message in fmt.rules:
            if not test(row[column]):
                raise ValidationError(f"{where}: {message.format(cells[column])}")
        rows.append(row if len(kept) == len(row) else [row[column] for column in kept])
    if not rows:
        raise ValidationError(f"{path}: no data rows found")
    return rows


# Text is read and checked in chunks of this many characters; a longer body is parsed from the file.
_CHUNK = 1 << 20
# np.loadtxt decompresses a file whose name ends in one of these, and the reader reads plain text only.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


# np.loadtxt strips U+001C..U+001F from around a number, which float() refuses; the csv module reads a
# quote as opening a quoted cell, and before Python 3.11 refuses a NUL. A body holding one is read per line.
_MARKS = '\x1c\x1d\x1e\x1f"\0'


def _scan(chunk: str, run: int, limit: int) -> int:
    """The length of the run with no line break that ends chunk, given the run that ends the text before it.

    It is -1 if chunk holds one of _MARKS or a run longer than limit
    (csv.field_size_limit()), which may hold a cell the csv module refuses
    and np.loadtxt takes: the per-line reader then reads the file.
    """
    if any(mark in chunk for mark in _MARKS):
        return -1
    start = -run  # where the run began, counted from the start of chunk
    while True:
        # the last line break among the limit + 1 characters from start, if any, ends the run
        low, end = max(start, 0), start + limit + 1
        newline = chunk.rfind("\n", low, end)
        last = max(newline, chunk.rfind("\r", max(low, newline + 1), end))
        if end > len(chunk):
            return len(chunk) - (start if last < 0 else last + 1)
        if last < 0:
            return -1
        start = last + 1


@functools.lru_cache(maxsize=None)
def _record(fmt: CsvFormat) -> np.dtype:
    """The record np.loadtxt parses a row of fmt into: an 8-byte slot per column, the typed columns' first.

    A typed column is parsed into the first bytes of its slot, as uint8 if it
    is an integer column and as float64 otherwise. An untyped column is parsed
    as S1 (one byte), which is never read but makes numpy refuse a row of
    another width.
    """
    columns = range(len(fmt.types))
    slots = [*fmt.kept, *(column for column in columns if fmt.types[column] is None)]
    return np.dtype({
        "names": [f"c{column}" for column in columns],
        "formats": [
            np.uint8 if column in fmt.integer_columns else "S1" if fmt.types[column] is None else np.float64
            for column in columns
        ],
        "offsets": [8 * slots.index(column) for column in columns],
        "itemsize": 8 * len(columns),
    })


def _parse(source, skiprows: int, fmt: CsvFormat) -> np.ndarray:
    """np.loadtxt of source as a float64 table of fmt's typed columns, each row parsed into a _record.

    Once the integer columns are widened in place, the first slots of the
    records are the float table's rows, so no second table is built. If an
    integer column refuses a cell (uint8 refuses 1.0, 1e0 and -0;
    read_float_csv makes numpy 1.23 to 1.26 refuse 0.5 too), source is parsed
    once more with it as float64. Any other failure, a row of another width
    among them, raises numpy's ValueError.
    """
    options = dict(skiprows=skiprows, encoding="utf-8", delimiter=",", comments=None)
    try:
        records = np.loadtxt(source, dtype=_record(fmt), ndmin=1, **options)
    except ValueError as exc:
        # numpy's message for a cell its converter refuses (numpy/_core/src/multiarray/textreading/rows.c);
        # if numpy rewords it, a refused integer cell sends the file to the per-line reader instead.
        refused = re.fullmatch(r"could not convert string .* to \w+ at row \d+, column (\d+)\.", str(exc), re.S)
        if not refused or int(refused[1]) - 1 not in fmt.integer_columns:
            raise
        if not isinstance(source, str):
            source.seek(0)
        return _parse(source, skiprows, fmt._replace(integer_columns=()))
    kept = fmt.kept
    table = records.view(np.float64).reshape(len(records), len(fmt.types))
    for column in fmt.integer_columns:
        # numpy buffers an assignment whose source overlaps its destination.
        table[:, kept.index(column)] = records[f"c{column}"]
    return table[:, : len(kept)]


@names_undecodable_file
def read_float_csv(path, fmt: CsvFormat) -> np.ndarray:
    """A CSV file of numbers in fmt as a (rows, typed columns) float table.

    The text is decoded and checked here, one chunk at a time: _scan sends a
    body holding a mark or an overlong line to the per-line reader. Else
    np.loadtxt parses every row into fmt's _record in one pass (skipping empty
    lines): from that text if the body fits one chunk or the file cannot be
    named to numpy (a pipe, or a name numpy would decompress; a body over one
    chunk from its UTF-8 bytes), else from the absolute path (numpy reads
    scheme:// names as URLs) in its C file reader, as plain UTF-8 past the
    header (and any byte order mark). Each rule is applied to a whole column.
    If the parse or a rule fails, or there are no rows, the per-line reader
    names the first bad line, from that text if the file cannot be read again.
    """
    kept = fmt.kept
    with open(path, newline="", encoding=TEXT_ENCODING) as fh:
        header_lines = _past_header(fh, path, fmt).line_num
        whole = os.fsdecode(path).endswith(_COMPRESSED) or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        text = chunk = fh.read(-1 if whole else _CHUNK)
        large, run, limit = False, 0, csv.field_size_limit()
        while (run := _scan(chunk, run, limit)) >= 0 and (chunk := fh.read(_CHUNK)):
            large = True
    if run >= 0:
        if large:
            source = os.path.abspath(os.fsdecode(path))
        # A StringIO holds 4 bytes per character and UTF-8 bytes one per ASCII character,
        # but numpy parses a small StringIO about 10% faster.
        elif len(text) <= _CHUNK:
            source = io.StringIO(text, newline="")
        else:
            source = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="")
        with contextlib.suppress(ValueError), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # the per-line reader reports it
            if fmt.integer_columns:
                # numpy 1.23 to 1.26 parse a cell an integer parser refuses as a float and truncate it
                # (0.5 to 0, 256 to 0), with this warning; as an error it fails the cell like numpy 2 does.
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            table = _parse(source, header_lines if large else 0, fmt)
            if len(table) and all(test(table[:, kept.index(column)]).all() for column, test, _ in fmt.rules):
                return table
    if whole:
        # Blank lines stand in for the header, so line numbers count from the top of the file.
        return np.array(_rows(csv.reader(io.StringIO("\n" * header_lines + text, newline="")), path, fmt))
    return np.array(csv_rows(path, fmt))


def commit_text(path, text: str):
    """Write text to path (a str or path-like, returned) through a new temp file beside it, removed on failure."""
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")  # 21 characters: any target name fits
    # O_EXCL: the file is ours alone. The kernel applies the umask, which is process-wide:
    # reading it (by setting it) would change the mode of a file another thread creates meanwhile.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def commit_csv(path, rows):
    """Rows written by the csv module, which writes floats and ints as their repr, then committed."""
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerows(rows)
    return commit_text(path, buf.getvalue())
