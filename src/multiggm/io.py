"""CSV ingestion, report serialization, and atomic file output.

Reading.  A numeric CSV is read once into lines.  Rows whose cells are all
whitespace are dropped.  The first remaining row is the header when
``float()`` rejects one of its cells; it goes through ``csv.reader``, so
quoted names may hold commas.  The data lines go to ``np.loadtxt`` (comma
delimiter, ``"`` quotes, no comment character, so ``1,2 # note`` is still a
bad cell).  numpy's reader and ``float()`` both hand the digits to CPython's
correctly rounded string-to-double routine, so every cell parses to the same
bits either way.

Errors.  A file that cannot be opened or decoded as UTF-8, or that holds a
cell longer than the ``csv`` module's field size limit, is a
``DataFormatError``.  When ``loadtxt`` raises, or the header's width
differs from the data's, ``_scan_rows`` parses the lines cell by cell with
``csv`` and ``float()``.  It raises the positioned ``DataFormatError`` (ragged row,
non-numeric cell at row and column, header width, empty file, header with
no data) or, where the file is good, returns its own parse: ``float()``
accepts cells numpy does not, such as ``1_000`` or non-ASCII digits.  The
scan also takes, before numpy sees them, the files numpy's reader could
accept where the scan does not: numbers padded with the separator controls
U+001C..U+001F, a quoted cell that spans lines, and a cell longer than the
``csv`` module's field size limit.

Writing.  CSV numbers are written with 17 significant digits (``%.17g``,
the same CPython routine as ``format(x, ".17g")``) so every float
round-trips exactly; a float matrix is formatted through one row template.
A data file's header row goes through ``csv.writer``, so a name holding a
comma or a quote is quoted and reads back whole.  JSON uses Python's
shortest-repr floats, which also round-trip.  All writes go through a temp
file plus rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import numpy as np

from .core import MultiPopDataset
from .errors import DataFormatError, DimensionMismatchError

# U+001C..U+001F: whitespace to str.strip() and numpy's reader, not to float().
_SEPARATOR_CONTROLS = "\x1c\x1d\x1e\x1f"


def _parse_csv_file(path: str):
    """Rows of floats plus optional header names from one numeric CSV."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    start = 0
    for row in reader:
        if row and any(c.strip() for c in row):
            break
        start = reader.line_num
    else:
        return _scan_rows(path, lines)
    header = None
    try:
        for cell in row:
            float(cell)
    except ValueError:
        header = [c.strip() for c in row]
        start = reader.line_num
    data = [line for line in lines[start:] if line.replace(",", "").strip()]
    if not data or _reader_may_differ(data):
        return _scan_rows(path, lines)
    try:
        x = np.loadtxt(
            data, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float
        )
    except ValueError:
        return _scan_rows(path, lines)
    if header is not None and len(header) != x.shape[1]:
        return _scan_rows(path, lines)
    return x, header


def _reader_may_differ(data) -> bool:
    """Whether numpy's reader could accept data lines that ``_scan_rows`` rejects.

    That is a line with a separator control, which numpy strips around a
    number and ``float()`` does not; an odd count of quotes, which leaves a
    quoted cell open across lines that dropping blank lines could cut into;
    or a cell longer than the ``csv`` module's field size limit.
    """
    limit = csv.field_size_limit()
    return any(
        line.count('"') % 2
        or any(c in line for c in _SEPARATOR_CONTROLS)
        or (len(line) > limit and max(map(len, line.split(","))) > limit)
        for line in data
    )


def _scan_rows(path: str, lines):
    """Cell-by-cell parse of a CSV's lines with ``csv`` and ``float()``.

    Raises the positioned ``DataFormatError`` for a bad file; returns the
    rows and header for a good one that numpy's reader did not take.
    """
    raw = [row for row in csv.reader(lines) if row and any(c.strip() for c in row)]
    if not raw:
        raise DataFormatError(f"{path}: empty file")

    def try_floats(row):
        try:
            return [float(c) for c in row]
        except ValueError:
            return None

    header = None
    first = try_floats(raw[0])
    if first is None:
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        if not raw:
            raise DataFormatError(f"{path}: header but no data rows")

    width = len(raw[0])
    rows = []
    for r_idx, row in enumerate(raw):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: ragged row {r_idx + 1} has {len(row)} cells, expected {width}"
            )
        parsed = []
        for c_idx, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric cell at row {r_idx + 1}, column {c_idx + 1}: "
                    f"{cell!r}"
                ) from None
        rows.append(parsed)
    if header is not None and len(header) != width:
        raise DataFormatError(
            f"{path}: header has {len(header)} names for {width} columns"
        )
    return np.array(rows, dtype=float), header


def _read_csv(path):
    """:func:`_parse_csv_file`, with a file it cannot read or decode as a data error."""
    try:
        return _parse_csv_file(str(path))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def ingest_csv(
    paths,
    center: bool = False,
    standardize: bool = False,
    first_difference: bool = False,
    ddof: int = 1,
) -> MultiPopDataset:
    """Load one numeric CSV per population into a dataset.

    An initial non-numeric row is consumed as variable names.  Optional
    transforms, applied in order: consecutive-row differencing (n rows
    become n-1), column mean-centering, division by the column standard
    deviation (``ddof`` degrees of freedom, default the usual n-1).
    """
    mats = []
    names = None
    for k, path in enumerate(paths):
        x, header = _read_csv(path)
        if k == 0:
            names = header
        elif header is not None and names is not None and header != names:
            raise DataFormatError(f"{path}: variable names differ from first file")
        if mats and x.shape[1] != mats[0].shape[1]:
            raise DimensionMismatchError(
                f"{path}: {x.shape[1]} columns, expected {mats[0].shape[1]}"
            )
        if first_difference:
            if x.shape[0] < 3:
                raise DataFormatError(f"{path}: too few rows to difference")
            x = np.diff(x, axis=0)
        if center:
            x = x - x.mean(axis=0, keepdims=True)
        if standardize:
            sd = x.std(axis=0, ddof=ddof)
            if np.any(sd == 0):
                col = int(np.flatnonzero(sd == 0)[0]) + 1
                raise DataFormatError(f"{path}: column {col} is constant")
            x = x / sd
        mats.append(x)
    return MultiPopDataset(mats, variable_names=names)


def _format_cell(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def write_csv_atomic(rows, path: str) -> None:
    """Write rows to CSV with 17-significant-digit floats, atomically."""
    _atomic_write(
        path,
        "\n".join(",".join(_format_cell(c) for c in row) for row in rows) + "\n",
    )


def write_json_atomic(obj, path: str) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_rows(matrix) -> str:
    """A float matrix as CSV lines of 17-significant-digit numbers."""
    matrix = np.asarray(matrix, dtype=float)
    template = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return "".join([template % tuple(row.tolist()) for row in matrix])


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    _atomic_write(path, _format_rows(matrix) or "\n")


def read_matrix_csv(path: str) -> np.ndarray:
    x, header = _read_csv(path)
    if header is not None:
        raise DataFormatError(f"{path}: matrix files must not carry headers")
    return x


def write_data_csv(matrix: np.ndarray, path: str, names=None) -> None:
    """A data matrix, with ``names`` as a header row quoted the ``csv`` way."""
    text = _format_rows(matrix)
    if names is not None:
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(map(_format_cell, names))
        text = header.getvalue() + text
    _atomic_write(path, text or "\n")
