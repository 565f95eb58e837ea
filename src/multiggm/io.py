"""CSV ingestion, report serialization, and atomic file output.

Reading.  A numeric CSV streams: no copy of the file's text is held, so
a parse needs little more memory than the array it returns.  Rows whose
cells are all whitespace are dropped.  ``csv.reader`` reads the file up to
the first remaining row, which is the header when ``float()`` rejects one
of its cells; so quoted names may hold commas or span lines.  The data
lines then go one at a time from the open file into ``np.loadtxt`` (comma
delimiter, ``"`` quotes, no comment character, so ``1,2 # note`` is still a
bad cell).  numpy's reader and ``float()`` both hand the digits to
CPython's correctly rounded string-to-double routine, so every cell parses
to the same bits either way.

Errors.  A file that cannot be opened or decoded as UTF-8 (a leading
byte-order mark is skipped), or that holds a cell longer than the ``csv``
module's field size limit, is a ``DataFormatError``.  When ``loadtxt``
raises, the file has no data row, or the header's width differs from the
data's, ``_scan_rows`` reads the file again and parses it cell by cell
with ``csv`` and ``float()``.  It raises the positioned
``DataFormatError`` (ragged row, non-numeric cell at row and column,
header width, empty file, header with no data) or, where the file is good,
returns its own parse: ``float()`` accepts cells numpy does not, such as
``1_000`` or non-ASCII digits.  The scan also takes, as each data line
goes by and before numpy parses it, the files numpy's reader could accept
where the scan does not: numbers padded with the separator controls
U+001C..U+001F, a quoted cell that spans lines, and a cell longer than the
``csv`` module's field size limit.  numpy never sees a file without data
rows, so it never warns.

Writing.  Every CSV is written one row at a time, each row formatted just
before it is written, so no copy of the file's text is held either.  CSV
numbers are written with 17 significant digits (``%.17g``, the same
CPython routine as ``format(x, ".17g")``) so every float round-trips
exactly.  Each row goes through one ``%`` template: a float matrix's is
built once, and a table's is cached by the row's cell types (``%.17g``
for floats, ``%s`` for anything else).  A data file's header row goes
through ``csv.writer``, so a name holding a comma or a quote is quoted and
reads back whole.  JSON uses Python's shortest-repr floats, which also
round-trip, and is strict (RFC 8259): a NaN or infinite float, which JSON
cannot spell, is written as ``null``.  All writes go through a temp file
plus rename; a file with no rows is one newline.  The temp file is created
with mode 0666 less the umask, as ``open()`` creates a file, so the renamed
output has the permissions any other new file of the process would have.
Every file is written as UTF-8 without a byte-order mark, the encoding
files are read in, whatever the locale's default.

Lanes.  Both directions are CPython number conversion under the
interpreter lock, so :func:`ingest_csv` parses its files in forked lanes
(:mod:`multiggm._lanes`) once they hold at least ``_LANE_MIN_BYTES`` in
all, each file whole in one lane.  A write is planned as one sequence of
rows over the files it writes, in order; from ``_LANE_MIN_CELLS`` cells in
all, it is cut into one contiguous run of about equal cells per lane, so a
cut falls between two files or inside one.  The rows are those of float
matrices and :class:`ColumnTable` s; any other table, and JSON, is
written whole by the caller.  Each lane formats its run with the same row
templates, into one part file per file it touches (the caller's lane
writes its whole files directly); the caller appends each file's parts in
order and renames the result into place, so every file is the one-lane
file, byte for byte.  The checks between read files (names, widths,
transforms) run in the caller in file order, so the error raised is the
one the one-lane loop raises first.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import shutil
from typing import Callable, NamedTuple

import numpy as np

from ._lanes import lane_count, map_in_lanes
from .core import MultiPopDataset
from .errors import DataFormatError, DimensionMismatchError

# U+001C..U+001F: whitespace to str.strip() and numpy's reader, not to float().
_SEPARATOR_CONTROLS = "\x1c\x1d\x1e\x1f"

# Break-even sizes for lanes (see _lanes), below which one lane is used:
# CSV bytes to parse and cells to format.  A second lane costs 5-10 ms
# (fork, the caller's copy-on-write faults, reaping), and a file cut inside
# one more copy of its later parts.  Timed on 2 cores (Python 3.11.7),
# medians of 60 alternating calls, two lanes / one: parsing two files of
# 0.40 / 0.61 / 0.81 / 1.01 / 1.21 MB in all took 1.59 / 1.47 / 0.96 / 0.75 /
# 0.72 times as long.  Writing one dense matrix of 14,884 / 19,881 / 24,964 /
# 29,929 / 40,000 cells, cut inside, took 1.04 / 1.07 / 0.87 / 0.80 / 0.84
# times as long; four matrices (two dense, two 5% nonzero, as estimates of
# a solve are mostly zeros, which format faster) of 14,884 / 20,164 /
# 24,964 / 30,276 / 40,000 cells in all, cut between files, 1.10 / 1.27 /
# 0.92 / 0.83 / 0.84.
_LANE_MIN_BYTES = 1_000_000
_LANE_MIN_CELLS = 25_000


def _parse_csv_file(path: str):
    """Rows of floats plus optional header names from one numeric CSV."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        parsed = _parse_lines(fh)
    return _scan_rows(path) if parsed is None else parsed


class _ScanInstead(Exception):
    """A data line that numpy's reader could take where ``_scan_rows`` does not."""


def _parse_lines(fh):
    """numpy's parse of an open CSV, or ``None`` where ``_scan_rows`` decides.

    The lines of the first row that holds a non-blank cell are kept until
    that row is known to be data or the header; the data lines then stream
    from the file into ``np.loadtxt``.
    """
    first_lines = []

    def tracked():
        for line in fh:
            first_lines.append(line)
            yield line

    for row in csv.reader(tracked()):
        if row and any(c.strip() for c in row):
            break
        first_lines.clear()
    else:
        return None
    header = None
    try:
        for cell in row:
            float(cell)
    except ValueError:
        header = [c.strip() for c in row]
        first_lines.clear()
    lines = _data_lines(itertools.chain(first_lines, fh))
    try:
        # Peek, so that numpy never sees (and warns about) a file with no data.
        first = next(lines)
        x = np.loadtxt(
            itertools.chain([first], lines),
            delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float,
        )
    except (StopIteration, _ScanInstead, ValueError):
        return None
    if header is not None and len(header) != x.shape[1]:
        return None
    return x, header


def _data_lines(lines):
    """The lines with a non-blank cell; raises :class:`_ScanInstead` at one
    numpy's reader could accept where ``_scan_rows`` rejects it.

    That is a line with a separator control, which numpy strips around a
    number and ``float()`` does not; an odd count of quotes, which leaves a
    quoted cell open across lines that dropping blank lines could cut into;
    or a cell longer than the ``csv`` module's field size limit.
    """
    limit = csv.field_size_limit()
    for line in lines:
        if not line.replace(",", "").strip():
            continue
        if (
            line.count('"') % 2
            or any(c in line for c in _SEPARATOR_CONTROLS)
            or (len(line) > limit and max(map(len, line.split(","))) > limit)
        ):
            raise _ScanInstead
        yield line


def _scan_rows(path: str):
    """Cell-by-cell parse of a CSV with ``csv`` and ``float()``.

    Raises the positioned ``DataFormatError`` for a bad file; returns the
    rows and header for a good one that numpy's reader did not take.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
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


def _size(path) -> int:
    try:
        return os.path.getsize(str(path))
    except OSError:  # _read_csv reports it
        return 0


def read_lanes(paths) -> int:
    """The lanes :func:`ingest_csv` parses ``paths`` in."""
    return lane_count(len(paths), sum(map(_size, paths)), _LANE_MIN_BYTES)


def ingest_csv(
    paths,
    center: bool = False,
    standardize: bool = False,
    first_difference: bool = False,
) -> MultiPopDataset:
    """Load one numeric CSV per population into a dataset.

    An initial non-numeric row is consumed as variable names; files that
    both have names must name the same columns.  Optional
    transforms, applied in order: consecutive-row differencing (n rows
    become n-1), column mean-centering, division by the column sample
    standard deviation (n-1 degrees of freedom).  Files
    of ``_LANE_MIN_BYTES`` or more in all are parsed in forked lanes; the
    dataset, or the error raised, is that of parsing them one by one.
    """
    paths = list(paths)
    mats = []
    names = None
    parsed = map_in_lanes(_read_csv, paths, read_lanes(paths))
    for k, (path, (x, header)) in enumerate(zip(paths, parsed)):
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
            sd = x.std(axis=0, ddof=1)
            if np.any(sd == 0):
                col = int(np.flatnonzero(sd == 0)[0]) + 1
                raise DataFormatError(f"{path}: column {col} is constant")
            x = x / sd
        mats.append(x)
    return MultiPopDataset(mats)


def _cell_format(cell_type) -> str:
    """A cell's ``%`` format: floats at 17 significant digits, anything else by ``str``.

    ``%.17g`` converts a numpy float through ``float()``, as
    ``format(float(x), ".17g")`` does.
    """
    return "%.17g" if issubclass(cell_type, (float, np.floating)) else "%s"


def _row_lines(rows):
    """CSV lines of ``rows``, each through one template cached by its cell types."""
    templates = {}
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join(map(_cell_format, types)) + "\n"
        yield template % tuple(row)


class ColumnTable:
    """A header row over equal-length columns, written as CSV rows.

    Rows are made as they are written: ``BLOCK`` rows of the columns are
    converted to Python numbers at a time.
    """

    BLOCK = 4096

    def __init__(self, header, columns):
        self.header = list(header)
        self.columns = list(columns)

    def __len__(self) -> int:
        """The rows below the header."""
        return len(self.columns[0])

    def __iter__(self):
        return self.rows(0, len(self))

    def rows(self, start: int, stop: int):
        """The header when ``start`` is 0, then rows ``start:stop`` below it."""
        if start == 0:
            yield self.header
        for first in range(start, stop, self.BLOCK):
            last = min(first + self.BLOCK, stop)
            yield from zip(*(c[first:last].tolist() for c in self.columns))


def write_csv_atomic(rows, path: str) -> None:
    """Write rows to CSV with 17-significant-digit floats, atomically.

    ``rows`` may be any iterable, a generator included; each row is
    formatted and written before the next is taken.  A large
    :class:`ColumnTable` is written in lanes (see :func:`write_files`).
    """
    _write([_job_file(rows, path)], lambda _: _atomic_write(path, _row_lines(rows)))


def write_json_atomic(obj, path: str) -> None:
    """Write ``obj`` as strict JSON, with every NaN or infinite float as ``null``."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, [text + "\n"])


def _finite_or_null(obj):
    """``obj`` with every non-finite float, in any list, tuple or dict value, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _new_temp(path: str) -> str:
    """Create an empty file with a random name next to ``path``; its name.

    ``O_EXCL`` makes sure it is new, and its mode is 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    return tmp


def _fill(tmp: str, chunks) -> None:
    """Write the text ``chunks`` one by one over the file ``tmp``, which exists."""
    with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_TRUNC), "w",
                   encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
        if not fh.tell():
            fh.write("\n")


def _atomic_write(path: str, chunks) -> None:
    """Write the text ``chunks`` one by one to a temp file, then rename it to ``path``.

    A file that would be empty gets one newline.
    """
    tmp = _new_temp(path)
    try:
        _fill(tmp, chunks)
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _matrix_lines(matrix):
    """A float matrix as CSV lines of 17-significant-digit numbers, one row at a time."""
    matrix = np.asarray(matrix, dtype=float)
    template = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return (template % tuple(row.tolist()) for row in matrix)


class _File(NamedTuple):
    """One CSV to write as rows that lanes may cut; ``lines(start, stop)``
    gives the text of rows ``start:stop``, with the header above row 0."""

    path: str
    rows: int
    width: int
    lines: Callable


def _matrix_file(matrix, path: str, header=None) -> _File:
    matrix = np.asarray(matrix, dtype=float)

    def lines(start, stop):
        head = [header] if header is not None and start == 0 else []
        return itertools.chain(head, _matrix_lines(matrix[start:stop]))

    rows, width = matrix.shape if matrix.ndim == 2 else (0, 0)
    return _File(path, rows, width, lines)


def _job_file(obj, path: str) -> _File:
    """The rows of a float matrix or a :class:`ColumnTable`; anything else
    has none, and is written whole.  A float cell prints the same through
    either writer's template, so a matrix's rows may go through
    :func:`_matrix_lines` whichever writer the job names."""
    if isinstance(obj, ColumnTable):
        return _File(path, len(obj), len(obj.header),
                     lambda start, stop: _row_lines(obj.rows(start, stop)))
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        return _matrix_file(obj, path)
    return _File(path, 0, 0, None)


def _runs(files, lanes: int) -> list:
    """Each lane's run of ``(file, start, stop)`` row pieces, in file order.

    The files' rows, one sequence in file order, are cut at the rows
    nearest to each ``1/lanes`` of their cells, so that equal files fall
    whole to the lanes when they divide evenly.  Files without cells
    go whole to the first lane.  Lanes that get no rows are dropped.
    """
    total = sum(f.rows * f.width for f in files)
    runs = [[] for _ in range(lanes)]
    before = 0
    for i, f in enumerate(files):
        if not f.rows * f.width:
            runs[0].append((i, 0, f.rows))
            continue
        # Where each cut falls in this file's rows, rounded half up, inside [0, rows].
        den = 2 * lanes * f.width
        cuts = [min(max((2 * (lane * total - lanes * before) + lanes * f.width) // den, 0),
                    f.rows) for lane in range(lanes + 1)]
        for lane in range(lanes):
            if cuts[lane] < cuts[lane + 1]:
                runs[lane].append((i, cuts[lane], cuts[lane + 1]))
        before += f.rows * f.width
    return [run for run in runs if run] or [[]]


def _write(files, whole=None) -> int:
    """Write ``files`` in lanes; the number of lanes.

    Each lane writes its run's pieces, each into a part file of its own,
    except that the caller's lane writes its whole files with
    ``whole(i)`` (by default a plain :func:`_atomic_write`).  The caller
    creates every part before any lane starts, then appends each file's
    parts in order and renames the result into place.  After an error no
    part is put in place, and none is left behind.
    """
    if whole is None:
        def whole(i):
            _atomic_write(files[i].path, files[i].lines(0, files[i].rows))
    lanes = lane_count(sum(f.rows for f in files if f.width),
                       sum(f.rows * f.width for f in files), _LANE_MIN_CELLS)
    runs = _runs(files, lanes)
    parts = {}
    try:
        for lane, run in enumerate(runs):
            for i, start, stop in run:
                if lane or (start, stop) != (0, files[i].rows):
                    parts[lane, i] = _new_temp(files[i].path)

        def write_run(lane):
            for i, start, stop in runs[lane]:
                if (lane, i) in parts:
                    _fill(parts[lane, i], files[i].lines(start, stop))
                else:
                    whole(i)

        for _ in map_in_lanes(write_run, range(len(runs)), len(runs)):
            pass
        for i, f in enumerate(files):
            pieces = [parts[lane, i] for lane in range(len(runs)) if (lane, i) in parts]
            if pieces:
                _join(pieces, f.path)
    finally:
        for part in parts.values():
            _remove(part)
    return len(runs)


def _join(parts, path: str) -> None:
    """Append ``parts[1:]`` to ``parts[0]`` and rename it to ``path``."""
    with open(parts[0], "ab") as out:
        for part in parts[1:]:
            with open(part, "rb") as fh:
                shutil.copyfileobj(fh, out)
    os.replace(parts[0], path)


def write_files(writer, jobs) -> int:
    """Write each ``(obj, path)`` job as ``writer(obj, path)`` does; the number of lanes.

    The rows of the float matrices and :class:`ColumnTable` s among the
    objects are one sequence in job order.  From ``_LANE_MIN_CELLS`` cells
    in all it is cut into contiguous runs of about equal cells, one per
    lane; a run may end inside a file or between two.  ``writer`` writes
    the caller's whole files and every object without rows; the rest are
    written from their rows, as the matching writer of this module
    writes them.
    """
    jobs = list(jobs)
    return _write([_job_file(obj, path) for obj, path in jobs], lambda i: writer(*jobs[i]))


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    _write([_matrix_file(matrix, path)])


def read_matrix_csv(path: str) -> np.ndarray:
    x, header = _read_csv(path)
    if header is not None:
        raise DataFormatError(f"{path}: matrix files must not carry headers")
    return x


def write_data_csv(matrix: np.ndarray, path: str, names=None) -> None:
    """A data matrix, with ``names`` as a header row quoted the ``csv`` way."""
    header = None
    if names is not None:
        text = io.StringIO()
        cells = (_cell_format(type(name)) % (name,) for name in names)
        csv.writer(text, lineterminator="\n").writerow(cells)
        header = text.getvalue()
    _write([_matrix_file(matrix, path, header)])
