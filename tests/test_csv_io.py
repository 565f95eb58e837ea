"""CSV parsing and writing against the cell-by-cell oracles in ``oracles.py``.

The parser must give the oracle's header and bit-identical values on every
file the oracle accepts, and the oracle's exception and message on every
file it rejects, without a warning.  The writers must write the oracle's
bytes.  Both stream: their memory is bounded by a row, not by the file.
"""

import csv
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import multiggm.io
from multiggm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from multiggm.errors import DataFormatError
from multiggm.io import (
    _parse_csv_file,
    _read_csv,
    ingest_csv,
    write_csv_atomic,
    write_data_csv,
    write_json_atomic,
    write_matrix_csv,
)

from oracles import csv_text_oracle, data_csv_oracle, matrix_text_oracle, parse_csv_oracle

SPECIALS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
]
VALUES = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=False))
FORMATS = [repr, "%.17g".__mod__, "%.6e".__mod__, "%g".__mod__]
PADS = ["", " ", "\t", " \t "]
BLANK_LINES = ["", "   ", ",", ",,", " , \t"]
BAD_CELLS = ["oops", "1.2.3", "4 # note", "1e", "--1", "0x10", "n/a"]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("csv") / "table.csv")


def outcome(parse, path):
    """What a parser makes of a file: shape, value bits and header, or its error."""
    try:
        x, header = parse(path)
    except DataFormatError as exc:
        return "DataFormatError", str(exc)
    return x.shape, x.view(np.uint64).tolist(), header


def assert_same_parse(path):
    """The oracle's outcome, and the parser's, which must equal it and warn nothing."""
    expected = outcome(parse_csv_oracle, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert outcome(_parse_csv_file, path) == expected
    assert [str(w.message) for w in caught] == []
    return expected


@st.composite
def cell_texts(draw, value):
    text = draw(st.sampled_from(FORMATS))(value)
    left, right = draw(st.sampled_from(PADS)), draw(st.sampled_from(PADS))
    quoting = draw(st.sampled_from(["none", "none", "inside", "outside"]))
    if quoting == "inside":
        return f'"{left}{text}{right}"'
    if quoting == "outside":
        return f'{left}"{text}"{right}'
    return f"{left}{text}{right}"


@st.composite
def tables(draw, min_rows=1):
    """The lines of a numeric CSV, with an optional header, before blank lines."""
    n = draw(st.integers(min_rows, 6))
    p = draw(st.integers(1, 5))
    rows = [[draw(cell_texts(draw(VALUES))) for _ in range(p)] for _ in range(n)]
    header = None
    if draw(st.booleans()):
        header = [f"{draw(st.sampled_from(PADS))}x{j + 1}" for j in range(p)]
        if draw(st.booleans()):
            header[-1] = '"last, first"'
    return header, rows


@st.composite
def file_texts(draw, lines):
    """Join lines into a file: blank lines between, LF or CRLF, final newline or not."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def table_lines(header, rows):
    return ([",".join(header)] if header is not None else []) + [",".join(r) for r in rows]


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


class TestParseAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_header_and_bits(self, csv_path, data):
        header, rows = data.draw(tables())
        write_text(csv_path, data.draw(file_texts(table_lines(header, rows))))
        assert_same_parse(csv_path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_error_for_a_bad_row_or_cell(self, csv_path, data):
        header, rows = data.draw(tables(min_rows=2))
        p = len(rows[0])
        kinds = ["extra_cell", "bad_cell"] + (["missing_cell"] if p > 1 else [])
        kind = data.draw(st.sampled_from(kinds + (["extra_name"] if header else [])))
        # Without a header a bad cell in the first row would make it the header.
        r = data.draw(st.integers(0 if header or kind != "bad_cell" else 1, len(rows) - 1))
        if kind == "extra_cell":
            rows[r] = rows[r] + ["1.5"]
        elif kind == "missing_cell":
            rows[r] = rows[r][:-1]
        elif kind == "bad_cell":
            rows[r][data.draw(st.integers(0, p - 1))] = data.draw(st.sampled_from(BAD_CELLS))
        else:
            header = header + ["extra"]
        write_text(csv_path, data.draw(file_texts(table_lines(header, rows))))
        assert assert_same_parse(csv_path)[0] == "DataFormatError"


class TestParseFixedCases:
    @pytest.mark.parametrize("text, expected", [
        ("1_000,2\n3,4\n", [[1000.0, 2.0], [3.0, 4.0]]),
        ("١,2\n3,٤.5\n", [[1.0, 2.0], [3.0, 4.5]]),
        ("a,b\n\n 1 ,\t2\n,,\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    ])
    def test_accepted(self, tmp_path, text, expected):
        path = str(tmp_path / "t.csv")
        write_text(path, text)
        x, _ = _parse_csv_file(path)
        assert x.tolist() == expected
        assert_same_parse(path)

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3,4 # note\n", "non-numeric cell at row 2, column 2: '4 # note'"),
        ("", "empty file"),
        ("\n , \n", "empty file"),
        ("a,b\n,\n", "header but no data rows"),
        ("a,b,c\n1,2\n", "header has 3 names for 2 columns"),
        ("1,2\n3\n", "ragged row 2 has 1 cells, expected 2"),
        # numpy's reader strips U+001C..U+001F around a number; float() does not.
        ("1,2\n3,\x1c4\n", "non-numeric cell at row 2, column 2: '\\x1c4'"),
        # A quoted cell spanning lines keeps the comma-only line inside it.
        ('1,2\n"3\n,\n",4\n', "non-numeric cell at row 2, column 1: '3\\n,\\n'"),
    ])
    def test_rejected_with_the_positioned_message(self, tmp_path, text, message):
        path = str(tmp_path / "t.csv")
        write_text(path, text)
        with pytest.raises(DataFormatError) as exc:
            _parse_csv_file(path)
        assert str(exc.value) == f"{path}: {message}"
        assert assert_same_parse(path) == ("DataFormatError", str(exc.value))

    @pytest.mark.parametrize("text", [
        "a,b\n",  # header only
        "\n,\n a , b \n , ,\n",  # header only, after and before blank rows
        '"a\nb",c\n1,2\n',  # a quoted header over two lines
        '\n,,\n"a\n,\nb",c\n,\n1,2\n\n3,4\n',
        '"1\n",2\n3,4\n',  # a numeric first row over two lines
        "\x1f1,2\n3,4\n",  # separator controls in the first row,
        "a,b\n1,2\n3\x1c,4\n",  # in a data row,
        "a\x1d,b\n1,2\n",  # in the header,
        "\x1e,\x1f\n1,2\n",  # and as the only header cells
        "1,2\n\n,\n \t, \n3,4",  # blank and all-comma rows, no final newline
    ])
    def test_blank_rows_headers_and_controls(self, tmp_path, text):
        path = str(tmp_path / "t.csv")
        write_text(path, text)
        assert_same_parse(path)

    def test_cell_over_the_csv_field_limit_is_refused_as_before(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_text(path, "1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(csv.Error) as expected:
            parse_csv_oracle(path)
        with pytest.raises(csv.Error) as got:
            _parse_csv_file(path)
        assert str(got.value) == str(expected.value)

    def test_ordinary_file_does_not_reach_the_scan(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.csv")
        write_data_csv(np.arange(12.0).reshape(4, 3) / 7, path, ["a", "b", "c"])

        def refuse(path, lines):
            raise AssertionError("cell-by-cell scan ran on a well-formed file")

        monkeypatch.setattr(multiggm.io, "_scan_rows", refuse)
        x, header = _parse_csv_file(path)
        assert header == ["a", "b", "c"] and x.shape == (4, 3)


MATRICES = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6), elements=VALUES
)


NAMES = st.text(alphabet='ab ,"x1', min_size=1, max_size=6)
CELLS = st.one_of(
    VALUES, VALUES.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_), st.text(alphabet="ab x;", max_size=4),
    st.none(),
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestWritersAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(matrix=MATRICES)
    def test_write_matrix_csv_bytes(self, csv_path, matrix):
        # Both the cell-by-cell text and one whole-string row template.
        write_matrix_csv(matrix, csv_path)
        assert read_bytes(csv_path) == data_csv_oracle(matrix).encode()
        assert read_bytes(csv_path) == matrix_text_oracle(matrix).encode()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), matrix=MATRICES, named=st.booleans())
    def test_write_data_csv_bytes(self, csv_path, data, matrix, named):
        # Names may hold commas and quotes.
        names = None
        if named:
            names = data.draw(st.lists(NAMES, min_size=matrix.shape[1], max_size=matrix.shape[1]))
        write_data_csv(matrix, csv_path, names)
        assert read_bytes(csv_path) == data_csv_oracle(matrix, names).encode()

    @settings(max_examples=200, deadline=None)
    @given(
        matrix=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=VALUES),
        named=st.booleans(),
    )
    def test_read_back_bits(self, csv_path, matrix, named):
        # %.17g writes every NaN as "nan", so NaNs come back as numpy's NaN.
        expected = np.where(np.isnan(matrix), np.nan, matrix)
        names = [f"v{j + 1}" for j in range(matrix.shape[1])] if named else None
        for write in (lambda: write_matrix_csv(matrix, csv_path),
                      lambda: write_data_csv(matrix, csv_path, names)):
            write()
            x, header = _parse_csv_file(csv_path)
            assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))
        assert header == names


class TestStreamedWriters:
    """Tables written row by row against the whole-string text of ``oracles.py``."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(CELLS, max_size=5), max_size=6))
    def test_rows_of_mixed_cells_from_a_generator(self, csv_path, rows):
        write_csv_atomic((row for row in rows), csv_path)
        assert read_bytes(csv_path) == csv_text_oracle(rows).encode()

    def test_zero_rows(self, tmp_path):
        path = str(tmp_path / "t.csv")
        for write, expected in [
            (lambda: write_matrix_csv(np.empty((0, 3)), path), b"\n"),
            (lambda: write_data_csv(np.empty((0, 2)), path), b"\n"),
            (lambda: write_data_csv(np.empty((0, 2)), path, ['a,"b"', "c"]), b'"a,""b""",c\n'),
            (lambda: write_csv_atomic([], path), b"\n"),
            (lambda: write_csv_atomic(iter([[]]), path), b"\n"),
        ]:
            write()
            assert read_bytes(path) == expected


class TestFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask):
        # 0666 less the umask, as for any file the process creates.
        writers = {
            "matrix.csv": lambda path: write_matrix_csv(np.eye(2), path),
            "table.csv": lambda path: write_csv_atomic([["i", "p"], [1, 0.5]], path),
            "report.json": lambda path: write_json_atomic({"a": [1.0]}, path),
            "data.csv": lambda path: write_data_csv(np.eye(2), path, ["x", "y"]),
        }
        previous = os.umask(umask)
        try:
            for name, write in writers.items():
                write(str(tmp_path / name))
        finally:
            os.umask(previous)
        assert sorted(os.listdir(tmp_path)) == sorted(writers)
        for name in writers:
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask


class TestStreamedMemory:
    """tracemalloc peaks of the CSV writers and the reader at the sizes of
    the CLI benchmark.  Returning to whole-file strings multiplies them:
    writing a file's text as a row list, its join and its encoding, or
    reading the file's lines, costs several times the file's size (6.48 MB
    for the matrix file, 9.72 MB for the data file, 6.92 MB for the read)."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        rng = np.random.default_rng(20)
        directory = tmp_path_factory.mktemp("memory")
        return {
            "dense": rng.standard_normal((400, 400)),
            "data": rng.standard_normal((600, 400)),
            "names": [f"x{j + 1}" for j in range(400)],
            "matrix_path": str(directory / "estimate.csv"),
            "data_path": str(directory / "data.csv"),
        }

    @staticmethod
    def peak_mb(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_writers(self, files):
        # Measured: 0.04 MB (matrix) and 0.14 MB (data file), the same to
        # 0.003 MB over seeds and runs.
        peak = self.peak_mb(lambda: write_matrix_csv(files["dense"], files["matrix_path"]))
        assert peak < 0.5
        peak = self.peak_mb(
            lambda: write_data_csv(files["data"], files["data_path"], files["names"])
        )
        assert peak < 1.0

    def test_reader(self, files):
        # Measured: 2.09 MB, of which the result array is 1.92 MB.
        write_data_csv(files["data"], files["data_path"], files["names"])
        x = []
        peak = self.peak_mb(lambda: x.append(_read_csv(files["data_path"])[0]))
        assert np.array_equal(x[0], files["data"])
        assert peak < x[0].nbytes / 1e6 + 0.6


class TestTypedReadErrors:
    """Files the reader cannot decode or split are data errors, not tracebacks."""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe1,2\n3,4\n", b"1,2\n3," + b"4" * (csv.field_size_limit() + 1) + b"\n"],
        ids=["not-utf8", "cell-over-field-limit"],
    )
    def test_data_error_and_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        with pytest.raises(DataFormatError, match="cannot read"):
            ingest_csv([str(path)])
        code = main(["estimate", "--data", str(path), "--lam", "0.1", "--rho", "0.1",
                     "--out-dir", str(tmp_path / "out"), "-q"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: cannot read") and "Traceback" not in err


class TestQuotedNames:
    @pytest.mark.parametrize(
        "names", [["last, first", "b"], ['say "hi"', "x,y,z"], ["a", "b"]]
    )
    def test_names_read_back(self, tmp_path, names):
        path = tmp_path / "t.csv"
        matrix = np.arange(6.0).reshape(3, 2) / 7
        write_data_csv(matrix, str(path), names)
        dataset = ingest_csv([str(path)])
        assert list(dataset.variable_names) == names
        assert np.array_equal(dataset.data[0], matrix)
        header, rows = read_bytes(str(path)).split(b"\n", 1)
        assert rows == data_csv_oracle(matrix).encode()
        if names == ["a", "b"]:
            assert header == b"a,b"


class TestUtf8WhateverTheLocale:
    """Every file is read and written as UTF-8, also where the locale's
    encoding is ASCII.  Each case runs in a fresh interpreter under a C
    locale without UTF-8 mode, and under UTF-8 mode, with every ``open()``
    that would fall back on the locale's encoding made an error."""

    SCRIPT = (
        "import json, locale, sys\n"
        "import numpy as np\n"
        "from multiggm.cli import main\n"
        "from multiggm.io import write_data_csv\n"
        "d = sys.argv[1]\n"
        "x = np.random.default_rng(3).standard_normal((40, 2))\n"
        "write_data_csv(x, f'{d}/utf8.csv', ['caf\\u00e9', 'b'])\n"
        "with open(f'{d}/latin1.csv', 'wb') as fh:\n"
        "    fh.write(b'caf\\xe9,b\\n1,2\\n3,5\\n4,4\\n')\n"
        "for name, text in (('utf8', 'utf-8'), ('latin1', 'latin-1')):\n"
        "    with open(f'{d}/{name}.json', 'wb') as fh:\n"
        "        fh.write('{\"caf\\u00e9\": 1}'.encode(text))\n"
        "def estimate(path, *extra):\n"
        "    return main(['estimate', '--data', path, '--lam', '0.1', '--rho', '0.1',\n"
        "                 '--out-dir', f'{d}/out', '-q', *extra])\n"
        "with open(f'{d}/utf8.csv', 'rb') as fh:\n"
        "    header = fh.readline()\n"
        "print(json.dumps({\n"
        "    'encoding': 'utf-8' if sys.flags.utf8_mode else locale.nl_langinfo(locale.CODESET),\n"
        "    'header': header.hex(),\n"
        "    'utf8': estimate(f'{d}/utf8.csv'),\n"
        "    'latin1': estimate(f'{d}/latin1.csv'),\n"
        "    'configs': [estimate(f'{d}/utf8.csv', '--config', f'{d}/{name}.json')\n"
        "                for name in ('utf8', 'latin1')],\n"
        "}))\n"
    )

    @pytest.mark.parametrize("locale_env", [
        {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        {"PYTHONUTF8": "1"},
    ], ids=["C", "utf8-mode"])
    def test_utf8_header_reads_and_writes(self, tmp_path, locale_env):
        package_root = os.path.dirname(os.path.dirname(multiggm.io.__file__))
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG"))}
        env.update(locale_env, PYTHONPATH=package_root)
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", self.SCRIPT, str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout)
        if locale_env.get("LC_ALL") == "C":
            assert seen["encoding"].lower().replace("-", "") != "utf8"
        assert bytes.fromhex(seen["header"]) == "café,b\n".encode("utf-8")
        assert (seen["utf8"], seen["latin1"]) == (EXIT_OK, EXIT_DATA)
        # A non-ASCII key is read and named as unknown; bytes that are not
        # UTF-8 cannot be read: both are configuration errors.
        assert seen["configs"] == [EXIT_CONFIG, EXIT_CONFIG]
        assert "unknown key(s)" in result.stderr and "cannot read config" in result.stderr
        assert "Traceback" not in result.stderr
