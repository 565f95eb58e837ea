"""CSV parsing and writing against the cell-by-cell oracles in ``oracles.py``.

The parser must give the oracle's header and bit-identical values on every
file the oracle accepts, and the oracle's exception and message on every
file it rejects.  The writers must write the oracle's bytes.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import multiggm.io
from multiggm.cli import EXIT_DATA, main
from multiggm.errors import DataFormatError
from multiggm.io import _parse_csv_file, ingest_csv, write_data_csv, write_matrix_csv

from oracles import data_csv_oracle, parse_csv_oracle

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
    expected = outcome(parse_csv_oracle, path)
    assert outcome(_parse_csv_file, path) == expected
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


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestWritersAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(matrix=MATRICES)
    def test_write_matrix_csv_bytes(self, csv_path, matrix):
        write_matrix_csv(matrix, csv_path)
        assert read_bytes(csv_path) == data_csv_oracle(matrix).encode()

    @settings(max_examples=200, deadline=None)
    @given(matrix=MATRICES, named=st.booleans())
    def test_write_data_csv_bytes(self, csv_path, matrix, named):
        names = [f"v{j + 1}" for j in range(matrix.shape[1])] if named else None
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
