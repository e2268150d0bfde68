"""The one CSV table format: cells, the atomic writer and the typed reader."""

from __future__ import annotations

import io
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shoulderseason.ingest import read_daily_summaries
from shoulderseason.tables import (
    cell,
    format_table,
    parse_date,
    parse_float,
    parse_int,
    parse_text,
    read_rows,
    write_atomic,
)

HEADER = "when,label,count,value,maybe"


def _optional_float(text: str, lineno: int, name: str) -> float | None:
    return None if text == "" else parse_float(text, lineno, name)


CONVERTERS = (parse_date, parse_text, parse_int, parse_float, _optional_float)

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
# A text cell holds no comma or line break and no padding, which the
# reader strips.
labels = st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), max_size=8
).filter(lambda s: s == s.strip())
rows = st.lists(
    st.tuples(st.dates(), labels, ints, floats, st.none() | floats), max_size=6
)


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@given(rows=rows)
def test_write_then_read_is_bit_exact(rows, tmp_path_factory) -> None:
    path = write_atomic(tmp_path_factory.mktemp("t") / "t.csv", format_table(HEADER, rows))
    with open(path, encoding="utf-8") as fh:
        got = read_rows(fh, HEADER, *CONVERTERS)
    assert len(got) == len(rows)
    for (day, label, count, value, maybe), want in zip(got, rows):
        assert (day, label, count) == want[:3]
        assert type(day) is date and type(count) is int and type(value) is float
        assert _same_bits(value, want[3])
        assert maybe is None if want[4] is None else _same_bits(maybe, want[4])
    assert not list(path.parent.glob("*.tmp"))


def test_cell_formats() -> None:
    assert [cell(v) for v in (60, np.int64(60), 60.0, np.float64(60), -0.0, 5e-324)] == [
        "60", "60", "60.0", "60.0", "-0.0", "5e-324"
    ]
    assert cell(date(2020, 2, 29)) == "2020-02-29"
    assert cell("Feb 14") == "Feb 14"
    assert cell(None) == ""
    with pytest.raises(TypeError, match="no table format for list"):
        cell([1])


def test_format_uses_newline_line_ends(tmp_path) -> None:
    text = format_table("a,b", [(1, None), ("x", 0.5)])
    assert text == "a,b\n1,\nx,0.5\n"
    path = write_atomic(tmp_path / "t.csv", format_table("a,b", [(1, None)]))
    assert path.read_bytes() == b"a,b\n1,\n"


def test_blank_lines_and_crlf_are_read() -> None:
    text = "\r\nwhen,label,count,value,maybe\r\n\r\n2020-01-02, a ,3,1.5,\r\n"
    assert read_rows(io.StringIO(text), HEADER, *CONVERTERS) == [
        (date(2020, 1, 2), "a", 3, 1.5, None)
    ]


def test_converter_count_must_match_header() -> None:
    with pytest.raises(TypeError, match="4 converters for 5 columns"):
        read_rows(io.StringIO(HEADER + "\n"), HEADER, *CONVERTERS[:4])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file: expected header 'when,label,count,value,maybe'"),
        ("\n\n", "empty file: expected header 'when,label,count,value,maybe'"),
        (
            "\nwhen,label,count\n",
            "line 2: expected header 'when,label,count,value,maybe', got 'when,label,count'",
        ),
        (HEADER + "\n\n2020-01-01,a,1,2.0\n", "line 3: expected 5 fields, got 4"),
        (HEADER + "\n2020-01-01,a,1,2.0,,\n", "line 2: expected 5 fields, got 6"),
        (HEADER + "\n2020-13-01,a,1,2.0,\n", "line 2: bad when '2020-13-01'"),
        (HEADER + "\n2020-01-01,a,1.0,2.0,\n", "line 2: bad count '1.0'"),
        (HEADER + "\n2020-01-01,a,1,x,\n", "line 2: bad value value 'x'"),
        (HEADER + "\n2020-01-01,a,1,nan,\n", "line 2: non-finite value value 'nan'"),
        (HEADER + "\n\n\n2020-01-01,a,1,2.0,-inf\n", "line 4: non-finite maybe value '-inf'"),
    ],
)
def test_reader_errors_name_the_line(text: str, message: str) -> None:
    with pytest.raises(ValueError) as exc_info:
        read_rows(io.StringIO(text), HEADER, *CONVERTERS)
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ("2020-01-01,1.0,2.0,25", "line 2: hours_present 25 out of range 0-24"),
        ("2020-01-01,1.0,2.0,x", "line 2: bad hours_present 'x'"),
        ("2020-02-30,1.0,2.0,24", "line 2: bad date '2020-02-30'"),
        ("2020-01-01,inf,2.0,24", "line 2: non-finite total_energy_mwh value 'inf'"),
        ("2020-01-01,1.0,two,24", "line 2: bad peak_demand_mw value 'two'"),
    ],
)
def test_daily_summary_errors_keep_their_wording(row: str, message: str) -> None:
    text = "date,total_energy_mwh,peak_demand_mw,hours_present\n" + row + "\n"
    with pytest.raises(ValueError) as exc_info:
        read_daily_summaries(io.StringIO(text))
    assert str(exc_info.value) == message


def test_parse_float_is_finite() -> None:
    assert math.copysign(1.0, parse_float("-0", 1, "v")) == -1.0
    with pytest.raises(ValueError, match="line 7: non-finite v value 'inf'"):
        parse_float("inf", 7, "v")
