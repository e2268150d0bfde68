"""The chunked grid CSV reader against the row-by-row reference reader,
and the bound on its memory."""

from __future__ import annotations

import io
import tracemalloc
import warnings
from datetime import date, datetime, timedelta
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_read_grid_csv
from shoulderseason import ingest, thermal
from shoulderseason.thermal import (
    TemperatureGrid,
    grid_cuts,
    join_grid_parts,
    load_temperature_grid,
    read_grid_csv,
    read_grid_part,
)

HEADER = "lat,lon,date,t2m_c"


def _outcome(reader, text: str):
    try:
        return reader(io.StringIO(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_same_grid(got, want) -> None:
    assert np.array_equal(got.lats, want.lats)
    assert np.array_equal(got.lons, want.lons)
    assert got.times.dtype == want.times.dtype
    assert np.array_equal(got.times, want.times)
    values = got.values[:]
    assert np.array_equal(values, want.values, equal_nan=True)
    assert values.tobytes() == want.values.tobytes()


def _time_spellings(hourly: bool, micro: bool):
    if not hourly:
        return [lambda t: t.isoformat(), lambda t: t.strftime("%Y%m%d")]
    if micro:
        return [lambda t: t.isoformat(timespec="microseconds")]
    return [
        lambda t: t.isoformat(timespec="minutes"),
        lambda t: t.isoformat(sep=" ", timespec="seconds"),
        # Read only by the row-by-row rescan.
        lambda t: t.isoformat(timespec="hours"),
        lambda t: t.strftime("%Y%m%dT%H%M"),
    ]


_COORD_SPELLINGS = [repr, lambda x: f"{x:.4f}", lambda x: f"{x:e}"]
# Date pads that str.strip trims and a bytes field keeps, or that widen the
# field to 32 characters or more, which a bytes field cuts.
_DATE_PADS = ["\xa0", "\u2000", "\x1f", "wide"]


def _pad_date(draw, text: str) -> str:
    pad = draw(st.sampled_from(_DATE_PADS))
    if pad == "wide":
        return text.rjust(draw(st.integers(32, 40)))
    return draw(st.sampled_from([pad + text, text + pad]))


@st.composite
def grid_files(draw, signed_zero: bool = False):
    """A grid CSV with holes and assorted spellings, its rows time-major
    (by time, then cell), cell-major or shuffled. With signed_zero, the
    first lat is 0.0, spelled 0.0 or -0.0 row by row."""
    n_lat = draw(st.integers(1, 3))
    n_lon = draw(st.integers(1, 3))
    n_times = draw(st.integers(1, 4))
    hourly = draw(st.booleans())
    micro = hourly and draw(st.booleans())
    start = datetime(2020, 3, 1, 22) if hourly else date(2020, 2, 27)
    step = timedelta(hours=1, microseconds=draw(st.integers(0, 999_999)) if micro else 0)
    times = [start + i * (step if hourly else timedelta(days=1)) for i in range(n_times)]
    lats = [(0.0 if signed_zero else 30.0) + 0.25 * i for i in range(n_lat)]
    lons = [-98.0 + 0.25 * k for k in range(n_lon)]
    cells = [(t, la, lo) for t in times for la in lats for lo in lons]
    present = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    kept = [c for c, keep in zip(cells, present) if keep]
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    spell_time = _time_spellings(hourly, micro)
    odd_dates = draw(st.booleans())

    if kept and draw(st.integers(0, 4)) == 0:
        # An occasional repeated cell makes both readers raise.
        kept.insert(draw(st.integers(0, len(kept))), draw(st.sampled_from(kept)))
    order = draw(st.sampled_from(["time-major", "cell-major", "shuffled"]))
    if order == "cell-major":
        kept.sort(key=lambda cell: cell[1:])  # stable: each cell's times stay in order
    elif order == "shuffled":
        kept = draw(st.permutations(kept))
    rows = []
    for t, la, lo in kept:
        when = draw(st.sampled_from(spell_time))(t)
        if la == 0.0 and draw(st.booleans()):
            la = -0.0
        fields = [
            draw(st.sampled_from(_COORD_SPELLINGS))(la),
            draw(st.sampled_from(_COORD_SPELLINGS))(lo),
            _pad_date(draw, when) if odd_dates and draw(st.booleans()) else when,
            repr(draw(values)),
        ]
        pad = draw(st.sampled_from(["", " ", "\t", "  "]))
        rows.append(",".join(pad + f + draw(st.sampled_from(["", " "])) for f in fields))
    lines = [HEADER] + rows
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=150, deadline=None)
@given(text=grid_files(), chunk_lines=st.integers(1, 7))
def test_matches_reference_reader(text: str, chunk_lines: int) -> None:
    want = _outcome(reference_read_grid_csv, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
        got = _outcome(read_grid_csv, text)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_grid(got, want)


def _grid_bytes(grid: TemperatureGrid) -> list[bytes]:
    """The grid's axes, and each day slice of its values, as bytes."""
    days = [grid.values[i : i + 1].tobytes() for i in range(len(grid.times))]
    return [grid.lats.tobytes(), grid.lons.tobytes(), grid.times.tobytes(), *days]


@settings(max_examples=100, deadline=None)
@given(
    text=st.one_of(grid_files(), grid_files(signed_zero=True)),
    chunk_lines=st.integers(1, 7),
    block_bytes=st.integers(1, 64),
)
def test_split_read_equals_whole_read(
    tmp_path_factory, text: str, chunk_lines: int, block_bytes: int
) -> None:
    # Split at every line boundary, each part read as a forked reader would.
    path = tmp_path_factory.mktemp("split") / "grid.csv"
    path.write_text(text, encoding="utf-8", newline="")
    data = path.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
        mp.setattr(thermal, "GRID_BLOCK_BYTES", block_bytes)
        try:
            want = load_temperature_grid(path)
        except ValueError:
            want = None
        for split in [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]:
            try:
                head, tail = read_grid_part(path, 0, split), read_grid_part(path, split)
                got = join_grid_parts(head, tail).grid()
            except ValueError:
                assert want is None, split  # the whole read then raises its own error
                continue
            assert want is not None, split
            assert got.times.dtype == want.times.dtype
            assert _grid_bytes(got) == _grid_bytes(want), split


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(grid_files(), grid_files(signed_zero=True)), data=st.data())
def test_parts_read_equals_whole_read(tmp_path_factory, text: str, data) -> None:
    # Parts cut at any line boundaries: the first few read into one table,
    # as the process reads the parts it claims, the rest each on its own.
    path = tmp_path_factory.mktemp("parts") / "grid.csv"
    path.write_text(text, encoding="utf-8", newline="")
    data_bytes = path.read_bytes()
    feeds = [i + 1 for i, byte in enumerate(data_bytes[:-1]) if byte == ord("\n")]
    inner = data.draw(st.lists(st.sampled_from(feeds), unique=True)) if feeds else []
    cuts = [0, *sorted(inner), len(data_bytes)]
    front = data.draw(st.integers(0, len(cuts) - 1))
    try:
        want = load_temperature_grid(path)
    except ValueError:
        want = None
    try:
        head = None
        for start, stop in zip(cuts[:front], cuts[1 : front + 1]):
            head = read_grid_part(path, start, stop, head)
        tails = [read_grid_part(path, a, b) for a, b in zip(cuts[front:-1], cuts[front + 1 :])]
        if len(tails) > 1 and data.draw(st.booleans()):
            tails = [join_grid_parts(*tails)]  # joined where they were read, as a reader does
        got = join_grid_parts(*([] if head is None else [head]), *tails).grid()
    except ValueError:
        assert want is None, cuts  # the whole read then raises its own error
        return
    assert want is not None, cuts
    assert got.times.dtype == want.times.dtype
    assert _grid_bytes(got) == _grid_bytes(want), cuts


@pytest.mark.parametrize("head, tail", [("0.0", "-0.0"), ("-0.0", "0")])
def test_split_read_keeps_the_heads_signed_zero(tmp_path, head: str, tail: str) -> None:
    # The cell (0, -98) is spelled one way before the split and the other after it.
    rows = [f"{head},-98.0,2020-01-01,1.5", f"{tail},-98.0,2020-01-02,2.5"]
    path = tmp_path / "grid.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    split = len(HEADER) + len(rows[0]) + 2
    got = join_grid_parts(read_grid_part(path, 0, split), read_grid_part(path, split)).grid()
    want = load_temperature_grid(path)
    assert np.signbit(got.lats[0]) == head.startswith("-")
    assert _grid_bytes(got) == _grid_bytes(want)


@pytest.mark.parametrize("chunk_lines", [1, 2, 5])
@pytest.mark.parametrize("first, second", [("0.0", "-0.0"), ("-0.0", "0")])
def test_signed_zero_coordinates_share_a_slot(
    first: str, second: str, chunk_lines: int, monkeypatch
) -> None:
    # -0.0 and 0.0 name one lat or lon, as in the reference reader.
    rows = [
        f"{first},{second},2020-01-01,1.5",
        f"{second},{first},2020-01-02,2.5",
        f"1.0,{second},2020-01-01,3.5",
        f"{second},1.0,2020-01-01,4.5",
    ]
    text = "\n".join([HEADER, *rows]) + "\n"
    monkeypatch.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
    got, want = read_grid_csv(io.StringIO(text)), reference_read_grid_csv(io.StringIO(text))
    _assert_same_grid(got, want)
    assert (len(got.lats), len(got.lons)) == (2, 2)


def test_large_file_matches_reference() -> None:
    rng = np.random.default_rng(5)
    times = [date(2000, 1, 1) + timedelta(days=i) for i in range(2300)]
    rows = [
        f"{30.0 + 0.25 * j!r},{-98.0 + 0.25 * k!r},{t.isoformat()},{v!r}"
        for t in times
        for j in range(6)
        for k in range(5)
        if (v := float(rng.normal(15.0, 8.0))) > -5.0
    ]
    rng.shuffle(rows)
    text = "\n".join([HEADER, *rows]) + "\n"
    assert len(rows) > ingest.CSV_CHUNK_LINES
    want = reference_read_grid_csv(io.StringIO(text))
    _assert_same_grid(read_grid_csv(io.StringIO(text)), want)


def _write_cell_major(path, n_lat: int, n_lon: int, n_days: int) -> None:
    """A dense daily grid, one cell's whole series after another, as the
    benchmark worlds write it."""
    rng = np.random.default_rng(11)
    days = np.datetime_as_string(np.datetime64("1990-01-01") + np.arange(n_days)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        for i in range(n_lat):
            for j in range(n_lon):
                cell = f"{30.0 + 0.25 * i},{-100.0 + 0.25 * j},"
                temps = rng.normal(15.0, 8.0, n_days).tolist()
                fh.writelines(f"{cell}{d},{v:.4f}\n" for d, v in zip(days, temps))


def _peak_bytes(path) -> tuple[int, TemperatureGrid]:
    """The peak of traced allocation while reading the grid file, and the grid."""
    tracemalloc.start()
    try:
        grid = load_temperature_grid(path)
        return tracemalloc.get_traced_memory()[1], grid
    finally:
        tracemalloc.stop()


def test_memory_follows_the_grid_not_the_rows(tmp_path, monkeypatch) -> None:
    n_lat, n_lon, n_days, chunk_lines = 10, 10, 1500, 2048
    assert n_lat * n_lon * n_days >= 8 * chunk_lines
    assert chunk_lines > n_days  # the first chunk holds every day
    monkeypatch.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
    path = tmp_path / "grid.csv"
    _write_cell_major(path, n_lat, n_lon, n_days)
    first_chunk = tmp_path / "first_chunk.csv"
    with open(path, encoding="utf-8") as fh:
        first_chunk.write_text("".join(islice(fh, chunk_lines + 1)), encoding="utf-8")

    _peak_bytes(first_chunk)  # the process's first read allocates what stays for later ones
    one_chunk, _ = _peak_bytes(first_chunk)
    peak, grid = _peak_bytes(path)
    values = grid.values[:]
    assert values.shape == (n_days, n_lat, n_lon)
    # The bound, from the reader's storage: a column of time slots per
    # cell. A column is made as long as the time slots seen so far, and
    # grown only when a later chunk brings new times. The first chunk
    # brings every day here, so each column is made at its final length
    # and never grown, and the columns hold values.nbytes. Nothing else
    # grows with the grid but the time key table, which the first chunk
    # holds all of; everything else lives for one chunk: the peak of
    # reading the first chunk alone. That peak differs from chunk to chunk
    # with the cells and new times each holds (by 3 % here); the factor
    # 1.25 allows for that.
    bound = values.nbytes + 1.25 * one_chunk
    assert peak < bound, (peak, bound, values.nbytes, one_chunk)


OK = "30.0,-98.0,2020-01-01,10.0"

ERROR_CASES = {
    "wrong header": (
        ["lat,lon,time,t2m_c", OK],
        "line 1: expected header 'lat,lon,date,t2m_c', got 'lat,lon,time,t2m_c'",
    ),
    "empty file": ([], "empty file: expected header 'lat,lon,date,t2m_c'"),
    "blank lines only": (["", ""], "empty file: expected header 'lat,lon,date,t2m_c'"),
    "header only": ([HEADER], "grid file has no data rows"),
    "header and blank lines": ([HEADER, "", "", ""], "grid file has no data rows"),
    "three fields": ([HEADER, OK, "30.0,-98.0,2020-01-02"], "line 3: expected 4 fields, got 3"),
    "five fields": ([HEADER, OK + ",1"], "line 2: expected 4 fields, got 5"),
    "bad lat": ([HEADER, "north,-98.0,2020-01-01,1.0"], "line 2: bad lat value 'north'"),
    "empty lon": ([HEADER, "30.0, ,2020-01-01,1.0"], "line 2: bad lon value ''"),
    "bad t2m_c": ([HEADER, "30.0,-98.0,2020-01-01,1.0.0"], "line 2: bad t2m_c value '1.0.0'"),
    "nan lat": ([HEADER, "nan,-98.0,2020-01-01,1.0"], "line 2: non-finite lat value 'nan'"),
    "inf lon": ([HEADER, "30.0,-inf,2020-01-01,1.0"], "line 2: non-finite lon value '-inf'"),
    "overflowing t2m_c": (
        [HEADER, OK.replace("2020-01-01", "2020-01-02"), "30.0,-98.0,2020-01-01,1e400"],
        "line 3: non-finite t2m_c value '1e400'",
    ),
    "nan t2m_c": ([HEADER, "30.0,-98.0,2020-01-01, NaN "], "line 2: non-finite t2m_c value 'NaN'"),
    "bad date": ([HEADER, OK, "30.0,-98.0,2020-13-01,1.0"], "line 3: bad date '2020-13-01'"),
    "NUL in a date": (
        [HEADER, OK, "30.0,-98.0,2020-01\x00-02,1.0"],
        "line 3: bad date '2020-01\\x00-02'",
    ),
    "40-character bad date": (
        [HEADER, OK, "30.0,-98.0,2020-01-02-" + "0" * 29 + ",1.0"],
        "line 3: bad date '2020-01-02-" + "0" * 29 + "'",
    ),
    "bad hour": (
        [HEADER, "30.0,-98.0,2020-01-01T25:00,1.0"],
        "line 2: bad date '2020-01-01T25:00'",
    ),
    "UTC offsets": (
        [
            HEADER,
            "30.0,-98.0,2020-01-02T01:00+00:00,1.0",
            "30.0,-98.0,2020-01-01T23:00-06:00,2.0",
            "30.0,-98.0,2020-01-02T02:00+00:00,3.0",
        ],
        "line 2: bad date '2020-01-02T01:00+00:00'",
    ),
    "Z suffix": (
        [HEADER, "30.0,-98.0,2020-01-01T23:00Z,1.0"],
        "line 2: bad date '2020-01-01T23:00Z'",
    ),
    "mixed daily and hourly": (
        [HEADER, OK, "30.0,-98.0,2020-01-02T05:00,11.0"],
        "grid file mixes daily and hourly rows",
    ),
    "duplicate cell": (
        [HEADER, OK, "30.00,-98.0, 2020-01-01,11.0"],
        "duplicate grid entry for (30.0, -98.0, 2020-01-01)",
    ),
    "first repeated row wins": (
        [
            HEADER,
            "30.0,-98.0,2020-01-01T01:00,1.0",
            "30.5,-97.0,2020-01-01T02:00,2.0",
            "30.5,-97.0,2020-01-01 02:00:00,3.0",
            "30.0,-98.0,2020-01-01T01:00:00,4.0",
        ],
        "duplicate grid entry for (30.5, -97.0, 2020-01-01 02:00:00)",
    ),
    "whitespace-only line": ([HEADER, OK, "   "], "line 3: expected 4 fields, got 1"),
    "error after blank lines": (
        [HEADER, "", OK, "", "30.0,-98.0,2020-01-02,warm"],
        "line 5: bad t2m_c value 'warm'",
    ),
    "earlier line wins over earlier column": (
        [HEADER, OK, "30.0,-98.0,2020-01-02,x", "y,-98.0,2020-01-03,1.0"],
        "line 3: bad t2m_c value 'x'",
    ),
    "non-finite before unparsable": (
        [HEADER, "30.0,-98.0,2020-01-02,inf", "30.0,-98.0,2020-01-03,1;0"],
        "line 2: non-finite t2m_c value 'inf'",
    ),
    "bad date before non-finite": (
        [HEADER, "30.0,-98.0,2020-02-30,1.0", "30.0,nan,2020-01-03,1.0"],
        "line 2: bad date '2020-02-30'",
    ),
    "error in second chunk": (
        [HEADER] + [f"30.0,-98.0,2020-01-0{d},1.0" for d in range(1, 8)] + ["30.0"],
        "line 9: expected 4 fields, got 1",
    ),
    "duplicate across chunks": (
        [HEADER] + [f"30.0,-98.0,2020-01-0{d},1.0" for d in range(1, 8)] + [OK],
        "duplicate grid entry for (30.0, -98.0, 2020-01-01)",
    ),
}


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("case", ERROR_CASES, ids=list(ERROR_CASES))
def test_error_matches_reference(case: str, eol: str, monkeypatch) -> None:
    lines, message = ERROR_CASES[case]
    text = "".join(line + eol for line in lines)
    with pytest.raises(ValueError) as ref:
        reference_read_grid_csv(io.StringIO(text))
    assert str(ref.value) == message
    monkeypatch.setattr(ingest, "CSV_CHUNK_LINES", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as got:
            read_grid_csv(io.StringIO(text))
    assert str(got.value) == message


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("1_0,-98.0,2020-01-01,1.0", "line 3: bad lat value '1_0'"),
        ("30.0,-9_8,2020-01-01,1.0", "line 3: bad lon value '-9_8'"),
        ("30.0,-98.0,2020-01-01,١٢", "line 3: bad t2m_c value '١٢'"),
        ("30.0\r,-98.0,2020-01-01,1.0", "line 3: line break inside a row"),
        ("30.0,-98.0,2020-01-01,1.0\r\r\n", "line 3: line break inside a row"),
    ],
)
def test_narrower_grammar_names_the_line(row: str, message: str) -> None:
    lines = [HEADER, "31.0,-98.0,2020-01-01,1.0", row]
    reference_read_grid_csv(lines)  # the row-by-row reader accepts these rows
    with pytest.raises(ValueError) as got:
        read_grid_csv(lines)
    assert str(got.value) == message


@pytest.mark.parametrize(
    ("text", "split"),
    [
        ("", None),
        (HEADER, None),
        (HEADER + "\n", None),  # header only: its line feed ends the file
        (f"{HEADER}\r{OK}\r{OK}\r", None),  # no line feed at all
        (f"{HEADER}\n{OK}\n", None),  # the line feed past the middle ends the file
        (f"{HEADER}\n{OK}\n{OK}\n", len(HEADER) + len(OK) + 2),
        (f"{HEADER}\r\n{OK}\r\n{OK}", len(HEADER) + len(OK) + 4),
    ],
)
def test_a_small_grid_is_cut_past_the_first_line_feed_from_the_middle(
    tmp_path, text, split
) -> None:
    path = tmp_path / "grid.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert grid_cuts(path) == (None if split is None else [0, split, len(text)])


@pytest.mark.parametrize("part_bytes, max_parts", [(10, 256), (25, 256), (1, 3)])
def test_grid_cuts_follow_line_feeds_near_each_share(
    tmp_path, monkeypatch, part_bytes: int, max_parts: int
) -> None:
    monkeypatch.setattr(thermal, "GRID_PART_BYTES", part_bytes)
    monkeypatch.setattr(thermal, "GRID_MAX_PARTS", max_parts)
    text = "\n".join([HEADER, OK, OK + "   ", OK, "", OK + "\r", OK]) + "\n"
    path = tmp_path / "grid.csv"
    path.write_text(text, encoding="utf-8", newline="")
    cuts = grid_cuts(path)
    size = len(text)
    n = min(max(2, -(-size // part_bytes)), max_parts)
    # Each cut is past the first line feed at or after its share of the
    # bytes, or after the cut before it, so no part is empty.
    want, at = [0], 0
    for k in range(1, n):
        at = text.find("\n", max(size * k // n, want[-1])) + 1
        if not 0 < at < size:
            break
        want.append(at)
    assert cuts == [*want, size]
    assert len(cuts) - 1 <= max_parts
    assert all(text[cut - 1] == "\n" for cut in cuts[1:])


def test_grid_cuts_leave_a_raster_and_a_missing_file_whole(tmp_path) -> None:
    np.save(tmp_path / "grid.npy", np.zeros((1, 1, 1)))
    assert grid_cuts(tmp_path / "grid.npy") is None
    assert grid_cuts(tmp_path / "missing.csv") is None
