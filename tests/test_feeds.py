"""The columnar feed parsers, netting, daily aggregation and adequacy period
selection against the row-by-row references in oracles.py."""

from __future__ import annotations

import importlib.util
import io
import math
import sys
import tracemalloc
import warnings
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shoulderseason import adequacy, ingest
from shoulderseason.ingest import FUEL_MIX_HEADER, LOAD_HEADER, OUTAGE_HEADER


def _reference_fuel_mix(source) -> dict[datetime, float]:
    """The reference parser's samples, as hourly means."""
    return oracles.reference_hourly_mix(oracles.reference_parse_fuel_mix(source))


PARSERS = {
    "load": (ingest.parse_hourly_load, oracles.reference_parse_hourly_load),
    "fuel_mix": (ingest.parse_fuel_mix, _reference_fuel_mix),
    "outages": (ingest.parse_outages, oracles.reference_parse_outages),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _chunked(chunk_lines: int, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
        return _outcome(fn, *args)


def _bits(value: float | None) -> str:
    """Tells every float apart, -0.0 from 0.0 too; None reads as NaN."""
    return "nan" if value is None or math.isnan(value) else repr(float(value))


def _record_rows(feed: str, records) -> list[tuple]:
    if feed == "load":
        return [(r.timestamp, _bits(r.load_mw)) for r in records]
    if feed == "fuel_mix":
        return [(hour, _bits(mean)) for hour, mean in records.items()]
    return [
        (r.timestamp, _bits(r.outage_mw), _bits(r.telemetered_output_mw)) for r in records
    ]


def _table_rows(table) -> list[tuple]:
    columns = [getattr(table, name) for name in vars(table)]
    time_unit = "us" if isinstance(table, ingest.Outages) else "h"
    assert columns[0].dtype == np.dtype(f"datetime64[{time_unit}]")
    assert all(c.dtype == np.float64 and len(c) == len(table) for c in columns[1:])
    return [
        (ts, *map(_bits, values))
        for ts, *values in zip(*(c.tolist() for c in columns))
    ]


def _daily_rows(summaries) -> list[tuple]:
    """The rows of a reference summary list, or of the days with data of a DailyLoad."""
    if isinstance(summaries, ingest.DailyLoad):
        p = summaries.present
        columns = (c[p].tolist() for c in summaries.columns)
        summaries = map(oracles.DailyLoadRecord._make, zip(summaries.days[p].tolist(), *columns))
    return [
        (s.day, _bits(s.total_energy_mwh), _bits(s.peak_demand_mw), s.hours_present)
        for s in summaries
    ]


def test_oracles_load_outside_sys_modules() -> None:
    # perfbench/verify.py loads the oracles this way.
    spec = importlib.util.spec_from_file_location("oracles_copy", Path(oracles.__file__))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.reference_parse_outages(["timestamp,outage_mw,telemetered_output_mw"]) == []


# -- generated feed files -------------------------------------------------------

_MW = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False, width=64),
    # Values whose sums round, so that the order of additions shows.
    st.builds(lambda n, d: n / d, st.integers(0, 10**6), st.sampled_from([3, 7, 10, 13])),
    st.sampled_from([0.0, -0.0, 1e-300]),
)
_SPELLINGS = [repr, lambda x: f"{x:.3f}", lambda x: f"{x:e}"]
_MW_TEXT = st.one_of(
    st.builds(lambda x, spell: spell(x), _MW, st.sampled_from(_SPELLINGS)),
    st.sampled_from(["-0", "0", "+1.5", "7."]),
)
_TIMESTAMP_SPELLINGS = [
    lambda ts: ts.isoformat(timespec="minutes"),
    lambda ts: ts.isoformat(sep=" ", timespec="seconds"),
    lambda ts: ts.isoformat(timespec="milliseconds"),
    lambda ts: ts.isoformat(timespec="microseconds"),
    lambda ts: ts.date().isoformat() if ts.hour == ts.minute == 0 else ts.isoformat(),
]
_BAD_TIMESTAMPS = [
    "2022-01-01T00:05",
    "2022-01-01T00:15:30",
    "2022-13-01T00:00",
    "2022-01-01T24:00",
    "0000-01-01T00:00",
    "",
]
_BAD_MW = ["-1", "nan", "inf", "1e400", "x", ""]


@st.composite
def _render(draw, header: str, rows: list[list[str]], bad: list[list[str]]) -> str:
    """CSV text of the rows, now and then with one defect, with blank lines,
    padded fields and either line ending."""
    rows = [list(r) for r in rows]
    defect = draw(st.sampled_from(["none", "none", "none", "repeat", "swap", "field"]))
    if rows and defect == "repeat":
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(i + 1, len(rows))), list(rows[i]))
    elif len(rows) > 1 and defect == "swap":
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[i], rows[j] = rows[j], rows[i]
    elif rows and defect == "field":
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, len(bad) - 1))
        if bad[k]:
            rows[i][k] = draw(st.sampled_from(bad[k]))
    pads = st.sampled_from(["", "", " ", "\t"])
    lines = [header] + [",".join(draw(pads) + f + draw(pads) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@st.composite
def load_files(draw) -> str:
    """Partial days of hourly load, date in the extended or basic spelling,
    hour spelled with or without a zero."""
    start = date(2019, 12, 30) + timedelta(days=draw(st.integers(0, 3)))
    rows = []
    for d in range(draw(st.integers(0, 3))):
        day = start + timedelta(days=d)
        for h in sorted(draw(st.sets(st.integers(0, 23), min_size=1, max_size=24))):
            # The basic spelling is read only by the row-by-row rescan.
            spelled = draw(st.sampled_from([day.isoformat(), day.strftime("%Y%m%d")]))
            hour = draw(st.sampled_from([str(h), f"{h:02d}"]))
            rows.append([spelled, hour, draw(_MW_TEXT)])
    bad = [["2020-13-01", "01/02/2020", ""], ["24", "-1", "noon", "1.5", ""], _BAD_MW]
    return draw(_render(LOAD_HEADER, rows, bad))


def _quarter_hours(draw, start: datetime, n_hours: int) -> list[datetime]:
    """1-4 samples in each of n_hours hours."""
    stamps = []
    for h in range(n_hours):
        quarters = sorted(draw(st.sets(st.sampled_from([0, 15, 30, 45]), min_size=1)))
        stamps += [start + timedelta(hours=h, minutes=q) for q in quarters]
    return stamps


@st.composite
def fuel_mix_files(draw, gaps: bool = False) -> str:
    """1-4 samples in each of up to 4 consecutive hours, or, with gaps, in
    up to 8 of 13 hours."""
    if gaps:
        hours = sorted(draw(st.sets(st.integers(0, 12), max_size=8)))
    else:
        hours = range(draw(st.integers(0, 4)))
    start = datetime(2021, 12, 31, 22)
    stamps = [ts for h in hours for ts in _quarter_hours(draw, start + timedelta(hours=h), 1)]
    rows = [
        [draw(st.sampled_from(_TIMESTAMP_SPELLINGS))(ts), *(draw(_MW_TEXT) for _ in range(4))]
        for ts in stamps
    ]
    return draw(_render(FUEL_MIX_HEADER, rows, [_BAD_TIMESTAMPS, *[_BAD_MW] * 4]))


@st.composite
def outage_files(draw) -> str:
    stamps = _quarter_hours(draw, datetime(2021, 12, 31, 22), draw(st.integers(0, 4)))
    rows = [
        [
            draw(st.sampled_from(_TIMESTAMP_SPELLINGS))(ts),
            draw(_MW_TEXT),
            draw(st.one_of(_MW_TEXT, st.just(""))),
        ]
        for ts in stamps
    ]
    return draw(_render(OUTAGE_HEADER, rows, [_BAD_TIMESTAMPS, _BAD_MW, _BAD_MW[:-1]]))


FILES = {"load": load_files(), "fuel_mix": fuel_mix_files(), "outages": outage_files()}


@pytest.mark.parametrize("feed", list(FILES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), chunk_lines=st.integers(1, 7))
def test_parser_matches_reference(feed: str, data, chunk_lines: int) -> None:
    text = data.draw(FILES[feed])
    parse, reference = PARSERS[feed]
    want = _outcome(reference, io.StringIO(text))
    got = _chunked(chunk_lines, parse, io.StringIO(text))
    if isinstance(want, str):
        assert got == want
        return
    assert _table_rows(got) == _record_rows(feed, want)
    if feed == "load":
        assert _daily_rows(ingest.aggregate_daily(got)) == _daily_rows(
            oracles.reference_aggregate_daily(want)
        )


def test_load_across_the_real_chunk_boundary() -> None:
    rng = np.random.default_rng(9)
    days = [date(2000, 1, 1) + timedelta(days=i) for i in range(2800)]
    rows = [
        f"{d.isoformat()},{h},{float(v)!r}"
        for d in days
        for h, v in enumerate(rng.uniform(20_000.0, 70_000.0, 24))
        if h % 7 or d.day != 3  # partial days
    ]
    text = "\n".join([LOAD_HEADER, *rows]) + "\n"
    assert len(rows) > ingest.CSV_CHUNK_LINES
    want = oracles.reference_parse_hourly_load(io.StringIO(text))
    got = ingest.parse_hourly_load(io.StringIO(text))
    assert _table_rows(got) == _record_rows("load", want)
    assert _daily_rows(ingest.aggregate_daily(got)) == _daily_rows(
        oracles.reference_aggregate_daily(want)
    )


def test_all_negative_zero_day_matches_reference() -> None:
    rows = [f"2020-01-01,{h},-0" for h in range(24)] + ["2020-01-02,3,-0.0"]
    lines = [LOAD_HEADER, *rows]
    want = oracles.reference_aggregate_daily(oracles.reference_parse_hourly_load(lines))
    got = ingest.aggregate_daily(ingest.parse_hourly_load(lines))
    assert _daily_rows(got) == _daily_rows(want)
    assert _bits(got.peak_demand_mw[0]) == "0.0"


# -- netting ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_net_non_thermal_matches_reference(data) -> None:
    start = datetime(2022, 6, 1, 20)
    load_hours = sorted(data.draw(st.sets(st.integers(0, 30), max_size=12)))
    loads = [(start + timedelta(hours=h), data.draw(_MW)) for h in load_hours]
    mix_hours = set(load_hours) | data.draw(st.sets(st.integers(0, 30), max_size=4))
    if mix_hours and data.draw(st.integers(0, 4)) == 0:
        mix_hours.discard(data.draw(st.sampled_from(sorted(mix_hours))))
    mix = []
    for h in sorted(mix_hours):
        for ts in _quarter_hours(data.draw, start + timedelta(hours=h), 1):
            mix.append((ts, *(data.draw(_MW) for _ in range(4))))

    want = _outcome(
        oracles.reference_net_non_thermal,
        [oracles.HourlyLoadRecord(*row) for row in loads],
        [oracles.FuelMixRecord(*row) for row in mix],
    )
    hourly = ingest.HourlyLoad(
        np.array([t for t, _ in loads], "datetime64[h]"), np.array([v for _, v in loads])
    )
    # The hourly table as the reader folds it from the samples' text, whose
    # repr floats keep every bit.
    rows = (",".join([ts.isoformat(), *map(repr, mw)]) for ts, *mw in mix)
    table = ingest.parse_fuel_mix([FUEL_MIX_HEADER, *rows])
    got = _outcome(ingest.net_non_thermal, hourly, table)
    if isinstance(want, str):
        assert got == want
        return
    assert _table_rows(got) == _record_rows("load", want)
    assert _daily_rows(ingest.aggregate_daily(got)) == _daily_rows(
        oracles.reference_aggregate_daily(want)
    )


# -- adequacy periods ---------------------------------------------------------

_DAY0 = date(2021, 12, 28)


@st.composite
def _periods(draw) -> list[tuple[date, date]]:
    """1-3 pooled closed ranges, possibly overlapping or outside the data."""
    ranges = []
    for _ in range(draw(st.integers(1, 3))):
        lo = _DAY0 + timedelta(days=draw(st.integers(-3, 12)))
        ranges.append((lo, lo + timedelta(days=draw(st.integers(0, 5)))))
    return ranges


def _mw_column(rng: np.random.Generator, n: int, zeros: bool) -> np.ndarray:
    if zeros:  # only zeros of either sign, where max() keeps the first one
        return rng.choice([0.0, -0.0], n)
    # Thirds, sevenths and thirteenths round when summed, so the order of
    # additions shows in the last bits.
    return rng.integers(0, 10**6, n) / rng.choice([3.0, 7.0, 10.0, 13.0], n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_adequacy_matches_reference(data) -> None:
    first, stride = data.draw(st.integers(0, 96 * 4)), data.draw(st.integers(1, 3))
    steps = range(first, min(first + stride * data.draw(st.integers(0, 400)), 96 * 10), stride)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    zeros = data.draw(st.integers(0, 4)) == 0
    start = np.datetime64(_DAY0, "us")
    outages = ingest.Outages(
        start + np.array(steps, np.int64) * np.timedelta64(15, "m"),
        _mw_column(rng, len(steps), zeros),
        np.where(rng.random(len(steps)) < 0.3, np.nan, _mw_column(rng, len(steps), zeros)),
    )
    records = [
        oracles.OutageRecord(ts, outage, None if math.isnan(telem) else telem)
        for ts, outage, telem in zip(
            outages.timestamps.tolist(),
            outages.outage_mw.tolist(),
            outages.telemetered_output_mw.tolist(),
        )
    ]
    period = data.draw(_periods())
    bin_mw = data.draw(st.sampled_from([250.0, 1000.0, 1234.5]))

    want = _outcome(oracles.reference_average_outages, records, period, "period")
    got = _outcome(adequacy.average_outages, outages, period, "period")
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.label, got.start, got.end, got.n_records) == (
            want.label, want.start, want.end, want.n_records
        )
        assert _bits(got.mean_outage_gw) == _bits(want.mean_outage_gw)

    want = _outcome(oracles.reference_generation_histogram, records, period, bin_mw, 5e5)
    got = _outcome(adequacy.generation_histogram, outages, period, bin_mw, 5e5)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.counts == want.counts
        assert list(map(_bits, got.bin_edges)) == list(map(_bits, want.bin_edges))
        assert _bits(got.max_output_mw) == _bits(want.max_output_mw)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), unit=st.sampled_from(["h", "us"]))
def test_period_mask_matches_reference(data, unit: str) -> None:
    # Strictly increasing times around the year end after _DAY0, on steps of
    # an hour, or of 1 us to 1 day; either way some fall on midnight.
    micros = [1, 15 * 60 * 10**6, 3600 * 10**6, 86400 * 10**6, 7_777_777_777]
    step = np.timedelta64(1 if unit == "h" else data.draw(st.sampled_from(micros)), unit)
    offsets = sorted(data.draw(st.sets(st.integers(-200, 600), max_size=60)))
    times = np.datetime64(_DAY0, unit) + np.array(offsets, np.int64) * step
    period = data.draw(_periods())
    got = adequacy.period_mask(times, period)
    assert got.dtype == bool
    assert got.tolist() == oracles.reference_period_mask(times, period).tolist()


def test_period_mask_needs_a_range() -> None:
    with pytest.raises(ValueError, match="period has no date ranges"):
        adequacy.period_mask(np.array([], "datetime64[h]"), [])


# -- malformed input --------------------------------------------------------------


def _load_rows(n: int) -> list[str]:
    return [f"2020-01-01,{h},{100 + h}" for h in range(n)]


def _mix_rows(n: int) -> list[str]:
    return [f"2022-01-01T00:{15 * q:02d},1,0,0,0" for q in range(n)]


def _outage_rows(n: int) -> list[str]:
    return [f"2022-01-01T00:{15 * q:02d},5000,60000" for q in range(n)]


# With 4-line chunks, lines 2-5 form the first chunk and line 6 starts the next.
ERROR_CASES = {
    "load wrong header": (
        "load",
        ["day,hour,mw", "2020-01-01,0,1"],
        "line 1: expected header 'date,hour,load_mw', got 'day,hour,mw'",
    ),
    "load empty file": ("load", [], "empty file: expected header 'date,hour,load_mw'"),
    "load two fields": ("load", [LOAD_HEADER, "2020-01-01,0"], "line 2: expected 3 fields, got 2"),
    "load bad date": ("load", [LOAD_HEADER, "01/02/2020,0,1"], "line 2: bad date '01/02/2020'"),
    "load bad hour": ("load", [LOAD_HEADER, "2020-01-01,noon,1"], "line 2: bad hour 'noon'"),
    "load hour out of range": (
        "load",
        [LOAD_HEADER, "2020-01-01,24,1"],
        "line 2: hour 24 out of range 0-23",
    ),
    "load negative hour": (
        "load",
        [LOAD_HEADER, "2020-01-01,5,1", "2020-01-02,-1,1"],
        "line 3: hour -1 out of range 0-23",
    ),
    "load huge hour": (
        "load",
        [LOAD_HEADER, "2020-01-01,99999999999999999999,1"],
        "line 2: hour 99999999999999999999 out of range 0-23",
    ),
    "load negative": (
        "load",
        [LOAD_HEADER, "2020-01-01,0,100", "2020-01-01,1,-5"],
        "line 3: negative load '-5'",
    ),
    "load nan": (
        "load",
        [LOAD_HEADER, "2020-01-01,0, NaN "],
        "line 2: non-finite load_mw value 'NaN'",
    ),
    "load overflow": (
        "load",
        [LOAD_HEADER, "2020-01-01,0,1e400"],
        "line 2: non-finite load_mw value '1e400'",
    ),
    "load duplicate across chunks": (
        "load",
        [LOAD_HEADER, *_load_rows(4), "2020-01-01,3,1"],
        "line 6: duplicate timestamp 2020-01-01T03:00:00",
    ),
    "load decreasing across chunks": (
        "load",
        [LOAD_HEADER, *_load_rows(4), "2020-01-01,1,1"],
        "line 6: timestamps not increasing (2020-01-01T01:00:00 after 2020-01-01T03:00:00)",
    ),
    "load decreasing across days": (
        "load",
        [LOAD_HEADER, "2020-01-02,0,100", "2020-01-01,23,101"],
        "line 3: timestamps not increasing (2020-01-01T23:00:00 after 2020-01-02T00:00:00)",
    ),
    "load earlier line wins": (
        "load",
        [LOAD_HEADER, "2020-01-01,0,1", "2020-01-01,0,2", "2020-01-01,1,nan"],
        "line 3: duplicate timestamp 2020-01-01T00:00:00",
    ),
    "load error after blank lines": (
        "load",
        [LOAD_HEADER, "", "2020-01-01,0,1", "", "2020-01-01,1,warm"],
        "line 5: bad load_mw value 'warm'",
    ),
    "load error after a blank chunk": (
        "load",
        [LOAD_HEADER, "", "", "", "", "2020-01-01,0,x"],
        "line 6: bad load_mw value 'x'",
    ),
    "load whitespace-only line": (
        "load",
        [LOAD_HEADER, "2020-01-01,0,1", "   "],
        "line 3: expected 3 fields, got 1",
    ),
    "mix wrong header": (
        "fuel_mix",
        ["timestamp,wind,solar,hydro,other"],
        "line 1: expected header 'timestamp,wind_mw,solar_mw,hydro_mw,other_mw', "
        "got 'timestamp,wind,solar,hydro,other'",
    ),
    "mix four fields": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "2022-01-01T00:00,1,0,0"],
        "line 2: expected 5 fields, got 4",
    ),
    "mix bad timestamp": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "2022-13-01T00:00,1,0,0,0"],
        "line 2: bad timestamp '2022-13-01T00:00'",
    ),
    "mix hour 24": (
        "fuel_mix",
        [FUEL_MIX_HEADER, *_mix_rows(1), "2022-01-01T24:00,1,0,0,0"],
        "line 3: bad timestamp '2022-01-01T24:00'",
    ),
    "mix year zero": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "0000-01-01T00:00,1,0,0,0"],
        "line 2: bad timestamp '0000-01-01T00:00'",
    ),
    "mix off 15 minutes": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "2022-01-01T00:05,1,0,0,0"],
        "line 2: timestamp '2022-01-01T00:05' not on a 15-minute boundary",
    ),
    "mix off by seconds": (
        "fuel_mix",
        [FUEL_MIX_HEADER, *_mix_rows(2), "2022-01-01T00:15:30,1,0,0,0"],
        "line 4: timestamp '2022-01-01T00:15:30' not on a 15-minute boundary",
    ),
    "mix off by a microsecond": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "2022-01-01T00:15:00.000001,1,0,0,0"],
        "line 2: timestamp '2022-01-01T00:15:00.000001' not on a 15-minute boundary",
    ),
    "mix negative": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "2022-01-01T00:00,-1,0,0,0"],
        "line 2: negative wind_mw value '-1'",
    ),
    "mix non-finite": (
        "fuel_mix",
        [FUEL_MIX_HEADER, "2022-01-01T00:00,1,inf,0,0"],
        "line 2: non-finite solar_mw value 'inf'",
    ),
    "mix duplicate across chunks": (
        "fuel_mix",
        [FUEL_MIX_HEADER, *_mix_rows(4), "2022-01-01T00:45,1,0,0,0"],
        "line 6: duplicate timestamp 2022-01-01T00:45:00",
    ),
    "mix decreasing across chunks": (
        "fuel_mix",
        [FUEL_MIX_HEADER, *_mix_rows(4), "2022-01-01 00:15:00,1,0,0,0"],
        "line 6: timestamps not increasing (2022-01-01T00:15:00 after 2022-01-01T00:45:00)",
    ),
    "mix earlier line wins": (
        "fuel_mix",
        [
            FUEL_MIX_HEADER,
            "2022-01-01T00:15,1,0,0,0",
            "2022-01-01T00:00,1,0,0,0",
            "2022-01-01T00:30,-1,0,0,0",
        ],
        "line 3: timestamps not increasing (2022-01-01T00:00:00 after 2022-01-01T00:15:00)",
    ),
    "outages repeated header line": (
        "outages",
        [OUTAGE_HEADER, "timestamp,outage_mw,telemetered_output_mw"],
        "line 2: bad timestamp 'timestamp'",
    ),
    "outages two fields": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:00,5000"],
        "line 2: expected 3 fields, got 2",
    ),
    "outages bad timestamp": (
        "outages",
        [OUTAGE_HEADER, "noon,1,"],
        "line 2: bad timestamp 'noon'",
    ),
    "outages empty timestamp": ("outages", [OUTAGE_HEADER, " ,1,"], "line 2: bad timestamp ''"),
    # datetime.fromisoformat rejects non-ASCII digits too, so the reference agrees.
    "outages non-ASCII digits": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:\u0661\u0665,1,"],
        "line 2: bad timestamp '2022-01-01T00:\u0661\u0665'",
    ),
    "outages bad outage": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:00,x,1"],
        "line 2: bad outage_mw value 'x'",
    ),
    "outages negative telemetered": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:00,5000,-1"],
        "line 2: negative telemetered_output_mw value '-1'",
    ),
    "outages nan telemetered": (
        "outages",
        [OUTAGE_HEADER, *_outage_rows(3), "2022-01-01T00:45,5000,nan"],
        "line 5: non-finite telemetered_output_mw value 'nan'",
    ),
    "outages bad telemetered": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:00,5000,1;0"],
        "line 2: bad telemetered_output_mw value '1;0'",
    ),
    "outages off by seconds": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:15:30,5000,"],
        "line 2: timestamp '2022-01-01T00:15:30' not on a 15-minute boundary",
    ),
    "outages duplicate across chunks": (
        "outages",
        [OUTAGE_HEADER, *_outage_rows(4), "2022-01-01T00:45, 1 , "],
        "line 6: duplicate timestamp 2022-01-01T00:45:00",
    ),
    "outages decreasing across chunks": (
        "outages",
        [OUTAGE_HEADER, *_outage_rows(4), "2022-01-01T00:00,1,"],
        "line 6: timestamps not increasing (2022-01-01T00:00:00 after 2022-01-01T00:45:00)",
    ),
    "outages earlier line wins": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:00,1,", "2022-01-01T00:15,-1,", "2022-01-01T00:30,1,x"],
        "line 3: negative outage_mw value '-1'",
    ),
    "outages empty telemetry then duplicate": (
        "outages",
        [OUTAGE_HEADER, "2022-01-01T00:00,1, ", "2022-01-01T00:15,1,\t", "2022-01-01T00:15,1,"],
        "line 4: duplicate timestamp 2022-01-01T00:15:00",
    ),
}


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("case", ERROR_CASES, ids=list(ERROR_CASES))
def test_error_matches_reference(case: str, eol: str, monkeypatch) -> None:
    feed, lines, message = ERROR_CASES[case]
    parse, reference = PARSERS[feed]
    text = "".join(line + eol for line in lines)
    with pytest.raises(ValueError) as ref:
        reference(io.StringIO(text))
    assert str(ref.value) == message
    monkeypatch.setattr(ingest, "CSV_CHUNK_LINES", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as got:
            parse(io.StringIO(text))
    assert str(got.value) == message


@pytest.mark.parametrize(
    ("feed", "row", "message"),
    [
        ("load", "2020-01-01,1_0,1", "line 3: bad hour '1_0'"),
        ("load", "2020-01-01,٣,1", "line 3: bad hour '٣'"),
        ("load", "2020-01-01,5,1_0", "line 3: bad load_mw value '1_0'"),
        ("load", "2020-01-01,5,١٢", "line 3: bad load_mw value '١٢'"),
        ("load", "2020-01-01,5\r,1", "line 3: line break inside a row"),
        ("fuel_mix", "20220101T0015,1,0,0,0", "line 3: bad timestamp '20220101T0015'"),
        ("fuel_mix", "2022-01-01T0015,1,0,0,0", "line 3: bad timestamp '2022-01-01T0015'"),
        ("fuel_mix", "2022-01-01x00:15,1,0,0,0", "line 3: bad timestamp '2022-01-01x00:15'"),
        ("fuel_mix", "2022-01-01T00:15,1,0_0,0,0", "line 3: bad solar_mw value '0_0'"),
        # The row check accepts a space separator, so the solar field is named.
        ("fuel_mix", "2022-01-01 00:15,1,0_0,0,0", "line 3: bad solar_mw value '0_0'"),
        # Another space, such as a no-break space, is not.
        (
            "fuel_mix",
            "2022-01-01\u00a000:15,1,0,0,0",
            "line 3: bad timestamp '2022-01-01\\xa000:15'",
        ),
        (
            "outages",
            "2022-01-01T00:15:00.0000000,1,",
            "line 3: bad timestamp '2022-01-01T00:15:00.0000000'",
        ),
        ("outages", "2022-01-01T00:15+00:00,1,", "line 3: bad timestamp '2022-01-01T00:15+00:00'"),
        ("outages", "2022-01-01T00:15Z,1,", "line 3: bad timestamp '2022-01-01T00:15Z'"),
        ("outages", "2022-01-01T01,1,", "line 3: bad timestamp '2022-01-01T01'"),
        ("outages", "2022-01-01T00:15,1,٣", "line 3: bad telemetered_output_mw value '٣'"),
    ],
)
def test_narrower_grammar_names_the_line(feed: str, row: str, message: str) -> None:
    first = {
        "load": (LOAD_HEADER, "2020-01-01,0,1"),
        "fuel_mix": (FUEL_MIX_HEADER, "2022-01-01T00:00,1,0,0,0"),
        "outages": (OUTAGE_HEADER, "2022-01-01T00:00,1,"),
    }[feed]
    parse, reference = PARSERS[feed]
    if "+" in row or "Z" in row:
        reference([first[0], row])  # an aware time cannot follow a naive one
    else:
        reference([*first, row])  # the row-by-row parser accepts these rows
    with pytest.raises(ValueError) as got:
        parse([*first, row])
    assert str(got.value) == message


# -- the bytes fast path against the rescan ---------------------------------------

# Pads that str.strip trims but a bytes strip does not (\x1f, \xa0, U+2000),
# and characters outside ASCII, one of them outside Latin-1.
_STRIP_ONLY_PADS = ["\x1f", "\xa0", "\u2000", "\xa0 \x1f"]
_FOREIGN = ["é", "€"]


@st.composite
def _repadded(draw, feed: str, text: str) -> str:
    """The file with load dates now and then in basic format (`20200101`),
    each data row as it is or with one field padded (with pads that only
    str.strip trims, or so wide that loadtxt may cut the field), and now
    and then a non-ASCII character in one field."""
    eol = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(eol)
    pads = {
        "strip": st.sampled_from(["", *_STRIP_ONLY_PADS]),
        "wide": st.sampled_from(["", " " * 30, " " * 40]),
    }
    rows = [i for i, line in enumerate(lines) if line and i]
    for i in rows:
        fields = lines[i].split(",")
        if feed == "load" and draw(st.booleans()):
            fields[0] = fields[0].replace("-", "")
        change = draw(st.sampled_from(["none", *pads]))
        if change in pads:
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(pads[change]) + fields[k] + draw(pads[change])
        lines[i] = ",".join(fields)
    if rows and draw(st.integers(0, 3)) == 0:
        i = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_FOREIGN)) + lines[i][at:]
    return eol.join(lines)


@pytest.mark.parametrize("feed", list(FILES))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), chunk_lines=st.integers(1, 7))
def test_fast_path_agrees_with_the_rescan(feed: str, data, chunk_lines: int) -> None:
    # Every chunk the bytes fast path turns down (a pad it cannot trim, a
    # field loadtxt may have cut, a byte outside ASCII) is read row by row:
    # the rows, bit for bit, or the error are the reference parser's.
    text = data.draw(_repadded(feed, data.draw(FILES[feed])))
    parse, reference = PARSERS[feed]
    want = _outcome(reference, io.StringIO(text))
    got = _chunked(chunk_lines, parse, io.StringIO(text))
    if isinstance(want, str):
        assert got == want
        return
    assert _table_rows(got) == _record_rows(feed, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), chunk_lines=st.integers(1, 7), padded=st.booleans())
def test_hourly_fold_matches_reference(data, chunk_lines: int, padded: bool) -> None:
    # Short chunks split hours (of 1-4 samples, with gaps between some)
    # across chunk edges, and a padded field sends its chunk to the rescan;
    # each hour is still summed once, in quarter order: the hourly means,
    # bit for bit, or the error are the reference's.
    text = data.draw(fuel_mix_files(gaps=True))
    if padded:
        text = data.draw(_repadded("fuel_mix", text))
    want = _outcome(_reference_fuel_mix, io.StringIO(text))
    got = _chunked(chunk_lines, ingest.parse_fuel_mix, io.StringIO(text))
    if isinstance(want, str):
        assert got == want
        return
    assert _table_rows(got) == _record_rows("fuel_mix", want)


@pytest.mark.parametrize("chunk_lines", [1, 2, 5])
def test_daily_tables_read_dates_as_the_row_check_does(chunk_lines: int, monkeypatch) -> None:
    # The date column of the cached daily tables goes through the bytes
    # path too: odd spellings and pads read as the row check reads them.
    header = ingest.DAILY_HEADER
    plain = [header, "2020-01-01,1.5,2.5,24", "2020-01-02,3.0,4.0,23", "2020-01-05,1.0,0.5,0"]
    odd = [
        header,
        "20200101,1.5,2.5,24",
        "\xa02020-01-02\u2000,3.0,4.0,23",
        " " * 30 + "2020-01-05" + " " * 30 + ",1.0,0.5,0",
    ]
    monkeypatch.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
    assert _daily_rows(ingest.read_daily_summaries(odd)) == _daily_rows(
        ingest.read_daily_summaries(plain)
    )
    series = ingest.read_daily_series(
        ["date,dd_c", "\x1f20200103,0.5", "2020-01-04 ,-0.0"], "date,dd_c"
    )
    assert series.first == date(2020, 1, 3)
    assert list(map(_bits, series.values)) == ["0.5", "-0.0"]
    with pytest.raises(ValueError) as got:
        ingest.read_daily_summaries([header, "2020-01-01,1,1,24", "2020-01-0é,1,1,24"])
    assert str(got.value) == "line 3: bad date '2020-01-0é'"


@pytest.mark.parametrize(
    ("feed", "row", "message"),
    [
        ("load", "2020-01-02\x00,0,1", "line 3: bad date '2020-01-02\\x00'"),
        ("fuel_mix", "2022-01-01T00:15\x00,1,0,0,0", "line 3: bad timestamp '2022-01-01T00:15\\x00'"),
        (
            "outages",
            "2022-01-01T00:15,1,2\x00",
            "line 3: bad telemetered_output_mw value '2\\x00'",
        ),
    ],
)
def test_trailing_nul_in_a_text_field_is_named(feed: str, row: str, message: str) -> None:
    # A bytes field drops its trailing NULs, so a chunk with a NUL is rescanned.
    first = {
        "load": (LOAD_HEADER, "2020-01-01,0,1"),
        "fuel_mix": (FUEL_MIX_HEADER, "2022-01-01T00:00,1,0,0,0"),
        "outages": (OUTAGE_HEADER, "2022-01-01T00:00,1,"),
    }[feed]
    with pytest.raises(ValueError) as got:
        PARSERS[feed][0]([*first, row])
    assert str(got.value) == message

# -- memory -------------------------------------------------------------------------


def _peak_above_start(fn, *args):
    """fn(*args), and the most memory that tracemalloc (which sees numpy's
    buffers) saw allocated during the call beyond what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_feed_memory_is_the_table_and_one_chunk(monkeypatch) -> None:
    chunk_lines, n_chunks = 256, 64
    n = chunk_lines * n_chunks
    rng = np.random.default_rng(3)
    first = datetime(2020, 1, 1)
    stamps = (first + timedelta(minutes=15 * i) for i in range(n))
    rows = [
        ",".join([ts.isoformat(timespec="minutes"), *map(repr, mw)])
        for ts, mw in zip(stamps, (rng.integers(0, 10**6, (n, 4)) / 7.0).tolist())
    ]
    text = "\n".join([FUEL_MIX_HEADER, *rows]) + "\n"
    monkeypatch.setattr(ingest, "CSV_CHUNK_LINES", chunk_lines)
    ingest.parse_fuel_mix(io.StringIO(text))  # one-time allocations of a first call
    mix, peak = _peak_above_start(ingest.parse_fuel_mix, io.StringIO(text))
    n_hours = n // 4
    assert len(mix) == n_hours

    # The bound follows from the design, not from a measurement:
    # - the table: two 8-byte values (hour and mean) per hour;
    # - while reading, the table's parts so far, one chunk and its carry.
    #   The chunk: its lines as str objects, loadtxt's rows (the `S`
    #   timestamp field and four floats, 64 bytes each), and the
    #   converters' and the fold's temporaries, none larger than the rows:
    #   at most 4 times (lines + rows). The carry: the last hour's rows, at
    #   most 4 of five 8-byte values;
    # - at the end, one column, built while the parts it joins are held.
    # A table of the samples needs n * 40 bytes, more than all of this.
    table = n_hours * 2 * 8
    lines = sum(sys.getsizeof(row + "\n") + 8 for row in rows[:chunk_lines])
    chunk = 4 * (lines + chunk_lines * 64)
    carry = 4 * 5 * 8
    column = n_hours * 8
    assert peak <= table + max(chunk + carry, column), (peak, table, chunk, column)

    # Netting: the output column and per-hour temporaries. At most five
    # 8-byte values per hour live at once (the load hour's position, the
    # covered hours padded with NaT, their gather, the gathered means and
    # the difference).
    hours = np.datetime64(first, "h") + np.arange(n_hours)
    hourly = ingest.HourlyLoad(hours, rng.uniform(2e4, 7e4, len(hours)))
    ingest.net_non_thermal(hourly, mix)
    netted, peak = _peak_above_start(ingest.net_non_thermal, hourly, mix)
    assert len(netted) == len(hours)
    assert peak <= len(hours) * 8 * 5 + len(hours) * 8, peak
