"""Parsers, validators, and daily aggregation for grid-operator data files.

All series use region-local naive timestamps and canonical units of MW,
MWh, and degrees C. Parsers are strict: a malformed or out-of-order row
fails the whole file with the offending line number in the message.

The load, fuel-mix and outage feeds are read into column tables (numpy
arrays of equal length) by `read_csv_chunks`, which parses many lines per
`np.loadtxt` call, text fields as fixed-width bytes, and validates whole
columns at once. A chunk that this fast path turns down is read row by
row, with the same result. A file may be read in the parts that `cuts`
makes, each a `Part`, and a feed's join makes its parts' tables into the
one a whole read gives. Each fuel-mix chunk is folded into hourly means
as it is read, so no table of the samples is built: a `MixPart` keeps
only its first and last hours' samples, which `join_fuel_mix` folds at
every seam, of chunks or of parts.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import chain, islice, starmap
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

import numpy as np

from .tables import format_columns, parse_date, parse_float, parse_int, read_header

LOAD_HEADER = "date,hour,load_mw"
FUEL_MIX_HEADER = "timestamp,wind_mw,solar_mw,hydro_mw,other_mw"
OUTAGE_HEADER = "timestamp,outage_mw,telemetered_output_mw"
DAILY_HEADER = "date,total_energy_mwh,peak_demand_mw,hours_present"

# Days with fewer hours than this are flagged as partial and excluded
# from window searches downstream.
DEFAULT_MIN_HOURS = 20

# Lines per np.loadtxt call in read_csv_chunks: large enough to amortise
# the call, small enough that one chunk's lines and rows stay a few MB. At
# 1 << 16 the heap the chunks left behind raised the peak RSS of a process
# running `all` again and again by ~17 MB over 12 runs of a paper-scale
# world. With the grid held as one column per cell, 1 << 12 and 1 << 13
# lower the grid-csv peak RSS from 57.5 to 56.2 and 55.0 MB (medians of
# 4 alternating runs), but 1 << 12 raised its median run time from 0.76
# to 0.84 s, and 1 << 13 left it at 0.77 s.
CSV_CHUNK_LINES = 1 << 14

# Text fields are read as bytes of this width. loadtxt cuts a longer field
# to it, so a chunk with a field this wide is read row by row.
_TEXT = "S32"
_LOAD_DTYPE = np.dtype([("date", _TEXT), ("hour", "i8"), ("load_mw", "f8")])
_QUARTER_HOUR_US = 15 * 60 * 10**6
_YEAR_ONE = np.datetime64("0001-01-01", "us")

# Feed timestamps: YYYY-MM-DD, optionally followed by T or a space and
# HH:MM, HH:MM:SS or HH:MM:SS.f with 1-6 fraction digits. numpy and
# datetime.fromisoformat read every text of this form the same way.
# The template gives the grammar position by position ("0" is any ASCII
# digit, "T" is T or a space), and the lengths list the lengths it allows.
_TIMESTAMP_TEMPLATE = "0000-00-00T00:00:00.000000"
_TIMESTAMP_LENGTHS = (10, 16, 19, 21, 22, 23, 24, 25, 26)


# The template as byte ranges: position i allows the bytes from
# _TIMESTAMP_LOW[i] to _TIMESTAMP_LOW[i] + _TIMESTAMP_SPAN[i].
_TIMESTAMP_LOW = np.frombuffer(_TIMESTAMP_TEMPLATE.encode(), np.uint8)
_TIMESTAMP_SPAN = np.where(_TIMESTAMP_LOW == ord("0"), 9, 0).astype(np.uint8)
_TIMESTAMP_SEP = _TIMESTAMP_TEMPLATE.index("T")

_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # of a YYYY-MM-DD text
_DATE_PLACES = 10 ** np.arange(7, -1, -1)


class _Table:
    """Equal-length columns: len() is the row count; a mask or slice selects rows."""

    def __len__(self) -> int:
        return len(getattr(self, dataclasses.fields(self)[0].name))

    def __getitem__(self, rows):
        return type(self)(*(getattr(self, f.name)[rows] for f in dataclasses.fields(self)))


@dataclass(frozen=True, eq=False)
class HourlyLoad(_Table):
    """Hourly load with strictly increasing `datetime64[h]` hours."""

    hours: np.ndarray
    load_mw: np.ndarray


@dataclass(frozen=True, eq=False)
class FuelMix(_Table):
    """The fuel-mix feed by hour: the strictly increasing `datetime64[h]`
    hours that have samples, and the mean MW of wind, solar and hydro over
    each hour's samples."""

    hours: np.ndarray
    non_thermal_mw: np.ndarray


@dataclass(frozen=True, eq=False)
class Outages(_Table):
    """Outage samples with strictly increasing `datetime64[us]` timestamps on
    15-minute boundaries; telemetered output is NaN where the field is empty."""

    timestamps: np.ndarray
    outage_mw: np.ndarray
    telemetered_output_mw: np.ndarray


def to_years(times: np.ndarray) -> np.ndarray:
    """The calendar year of each `datetime64` value, as integers."""
    return times.astype("datetime64[Y]").astype(int) + 1970


@dataclass(frozen=True, eq=False)
class _DayTable:
    """Columns on a dense day axis: row i holds day `first` + i.

    A day without data is NaN in the float columns and 0 in an integer
    column, so the NaNs of the first column mark the missing days.
    """

    first: date

    @classmethod
    def from_days(cls, days: np.ndarray, *columns: np.ndarray):
        """Rows on strictly increasing `datetime64[D]` days, spread over the axis."""
        if (days[1:] <= days[:-1]).any():
            raise ValueError("days not increasing")
        offsets = (days - days[:1]).astype(np.int64)
        n = int(offsets[-1]) + 1 if len(days) else 0
        dense = [np.full(n, np.nan if c.dtype.kind == "f" else 0, c.dtype) for c in columns]
        for out, column in zip(dense, columns):
            out[offsets] = column
        return cls(days[0].item() if len(days) else date.min, *dense)

    @property
    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in dataclasses.fields(self)[1:]]

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.columns[0])

    @property
    def days(self) -> np.ndarray:
        return np.datetime64(self.first, "D") + np.arange(len(self))

    def format(self, header: str) -> str:
        """The table text: a row per day with data, each value as `repr` gives it."""
        rows = self.present
        cells = [self.days[rows].astype(str).tolist()]
        return format_columns(header, cells + [map(repr, c[rows].tolist()) for c in self.columns])


@dataclass(frozen=True, eq=False)
class DailySeries(_DayTable):
    """One value per day; NaN marks a day without a value."""

    values: np.ndarray

    @classmethod
    def from_mapping(cls, series: Mapping[date, float]) -> DailySeries:
        """The axis spans the mapping's days; a non-finite value reads as missing."""
        keys = sorted(series)
        values = np.array([series[d] for d in keys], dtype=float)
        # The days through their ordinals, many times faster than np.array of the dates.
        ordinals = np.fromiter(map(date.toordinal, keys), np.int64) - date(1970, 1, 1).toordinal()
        days = ordinals.astype("datetime64[D]")
        return cls.from_days(days, np.where(np.isfinite(values), values, np.nan))

    def window(self, start: date, n_days: int) -> np.ndarray:
        """Values of the n_days days from start; NaN off the axis."""
        lo = (start - self.first).days
        src = self.values[max(lo, 0) : max(lo + n_days, 0)]
        out = np.full(n_days, np.nan)
        out[max(-lo, 0) : max(-lo, 0) + len(src)] = src
        return out


@dataclass(frozen=True, eq=False)
class DailyLoad(_DayTable):
    """Daily energy (MWh, the sum of hourly MW), peak (MW) and hours present."""

    total_energy_mwh: np.ndarray
    peak_demand_mw: np.ndarray
    hours_present: np.ndarray

    def series(self, metric: str, min_hours: int = DEFAULT_MIN_HOURS) -> DailySeries:
        """One metric, on the axis cut to the days that have it; a day with
        fewer than min_hours hours has none."""
        columns = {"total_energy": self.total_energy_mwh, "peak_demand": self.peak_demand_mw}
        if metric not in columns:
            raise ValueError(f"unknown load metric {metric!r}")
        values = np.where(self.hours_present >= min_hours, columns[metric], np.nan)
        kept = np.flatnonzero(~np.isnan(values))
        lo, hi = (int(kept[0]), int(kept[-1]) + 1) if len(kept) else (0, 0)
        return DailySeries(self.first + timedelta(days=lo), values[lo:hi])


T = TypeVar("T")

# The bytes of a part of a CSV input (see cuts): the process and the forked
# reader each claim the next part as they finish one, so the one given more CPU
# reads more, and neither waits long on the other's last part.
PART_BYTES = 1 << 21
MAX_PARTS = 256

# The bytes a part is read in at a time, each block then decoded as open()
# decodes a file; a Python stream over the part would run a call per 8 KiB read.
BLOCK_BYTES = 1 << 20


def cuts(path: Path | str) -> list[int] | None:
    """Where the parts of a CSV file start, then its size. The file is cut
    into about one part per PART_BYTES, two at least and MAX_PARTS at most,
    each cut just past the first line feed at or after its share of the
    bytes (or after the part before it). None for a `.npy` raster, a file
    that gives fewer than two parts (a tiny, header-only or CR-only file),
    or one that cannot be read, whose error a whole read gives."""
    path = Path(path)
    if path.suffix == ".npy":
        return None
    cuts = [0]
    with suppress(OSError), open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        n = min(max(2, -(-size // PART_BYTES)), MAX_PARTS)
        for k in range(1, n):
            fh.seek(max(size * k // n, cuts[-1]))
            while (block := fh.read(1 << 16)) and (at := block.find(b"\n")) < 0:
                pass
            cut = fh.tell() - len(block) + at + 1 if block else size
            if cut >= size:
                break
            cuts.append(cut)
        return cuts + [size] if len(cuts) > 1 else None
    return None


class Part(NamedTuple):
    """A source for read_csv_chunks: the bytes of a CSV file from start to
    stop (its end if None), read as if the file's header came before them.
    start and stop each follow a line feed, or are an end of the file."""

    path: Path | str
    start: int = 0
    stop: int | None = None

    def lines(self) -> Iterator[str]:
        """The part's lines, each block decoded as open() decodes the file."""
        return chain.from_iterable(io.TextIOWrapper(io.BytesIO(b), "utf-8") for b in self._blocks())

    def _blocks(self) -> Iterator[bytes]:
        """The part's bytes in blocks of about BLOCK_BYTES, each completed to
        the line feed after it, so no line break or character straddles two
        blocks. A block holding a NUL is a ValueError: a whole read names its
        line."""
        with open(self.path, "rb") as fh:
            fh.seek(self.start)
            left = sys.maxsize if self.stop is None else self.stop - self.start
            while left > 0 and (block := fh.read(min(left, BLOCK_BYTES))):
                if len(block) < left:
                    block += fh.readline(left - len(block))
                left -= len(block)
                if b"\0" in block:
                    raise ValueError("NUL in a part")
                yield block


def read_csv_chunks(
    source: IO[str] | Iterable[str] | Part,
    header: str,
    dtype: np.dtype,
    convert: Callable[[np.ndarray], T],
    check_row: Callable[[int, list[str]], object],
    from_rows: Callable[[list], T],
) -> Iterator[T]:
    """Read a CSV stream with one header line, CSV_CHUNK_LINES lines at a time.

    Each chunk's rows are parsed by one `np.loadtxt` call into the
    structured `dtype` (one field per column) and handed to `convert`,
    whose results are yielded in file order, a chunk read as the one
    before is taken. Blank lines are skipped but count in line numbers.
    When loadtxt or `convert` raises ValueError, the chunk is rescanned
    row by row: each row is split and its fields trimmed, and
    `check_row(lineno, fields)` must raise the error of the first
    offending row. If no row is bad, the chunk's result is `from_rows` of
    the values check_row returned, one per row. A chunk holding a NUL is
    rescanned when `dtype` has a bytes field, since loadtxt drops the
    trailing NULs of such a field; a Part holds none. `convert` and
    `check_row` see the chunks in file order, so state they share (such
    as the last timestamp read) carries across chunk boundaries. A Part
    past the file's start numbers its lines as if the header were line 1.
    """
    part = isinstance(source, Part)
    lines = source.lines() if part else iter(source)
    lineno = 1 if part and source.start else read_header(lines, header)
    probe_nul = not part and any(dtype[name].kind == "S" for name in dtype.names)
    while chunk := list(islice(lines, CSV_CHUNK_LINES)):
        first_lineno, lineno = lineno + 1, lineno + len(chunk)
        if not any(raw.rstrip("\r\n") for raw in chunk):
            continue  # loadtxt warns on input with no rows
        try:
            if probe_nul and "\x00" in "".join(chunk):
                raise ValueError("NUL in a bytes field")
            # No name holds loadtxt's rows, so they go once converted.
            result = convert(np.loadtxt(chunk, delimiter=",", comments=None, ndmin=1, dtype=dtype))
        except ValueError:
            result = from_rows(_rescan(chunk, first_lineno, len(dtype.names), check_row))
        # Dropped before the next chunk is read, so one chunk's lines are held at a time.
        del chunk
        yield result
        del result  # held only by the caller, which may drop it before the next chunk


def _rescan(
    chunk: list[str],
    first_lineno: int,
    n_fields: int,
    check_row: Callable[[int, list[str]], object],
) -> list:
    """check_row's value for each row of the chunk; raises the first bad row's error."""
    rows = []
    for lineno, raw in enumerate(chunk, start=first_lineno):
        line = raw.removesuffix("\n").removesuffix("\r")
        if "\r" in line or "\n" in line:
            raise ValueError(f"line {lineno}: line break inside a row")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ValueError(f"line {lineno}: expected {n_fields} fields, got {len(fields)}")
        rows.append(check_row(lineno, [f.strip() for f in fields]))
    return rows


def parse_loadtxt_float(text: str, lineno: int, name: str) -> float:
    """A finite float in the grammar np.loadtxt reads.

    That is float()'s grammar without digit-group underscores (`1_0`)
    and non-ASCII digits, which float() accepts.
    """
    value = parse_float(text, lineno, name)
    if "_" in text or not text.isascii():
        raise ValueError(f"line {lineno}: bad {name} value {text!r}")
    return value


def _parse_timestamp(text: str, lineno: int) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad timestamp {text!r}") from None


def _check_increasing(ts: datetime, prev: datetime | None, lineno: int) -> None:
    if prev is None:
        return
    if ts == prev:
        raise ValueError(f"line {lineno}: duplicate timestamp {ts.isoformat()}")
    if ts < prev:
        raise ValueError(
            f"line {lineno}: timestamps not increasing "
            f"({ts.isoformat()} after {prev.isoformat()})"
        )


# -- row validators: the rescan of a rejected chunk ---------------------------


def _parse_hours(text: str, lineno: int, name: str, top: int = 24) -> int:
    """A count of hours in 0..top, in int()'s grammar without the
    digit-group underscores and non-ASCII digits that np.loadtxt rejects."""
    hours = parse_int(text, lineno, name)
    if "_" in text or not text.isascii():
        raise ValueError(f"line {lineno}: bad {name} {text!r}")
    if not 0 <= hours <= top:
        raise ValueError(f"line {lineno}: {name} {hours} out of range 0-{top}")
    return hours


def _parse_quarter_hour(text: str, lineno: int, name: str) -> datetime:
    # A bytes array drops trailing NULs, where the grammar check would miss them.
    plain = text.isascii() and "\x00" not in text
    if not (plain and _in_timestamp_grammar(np.array([text.encode()]))):
        raise ValueError(f"line {lineno}: bad {name} {text!r}")
    ts = _parse_timestamp(text, lineno)
    if ts.minute % 15 or ts.second or ts.microsecond:
        raise ValueError(f"line {lineno}: {name} {text!r} not on a 15-minute boundary")
    return ts


def _parse_mw(text: str, lineno: int, name: str) -> float:
    value = parse_loadtxt_float(text, lineno, name)
    if value < 0:
        raise ValueError(f"line {lineno}: negative {name} value {text!r}")
    return value


# -- column validators: any failure sends the chunk to the rescan ------------


def _column(valid: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """A converter that copies a column in which `valid` holds for every value."""

    def convert(values: np.ndarray) -> np.ndarray:
        if not valid(values).all():
            raise ValueError("bad value")
        return values.copy()

    return convert


_check_mw = _column(lambda values: (values >= 0) & (values < np.inf))


def _uncut(column: np.ndarray) -> np.ndarray:
    """The bytes column, once no field fills it: loadtxt cuts a longer field to its width."""
    if (np.strings.str_len(column) == column.dtype.itemsize).any():
        raise ValueError("field may be cut")
    return column


def _trimmed(column: np.ndarray) -> np.ndarray:
    """A bytes column without the ASCII whitespace around each field. Other
    whitespace, which str.strip trims too, stays and fails the checks that follow."""
    return np.strings.strip(_uncut(column))


def _in_timestamp_grammar(texts: np.ndarray) -> bool:
    """Whether every text of a bytes array is a feed timestamp (see _TIMESTAMP_TEMPLATE).

    The texts hold no NUL, so the NULs that pad them mark their ends.
    """
    if not np.isin(np.strings.str_len(texts), _TIMESTAMP_LENGTHS).all():
        return False
    width = len(_TIMESTAMP_TEMPLATE)
    codes = texts.astype(f"S{width}").view(np.uint8).reshape(len(texts), width)
    past_end = codes == 0
    sep = codes[:, _TIMESTAMP_SEP]
    sep[sep == ord(" ")] = ord("T")
    codes -= _TIMESTAMP_LOW  # unsigned: a byte below its range wraps above it
    return bool(((codes <= _TIMESTAMP_SPAN) | past_end).all())


def timestamp_texts(column: np.ndarray) -> np.ndarray:
    """The trimmed texts of a bytes column read by `read_csv_chunks`, each a
    feed timestamp (see _TIMESTAMP_TEMPLATE); any other text is a ValueError."""
    texts = _trimmed(column)
    if not _in_timestamp_grammar(texts):
        raise ValueError("bad timestamp")
    return texts


def parse_timestamps(texts: np.ndarray) -> np.ndarray:
    """`timestamp_texts` to `datetime64[us]`, as datetime.fromisoformat reads
    them; a time it refuses (hour 24, year 0) is a ValueError."""
    times = texts.astype("datetime64[us]")
    if not (times >= _YEAR_ONE).all():
        raise ValueError("bad timestamp")
    return times


def _quarter_hours(column: np.ndarray) -> np.ndarray:
    """Feed timestamp texts to `datetime64[us]`."""
    times = parse_timestamps(timestamp_texts(column))
    if (times.view(np.int64) % _QUARTER_HOUR_US).any():
        raise ValueError("bad timestamp")
    return times


def date_numbers(texts: np.ndarray) -> np.ndarray:
    """The YYYYMMDD number of each bare `YYYY-MM-DD` text of a bytes array; any
    other text is a ValueError. `numbers_to_days` checks that a number names a date."""
    codes = texts.astype("S11").view(np.uint8).reshape(len(texts), 11)
    digits = codes[:, _DATE_DIGITS] - ord("0")  # unsigned: a byte below "0" wraps above 9
    if (digits > 9).any() or (codes[:, [4, 7]] != ord("-")).any() or codes[:, 10].any():
        raise ValueError("bad date")
    return digits.astype(np.int64) @ _DATE_PLACES


def numbers_to_days(numbers: np.ndarray) -> np.ndarray:
    """YYYYMMDD numbers to `datetime64[D]`; ValueError for one that names no date."""
    year, month, day = numbers // 10000, numbers // 100 % 100, numbers % 100
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    ends = (months + 1).astype("datetime64[D]")
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (days < ends)).all():
        raise ValueError("bad date")
    return days


def _dates(column: np.ndarray) -> np.ndarray:
    """Date texts to `datetime64[D]`: the first trimmed text of each run of
    one text is decoded by `date_numbers` and `numbers_to_days`, which turn
    down texts the row check reads, such as the basic `20200101` (which
    numpy would misread as a year).
    """
    starts, run = runs(_uncut(column))
    return numbers_to_days(date_numbers(np.strings.strip(column[starts])))[run]


def _optional_mw(column: np.ndarray) -> np.ndarray:
    """MW texts to floats; an empty field reads as NaN.

    The bytes-to-float cast reads float()'s grammar, so digit-group
    underscores and non-ASCII bytes, which loadtxt rejects, go to the rescan.
    """
    texts = _trimmed(column)
    codes = texts.view(np.uint8)
    if (codes >= 0x80).any() or (codes == ord("_")).any():
        raise ValueError("bad value")
    present = np.strings.str_len(texts) > 0
    values = np.full(len(texts), np.nan)
    values[present] = _check_mw(texts[present].astype(np.float64))
    return values


def _read_timed_feed(
    source: IO[str] | Iterable[str],
    header: str,
    dtype: np.dtype,
    convert: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    check_row: Callable[[int, list[str]], list],
) -> Iterator[tuple[np.ndarray, ...]]:
    """read_csv_chunks for a table whose first column is a strictly increasing time.

    `convert` returns a chunk's columns, times first, and `check_row`
    validates one row and returns its values, the time first. A chunk
    that `convert` turns down is built from those values. Yields the
    columns of each chunk, or, for a file without rows, those of none.
    """
    last: datetime | None = None  # time of the last row accepted so far
    # The columns of a file without rows, and the dtypes of every chunk's.
    empty = convert(np.empty(0, dtype))

    def accept(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        nonlocal last
        columns = convert(rows)
        times = columns[0]
        if (times[1:] <= times[:-1]).any() or (
            last is not None and times[0] <= np.datetime64(last)
        ):
            raise ValueError("timestamps not increasing")
        last = times[-1].item()
        return columns

    def check(lineno: int, fields: list[str]) -> list:
        nonlocal last
        row = check_row(lineno, fields)
        _check_increasing(row[0], last, lineno)
        last = row[0]
        return row

    def from_rows(rows: list[list]) -> tuple[np.ndarray, ...]:
        return tuple(np.array(values, e.dtype) for values, e in zip(zip(*rows), empty))

    chunks = read_csv_chunks(source, header, dtype, accept, check, from_rows)
    yield next(chunks, empty)
    yield from chunks


def _joined(table: Callable[..., T], chunks: Iterable[tuple[np.ndarray, ...]]) -> T:
    """table of the chunks' columns, each joined end to end. One column at
    a time, each dropping its chunk parts once it is whole, so that memory
    holds the table and one column, not two tables."""
    parts = [list(column) for column in zip(*chunks)]
    columns = []
    for column in parts:
        columns.append(np.concatenate(column))
        column.clear()
    return table(*columns)


def parse_hourly_load(source: IO[str] | Iterable[str] | Part) -> HourlyLoad:
    """Parse a `date,hour,load_mw` stream into hourly load columns.

    Timestamps must be strictly increasing; loads must be finite and
    non-negative. Raises ValueError naming the offending line otherwise.
    """

    def convert(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        load = _check_mw(rows["load_mw"])
        hour = rows["hour"]
        if ((hour < 0) | (hour > 23)).any():
            raise ValueError("hour out of range")
        hours = _dates(rows["date"]).view(np.int64) * 24 + hour
        return hours.view("datetime64[h]"), load

    def check_row(lineno: int, fields: list[str]) -> tuple[datetime, float]:
        day_s, hour_s, load_s = fields
        day = parse_date(day_s, lineno, "date")
        hour = _parse_hours(hour_s, lineno, "hour", top=23)
        load = parse_loadtxt_float(load_s, lineno, "load_mw")
        if load < 0:
            raise ValueError(f"line {lineno}: negative load {load_s!r}")
        return datetime(day.year, day.month, day.day, hour), load

    chunks = _read_timed_feed(source, LOAD_HEADER, _LOAD_DTYPE, convert, check_row)
    return _joined(HourlyLoad, chunks)


# Column kinds of _read_columns: (loadtxt type, row validator (text, lineno,
# name) that returns the value, column converter that raises ValueError on
# any bad value).
_QUARTER = (_TEXT, _parse_quarter_hour, _quarter_hours)
_DAY = (_TEXT, parse_date, _dates)
_MW = ("f8", _parse_mw, _check_mw)
_OPTIONAL_MW = (
    _TEXT, lambda text, *where: _parse_mw(text, *where) if text else math.nan, _optional_mw
)
_FINITE = ("f8", parse_loadtxt_float, _column(np.isfinite))
_HOURS = ("i8", _parse_hours, _column(lambda hours: (hours >= 0) & (hours <= 24)))


def _read_columns(source: IO[str] | Iterable[str], header: str, *kinds) -> Iterator[tuple]:
    """_read_timed_feed for a table with one column of each kind, the time first."""
    names = header.split(",")
    dtype = np.dtype([(name, kind[0]) for name, kind in zip(names, kinds)])

    def convert(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(kind[2](rows[name]) for name, kind in zip(names, kinds))

    def check_row(lineno: int, fields: list[str]) -> list:
        return [kind[1](text, lineno, name) for text, name, kind in zip(fields, names, kinds)]

    return _read_timed_feed(source, header, dtype, convert, check_row)


class MixPart(NamedTuple):
    """A fuel-mix chunk's hours and their means, but for its first hour and
    its last, whose samples (columns, times first) are kept; the last
    hour's are empty if the chunk has one hour."""

    hours: np.ndarray
    non_thermal_mw: np.ndarray
    first: list[np.ndarray]
    last: list[np.ndarray]


def _mix_part(*columns: np.ndarray) -> MixPart:
    """The MixPart of a chunk's samples (columns, times first)."""
    hours = columns[0].astype("datetime64[h]")
    # The rows of the first hour, and of the hours before the last.
    one, whole = np.searchsorted(hours, [hours[0] + 1, hours[-1]]) if len(hours) else (0, 0)
    whole = max(one, whole)
    return MixPart(
        *_hourly_means(*(column[one:whole] for column in columns)),
        [column[:one].copy() for column in columns],
        [column[whole:].copy() for column in columns],
    )


def read_fuel_mix_part(source: IO[str] | Iterable[str] | Part) -> Iterator[MixPart]:
    """The MixPart of each chunk of a fuel-mix stream, such as a part of a
    file, each read when it is asked for, for `join_fuel_mix`."""
    kinds = (_QUARTER, _MW, _MW, _MW, _MW)
    return starmap(_mix_part, _read_columns(source, FUEL_MIX_HEADER, *kinds))


def join_fuel_mix(*parts: Iterable[MixPart]) -> FuelMix:
    """The fuel mix of a file from the chunks of its parts, in file order.

    The samples kept at each seam, between chunks or parts, are folded
    once joined, in quarter order, as a read in one piece folds them. A
    time that does not increase across a seam is a ValueError, with no
    line number.
    """
    tables, rows = [], None
    for chunk in chain.from_iterable(parts):
        if rows is not None and (rows[0][-1:] >= chunk.first[0][:1]).any():
            raise ValueError("timestamps not increasing across a seam")
        rows = chunk.first if rows is None else [np.concatenate(p) for p in zip(rows, chunk.first)]
        if len(chunk.last[0]):  # the chunk has a later hour than rows has
            # A table of its own: a chunk's table, still held by the caller, is not copied.
            tables += [_hourly_means(*rows), chunk[:2]]
            rows = chunk.last
    tables.append(_hourly_means(*rows))
    return _joined(FuelMix, tables)


def parse_fuel_mix(source: IO[str] | Iterable[str] | Part) -> FuelMix:
    """Parse a fuel-mix stream (15-minute ISO timestamps, MW per source)
    into the mean non-thermal output of each hour with samples.

    The samples are folded into hourly means a chunk at a time, so memory
    follows the hours, not the samples.
    """
    return join_fuel_mix(read_fuel_mix_part(source))


def parse_outages(source: IO[str] | Iterable[str] | Part) -> Outages:
    """Parse a generation-outage stream at 15-minute resolution.

    An empty telemetered_output_mw field reads as NaN.
    """
    return _joined(Outages, _read_columns(source, OUTAGE_HEADER, _QUARTER, _MW, _OPTIONAL_MW))


def join_tables(*tables: T) -> T:
    """The load or outage table of a file from the reads of its parts, in
    file order; ValueError, with no line number, where times do not increase."""
    names = [f.name for f in dataclasses.fields(tables[0])]
    times = [getattr(table, names[0]) for table in tables if len(table)]
    if any(a[-1] >= b[0] for a, b in zip(times, times[1:])):
        raise ValueError("timestamps not increasing across a seam")
    return type(tables[0])(*(np.concatenate([getattr(t, name) for t in tables]) for name in names))


def runs(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each run of rows equal in every column, run number of each row)."""
    new = np.ones(len(columns[0]), bool)
    new[1:] = columns[0][1:] != columns[0][:-1]
    for column in columns[1:]:
        new[1:] |= column[1:] != column[:-1]
    run = np.cumsum(new)
    run -= 1
    return np.flatnonzero(new), run


def _sum_slots(run: np.ndarray, slot: np.ndarray, values: np.ndarray, n_slots: int):
    """Per-run sums of values added left to right in slot order, as sum() would.

    np.sum adds pairwise and can change the last bits. Empty slots add
    0.0, which changes no partial sum: a sum started at 0.0 is never -0.0.
    """
    dense = np.zeros((run[-1] + 1 if len(run) else 0, n_slots))
    dense[run, slot] = values
    totals = np.zeros(len(dense))
    for column in dense.T:
        totals += column
    return totals, dense


def aggregate_daily(hourly: HourlyLoad) -> DailyLoad:
    """Collapse sorted hourly load into per-day energy/peak summaries.

    total_energy_mwh is the plain sum of hourly MW values (1-hour steps);
    peak_demand_mw is the maximum hourly value. Partial days are kept and
    reported through hours_present; exclusion policy is the caller's.
    """
    days = hourly.hours.astype("datetime64[D]")
    starts, run = runs(days)
    hour_of_day = (hourly.hours - days).astype(np.int64)
    totals, dense = _sum_slots(run, hour_of_day, hourly.load_mw, 24)
    # Missing hours read 0.0, the peak's starting value; adding 0.0 turns
    # a -0.0 maximum into that 0.0.
    peaks = dense.max(axis=1) + 0.0
    counts = np.diff(np.r_[starts, len(days)])
    return DailyLoad.from_days(days[starts], totals, peaks, counts)


def _hourly_means(
    times: np.ndarray,
    wind_mw: np.ndarray,
    solar_mw: np.ndarray,
    hydro_mw: np.ndarray,
    other_mw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The hours of fuel-mix samples, and the mean of wind, solar and hydro
    over each hour's samples, summed in quarter order; other_mw is checked
    by the reader but not netted."""
    hours = times.astype("datetime64[h]")
    starts, run = runs(hours)
    quarter = times.view(np.int64) // _QUARTER_HOUR_US
    quarter %= 4
    non_thermal = wind_mw + solar_mw
    non_thermal += hydro_mw
    totals = _sum_slots(run, quarter, non_thermal, 4)[0]
    return hours[starts], totals / np.diff(np.r_[starts, len(times)])


def net_non_thermal(hourly: HourlyLoad, mix: FuelMix) -> HourlyLoad:
    """Remove wind/solar/hydro output from each hourly load, floored at 0.

    Each load hour takes its hour's mean of the mix samples (averaged, not
    summed, by parse_fuel_mix); every load hour must have at least one.
    """
    # The covered hour at or after each load hour; past the end reads NaT.
    at = np.searchsorted(mix.hours, hourly.hours)
    covered = np.append(mix.hours, np.datetime64("NaT", "h"))[at] == hourly.hours
    if not covered.all():
        hour = hourly.hours[covered.argmin()].item()
        raise ValueError(f"missing fuel-mix coverage for load hour {hour.isoformat()}")
    netted = hourly.load_mw - mix.non_thermal_mw[at]
    return HourlyLoad(hourly.hours, np.where(netted < 0.0, 0.0, netted))


def read_daily_summaries(source: IO[str] | Iterable[str]) -> DailyLoad:
    chunks = _read_columns(source, DAILY_HEADER, _DAY, _FINITE, _FINITE, _HOURS)
    return _joined(DailyLoad.from_days, chunks)


def read_daily_series(source: IO[str] | Iterable[str], header: str) -> DailySeries:
    """Read a `date,<value>` table, such as `degree_days.csv`."""
    return _joined(DailySeries.from_days, _read_columns(source, header, _DAY, _FINITE))
