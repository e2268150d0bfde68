"""Regional temperature processing and the demand-temperature relationship.

Covers gridded 2 m temperature handling (CSV long format or binary raster
with a JSON sidecar), population weighting with 5-year epoch snapshots,
the cubic fit of daily peak demand against daily mean temperature, the
demand-minimizing reference temperature derived from that fit, degree
days, and spatial temperature variability.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .ingest import (
    DailySeries,
    Part,
    date_numbers,
    numbers_to_days,
    parse_loadtxt_float,
    parse_timestamps,
    read_csv_chunks,
    runs,
    timestamp_texts,
    to_years,
)
from .tables import parse_float, parse_int, split_rows
from .trends import left_sum

GRID_HEADER = "lat,lon,date,t2m_c"
POPULATION_HEADER = "lat,lon,epoch,persons"
MASK_HEADER = "lat,lon,in_region"

# A date longer than the bytes field is cut to it: timestamp_texts turns down
# a full field, and the chunk is read row by row.
_GRID_DTYPE = np.dtype([("lat", "f8"), ("lon", "f8"), ("date", "S32"), ("t2m_c", "f8")])

# Days per block of the regional reductions: bounds the masked copy
# (block days x region cells) each one makes of the raster, and each read
# of a `.npy` raster.
_BLOCK_DAYS = 256


@dataclass
class TemperatureGrid:
    """Co-registered lat/lon raster of 2 m temperature in degrees C.

    values has shape (n_times, n_lats, n_lons); times is `datetime64[D]` for a
    daily grid, `datetime64[us]` (naive) for an hourly one, or a list to convert.
    mask marks the cells in the analysis region (None: all). A CSV grid holds a
    CellColumns, a `.npy` raster a RasterReader; each reads a step-1 slice of
    times. A raster sidecar's `times` are bare dates (if `hourly`, naive feed
    timestamps), increasing; else `<sidecar path>: bad time <index>: '<text>'`.
    """

    lats: np.ndarray
    lons: np.ndarray
    times: np.ndarray
    values: np.ndarray | CellColumns | RasterReader
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, "datetime64")

    @property
    def is_hourly(self) -> bool:
        return self.times.dtype == np.dtype("datetime64[us]")


@dataclass
class PopulationGrid:
    """Per-cell population counts on the same axes as a TemperatureGrid."""

    lats: np.ndarray
    lons: np.ndarray
    epochs: list[int]
    weights: np.ndarray  # (n_epochs, n_lats, n_lons)


@dataclass
class RegionMask:
    lats: np.ndarray
    lons: np.ndarray
    mask: np.ndarray  # bool (n_lats, n_lons)


@dataclass(frozen=True)
class CubicDemandFit:
    """Coefficients of D = a1*T^3 + a2*T^2 + a3*T + a4 for one year.

    fit_range is the observed temperature span of the data the fit was
    made on; the reference temperature must fall inside it.
    """

    year: int | None
    a1: float
    a2: float
    a3: float
    a4: float
    fit_range: tuple[float, float]
    t0: float | None = None


# -- grid and mask file I/O --------------------------------------------------


def _parse_time(text: str, lineno: int):
    """A date, or a naive datetime: a UTC offset or `Z` is a bad date, as in the feeds."""
    try:
        if not ("T" in text or " " in text or ":" in text):
            return date.fromisoformat(text)
        t = datetime.fromisoformat(text)
        if t.tzinfo is None:
            return t
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: bad date {text!r}")


def _check_grid_row(lineno: int, fields: list[str]) -> tuple[float, float, object, float]:
    lat_s, lon_s, time_s, val_s = fields
    return (
        parse_loadtxt_float(lat_s, lineno, "lat"),
        parse_loadtxt_float(lon_s, lineno, "lon"),
        _parse_time(time_s, lineno),
        parse_loadtxt_float(val_s, lineno, "t2m_c"),
    )


# A time is keyed by an int64: a date by its YYYYMMDD number plus _DAY_KEY,
# a datetime by its microseconds since 1970 (from year 1 on, above -2**56).
# One sorted table then holds both kinds apart, each in time order.
_DAY_KEY = -(1 << 62)
_HOURLY = _DAY_KEY + 10**8  # the keys from here up are datetimes


def _time_keys(column: np.ndarray | list) -> np.ndarray:
    """The key of each text of a bytes date column (or list); ValueError for a
    text that is not a feed timestamp. `_check_days` checks each new day key once."""
    column = np.asarray(column, _GRID_DTYPE["date"])
    try:
        return date_numbers(column) + _DAY_KEY
    except ValueError:
        # Not all bare YYYY-MM-DD: trimmed, each text must be a timestamp.
        texts = timestamp_texts(column)
    keys = parse_timestamps(texts).view(np.int64)
    days = np.strings.str_len(texts) == 10
    keys[days] = date_numbers(texts[days]) + _DAY_KEY
    return keys


def _check_days(keys: np.ndarray) -> np.ndarray:
    """The keys; ValueError if a day key names no date."""
    numbers_to_days(keys[keys < _HOURLY] - _DAY_KEY)
    return keys


def _times(keys: np.ndarray) -> np.ndarray:
    """The `datetime64[D]` days or `datetime64[us]` times of keys of one kind."""
    if len(keys) and keys[0] >= _HOURLY:
        return keys.astype("datetime64[us]")
    return numbers_to_days(keys - _DAY_KEY)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty array, sorted (-0.0 equals 0.0).

    np.unique sorts and compares the same way for floats, but hashes
    integers, which is slower on many distinct values. The sort is stable,
    so of equal values (0.0 and -0.0) the first given is kept.
    """
    values = np.sort(values, kind="stable")
    return values[np.r_[True, values[1:] != values[:-1]]]


class _KeyTable:
    """Distinct keys, sorted, each with its slot: keys are numbered as first seen."""

    def __init__(self, dtype) -> None:
        self.keys = np.empty(0, dtype)
        self.slots = np.empty(0, np.intp)  # the slot of each key

    def number(self, keys: np.ndarray, check=lambda new: None) -> np.ndarray:
        """The slot of each key, numbering keys not seen before. `check`
        sees the new keys, sorted, before any change, and may raise."""
        at = np.searchsorted(self.keys, keys)
        known = at < len(self.keys)
        known[known] = self.keys[at[known]] == keys[known]
        if not known.all():
            new = _distinct(keys[~known])
            check(new)
            n = len(self.keys)
            at = np.searchsorted(self.keys, new)
            self.slots = np.insert(self.slots, at, np.arange(n, n + len(new)))
            self.keys = np.insert(self.keys, at, new)
            at = np.searchsorted(self.keys, keys)
        return self.slots[at]


class _GridBuilder:
    """A grid being read: one NaN-filled column per (lat, lon) cell, indexed
    by time slot.

    Cells and times are numbered as they are first seen, each in a
    _KeyTable; a cell is keyed by `lat + 1j * lon`, which numpy sorts by
    lat, then lon, and in which -0.0 equals 0.0. A new cell gets a new
    column; when the time slots outgrow the columns, each column is grown
    by half on its own, so no step copies the whole grid. Rows often come
    in runs of one cell (a cell-major file) or of one time (a time-major
    file), so each run is looked up once.
    """

    def __init__(self) -> None:
        self.cells = _KeyTable(complex)
        self.times = _KeyTable(np.int64)
        self.columns: list[np.ndarray] = []
        self.repeated: str | None = None  # the error of the first row that hits a filled cell

    def read(self, source: IO[str] | Iterable[str] | Part) -> None:
        """Store the rows of a grid CSV read by `ingest.read_csv_chunks`."""

        def convert(rows: np.ndarray) -> None:
            lat, lon, values = rows["lat"], rows["lon"], rows["t2m_c"]
            if not all(np.isfinite(column).all() for column in (lat, lon, values)):
                raise ValueError("non-finite value")
            keys = _time_keys(rows["date"])
            row = self.add(lat, lon, keys, values)
            if row is not None and self.repeated is None:
                at = f"{float(lat[row])}, {float(lon[row])}, {_times(keys[row : row + 1]).item()}"
                self.repeated = f"duplicate grid entry for ({at})"

        def from_rows(rows: list[tuple]) -> None:
            # The checked rows, each time as its isoformat() text, which the bytes path reads.
            texts = [(lat, lon, t.isoformat(), v) for lat, lon, t, v in rows]
            convert(np.array(texts, _GRID_DTYPE))

        for _ in read_csv_chunks(
            source, GRID_HEADER, _GRID_DTYPE, convert, _check_grid_row, from_rows
        ):
            pass  # convert stores each chunk as it is read

    def add(self, lat: np.ndarray, lon: np.ndarray, keys: np.ndarray, values: np.ndarray):
        """Store a chunk of rows, all finite; the index of its first row
        that gives a (cell, time) given before, or None. A new day key
        that names no date is a ValueError, raised before any change."""
        heads, run = runs(keys)
        slots = self.times.number(keys[heads], _check_days)[run]
        heads, run = runs(lat, lon)
        cells = self.cells.number(lat[heads] + 1j * lon[heads])[run]
        length = len(self.columns[0]) if self.columns else 0
        if len(self.times.keys) > length:
            length = max(len(self.times.keys), length + length // 2)
            for c, column in enumerate(self.columns):
                self.columns[c] = np.full(length, np.nan)
                self.columns[c][: len(column)] = column
        new_cells = len(self.cells.keys) - len(self.columns)
        self.columns.extend(np.full(length, np.nan) for _ in range(new_cells))

        # Rows by (cell, time), file order within each: a repeat in the chunk follows its first.
        flat = cells * length + slots
        order = np.argsort(flat, kind="stable")
        flat, slots, values = flat[order], slots[order], values[order]
        given = np.zeros(len(flat), bool)
        given[1:] = flat[1:] == flat[:-1]
        before = np.empty(len(flat))  # each row's cell as earlier chunks left it
        starts = np.flatnonzero(np.r_[True, np.diff(flat // length) != 0]).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(flat)]):
            column, at = self.columns[flat[lo] // length], slots[lo:hi]
            np.take(column, at, out=before[lo:hi])
            column[at] = values[lo:hi]
        hit = order[given | ~np.isnan(before)]
        return int(hit.min()) if len(hit) else None

    def grid(self) -> TemperatureGrid:
        """The grid of the rows read; ValueError for no rows, a mix of daily
        and hourly rows, or, failing those, the first repeated (cell, time)."""
        times, cells = self.times.keys, self.cells.keys
        if not len(times):
            raise ValueError("grid file has no data rows")
        if times[0] < _HOURLY <= times[-1]:
            raise ValueError("grid file mixes daily and hourly rows")
        if self.repeated is not None:
            raise ValueError(self.repeated)
        lats, lons = _distinct(cells.real), _distinct(cells.imag)
        places = np.empty(len(cells), np.intp)
        places[self.cells.slots] = (
            np.searchsorted(lats, cells.real) * len(lons) + np.searchsorted(lons, cells.imag)
        )
        shape = (len(times), len(lats), len(lons))
        values = CellColumns(self.columns, places, self.times.slots, shape)
        return TemperatureGrid(lats, lons, _times(times), values)


def read_grid_csv(source: IO[str] | Iterable[str]) -> TemperatureGrid:
    """Read a long-format `lat,lon,date,t2m_c` grid file: `read_grid_part(source).grid()`.

    Missing (time, cell) combinations become NaN; duplicates are an error.
    The date column holds either calendar dates (daily grid) or naive ISO
    datetimes in region-local time (hourly grid), never a mixture; a time
    with a UTC offset or `Z` is a bad date. Blank lines are skipped but
    counted in error line numbers, and fields are whitespace-trimmed.

    Lines are parsed in chunks by `ingest.read_csv_chunks`, and each chunk
    is stored as it is read into one time series per cell, so memory
    follows the grid and one chunk, not the row count. The values are
    returned as a CellColumns, which reads a slice of days at a time. A
    chunk that the bytes fast path turns down (a non-finite value, a date
    outside the feeds' timestamp grammar) is read row by row, which names
    its first bad line or gives the same values.
    """
    return read_grid_part(source).grid()


def read_grid_part(source: IO[str] | Iterable[str] | Part) -> _GridBuilder:
    """The rows of a grid CSV stream, such as an `ingest.Part` of a file,
    for `join_grid_parts`; its grid() is the stream's. Each column is then
    put in time order, with no spare slot to cross a pipe, so parts with
    the same times have the same slots. A repeated (cell, time) is kept
    for grid() to raise."""
    builder = _GridBuilder()
    builder.read(source)
    order = builder.times.slots  # the slot of each time, in time order
    if not (order == np.arange(len(order))).all():
        for column in builder.columns:  # in place, so a whole file's grid is not held twice
            column[: len(order)] = column[order]
        builder.times.slots = np.arange(len(order))
    builder.columns = [column[: len(order)] for column in builder.columns]
    return builder


def join_grid_parts(head: _GridBuilder, *tails: _GridBuilder) -> _GridBuilder:
    """The rows of a file whose rows are the head's, then each tail's in
    turn: the head, with the tails' rows added; its grid() is the file's.

    The tails' keys are numbered into the head's tables in that order, so a
    key keeps its first spelling (0.0 or -0.0), as in a whole read. The
    column of a cell no part before has is taken as it is if the tail's
    time slots are the joined ones, as in a cell-major file; any other is
    scattered into place. A (cell, time) that two parts give raises, with
    no line number; grid() raises for a file with no rows or one mixing
    daily and hourly rows, and then for the first repeat within a part.
    """
    head.repeated = next((p.repeated for p in (head, *tails) if p.repeated is not None), None)
    n_cells = len(head.cells.keys)
    numbered = []
    for tail in tails:
        slots = np.empty(len(tail.times.keys), np.intp)  # the head's slot of each tail slot
        slots[tail.times.slots] = head.times.number(tail.times.keys)
        cells = np.empty(len(tail.cells.keys), np.intp)  # the head's cell of each tail column
        cells[tail.cells.slots] = head.cells.number(tail.cells.keys)
        numbered.append((slots, cells.tolist(), tail.columns))
    length = len(head.times.keys)
    columns: list[np.ndarray | None] = [
        column if len(column) >= length else np.r_[column, np.full(length - len(column), np.nan)]
        for column in head.columns
    ]
    columns.extend(None for _ in range(len(head.cells.keys) - n_cells))
    for slots, cells, tail_columns in numbered:
        same_slots = len(slots) == length and bool((slots == np.arange(length)).all())
        for cell, column in zip(cells, tail_columns):
            if columns[cell] is None:
                if same_slots:
                    columns[cell] = column
                    continue
                columns[cell] = np.full(length, np.nan)
            given = ~np.isnan(column)
            at = slots[given]
            if not np.isnan(columns[cell][at]).all():
                raise ValueError("duplicate grid entry")
            columns[cell][at] = column[given]
    head.columns = columns
    return head


class _DayReader:
    """A (time, lat, lon) raster read one step-1 slice of its first axis at
    a time; any other index is a TypeError. A subclass sets `shape` and
    defines `_read(start, stop)`."""

    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, key: slice) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError(f"a raster reads step-1 slices of days only, not {key!r}")
        start, stop, _ = key.indices(self.shape[0])
        return self._read(start, max(start, stop))


class CellColumns(_DayReader):
    """A grid CSV's values, held once: one column per cell, indexed by time slot.

    A slice of days is built in (time, lat, lon) order, NaN where a cell
    or a time has no value.
    """

    def __init__(self, columns: list[np.ndarray], places: np.ndarray, slots: np.ndarray, shape):
        self._columns = columns
        self._places = places  # the flat (lat, lon) index of each column's cell
        self._slots = slots  # the slot of each time, in time order
        self.shape = shape

    def _read(self, start: int, stop: int) -> np.ndarray:
        block = np.full((stop - start, math.prod(self.shape[1:])), np.nan)
        slots = self._slots[start:stop]
        for place, column in zip(self._places.tolist(), self._columns):
            block[:, place] = column[slots]
        return block.reshape(stop - start, *self.shape[1:])


class RasterReader(_DayReader):
    """A C-ordered `.npy` array on disk, read one slice of its first axis at a time.

    A slice reads only its rows (`np.fromfile` at their offset).
    """

    def __init__(self, path: Path, shape: tuple[int, ...], dtype: np.dtype, offset: int):
        self.path, self.shape, self.dtype, self._offset = path, shape, dtype, offset
        self._row_size = math.prod(shape[1:])

    def _read(self, start: int, stop: int) -> np.ndarray:
        count = (stop - start) * self._row_size
        offset = self._offset + start * self._row_size * self.dtype.itemsize
        rows = np.fromfile(self.path, self.dtype, count, offset=offset)
        return rows.reshape(stop - start, *self.shape[1:])


def _open_raster(path: Path) -> np.ndarray | RasterReader:
    """A reader of the `.npy` file; a Fortran-ordered array, or one in a
    header version other than 1.0 and 2.0, is read whole."""
    fmt = np.lib.format
    headers = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}
    with open(path, "rb") as fh:
        version = fmt.read_magic(fh)
        if version not in headers:
            return np.load(path)
        shape, fortran_order, dtype = headers[version](fh)
        offset = fh.tell()
    if dtype.hasobject:
        raise ValueError(f"raster {path} holds Python objects; only numeric rasters are read")
    if fortran_order:
        return np.load(path)
    reader = RasterReader(path, shape, dtype, offset)
    have, want = path.stat().st_size - offset, reader.size * dtype.itemsize
    if have < want:
        raise ValueError(f"raster {path} holds {have} bytes of data; its header declares {want}")
    return reader


def _sidecar_times(path: Path, texts: list, hourly: bool) -> np.ndarray:
    """A raster sidecar's times, checked as TemperatureGrid states."""
    try:
        keys = _time_keys(texts)
        days = numbers_to_days(keys[keys < _HOURLY] - _DAY_KEY)
    except ValueError:
        with suppress(ValueError):  # one at a time, up to the first that fails
            for n, text in enumerate(texts):
                _check_days(_time_keys([text]))
        keys = _check_days(_time_keys(texts[:n]))
    bad = np.r_[(keys >= _HOURLY) != hourly, True]  # past the keys: a failed text, or the end
    bad[1 : len(keys)] |= keys[1:] <= keys[:-1]
    if (i := int(np.argmax(bad))) < len(texts):
        raise ValueError(f"{path}: bad time {i}: {texts[i]!r}")
    # All keys are of one kind, so either every key is a day or none is.
    return days if len(days) == len(keys) else keys.astype("datetime64[us]")


# Each key a sidecar must have: the JSON type of its value, and that type's name.
_SIDECAR_KEYS = {
    "lats": (list, "an array"),
    "lons": (list, "an array"),
    "times": (list, "an array"),
    "hourly": (bool, "true or false"),
}


def load_grid_raster(path: Path | str) -> TemperatureGrid:
    """Open a `.npy` raster and its JSON sidecar of axes; values are read lazily."""
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    for key, (kind, name) in _SIDECAR_KEYS.items():
        if not isinstance(sidecar, dict) or key not in sidecar:
            raise ValueError(f"{sidecar_path}: no {key!r}")
        if not isinstance(sidecar[key], kind):
            raise ValueError(f"{sidecar_path}: {key!r} is not {name}: {sidecar[key]!r}")
    times = _sidecar_times(sidecar_path, sidecar["times"], sidecar["hourly"])
    values = _open_raster(path)
    lats = np.array(sidecar["lats"], dtype=float)
    lons = np.array(sidecar["lons"], dtype=float)
    if values.shape != (len(times), len(lats), len(lons)):
        raise ValueError(
            f"raster shape {values.shape} does not match sidecar axes "
            f"({len(times)}, {len(lats)}, {len(lons)})"
        )
    return TemperatureGrid(lats, lons, times, values)


def load_temperature_grid(path: Path | str) -> TemperatureGrid:
    """Load a grid from either format, dispatching on the file suffix."""
    path = Path(path)
    if path.suffix == ".npy":
        return load_grid_raster(path)
    with open(path, encoding="utf-8") as fh:
        return read_grid_csv(fh)


def _scatter(entries: dict[tuple, object], what: str, dtype) -> tuple[list[np.ndarray], np.ndarray]:
    """The sorted axis of each key column of the entries, and an array on
    those axes holding each entry's value (0 where there is none)."""
    if not entries:
        raise ValueError(f"{what} file has no data rows")
    keys = [np.array(column) for column in zip(*entries)]
    axes = [np.unique(column) for column in keys]
    values = np.zeros([len(axis) for axis in axes], dtype=dtype)
    values[tuple(np.searchsorted(a, k) for a, k in zip(axes, keys))] = list(entries.values())
    return axes, values


def read_population_csv(source: IO[str] | Iterable[str]) -> PopulationGrid:
    entries: dict[tuple[int, float, float], float] = {}
    for lineno, (lat_s, lon_s, epoch_s, persons_s) in split_rows(source, POPULATION_HEADER):
        lat = parse_float(lat_s, lineno, "lat")
        lon = parse_float(lon_s, lineno, "lon")
        epoch = parse_int(epoch_s, lineno, "epoch")
        persons = parse_float(persons_s, lineno, "persons")
        if persons < 0:
            raise ValueError(f"line {lineno}: negative persons value {persons_s!r}")
        if (epoch, lat, lon) in entries:
            raise ValueError(
                f"line {lineno}: duplicate population entry for ({lat}, {lon}, {epoch})"
            )
        entries[epoch, lat, lon] = persons
    (epochs, lats, lons), weights = _scatter(entries, "population", float)
    return PopulationGrid(lats, lons, epochs.tolist(), weights)


def read_mask_csv(source: IO[str] | Iterable[str]) -> RegionMask:
    entries: dict[tuple[float, float], bool] = {}
    for lineno, (lat_s, lon_s, flag_s) in split_rows(source, MASK_HEADER):
        lat = parse_float(lat_s, lineno, "lat")
        lon = parse_float(lon_s, lineno, "lon")
        if flag_s not in ("0", "1"):
            raise ValueError(f"line {lineno}: in_region must be 0 or 1, got {flag_s!r}")
        if (lat, lon) in entries:
            raise ValueError(f"line {lineno}: duplicate mask entry for ({lat}, {lon})")
        entries[lat, lon] = flag_s == "1"
    (lats, lons), mask = _scatter(entries, "mask", bool)
    return RegionMask(lats, lons, mask)


def attach_mask(grid: TemperatureGrid, mask: RegionMask) -> TemperatureGrid:
    if not np.array_equal(grid.lats, mask.lats) or not np.array_equal(
        grid.lons, mask.lons
    ):
        raise ValueError("region mask is not co-registered with the temperature grid")
    return replace(grid, mask=mask.mask.copy())


# -- regional temperature series ---------------------------------------------


def daily_cell_means(grid: TemperatureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Collapse an hourly grid to per-cell daily means; pass daily through.

    The hours are read whole days at a time, at most _BLOCK_DAYS days per read.
    """
    if not grid.is_hourly:
        return grid.times, grid.values
    days = grid.times.astype("datetime64[D]")
    # The first hour of each day, then the end of the last day.
    starts = np.flatnonzero(np.r_[True, days[1:] != days[:-1], True])
    means: list[np.ndarray] = []
    for d0 in range(0, len(starts) - 1, _BLOCK_DAYS):
        edges = starts[d0 : d0 + _BLOCK_DAYS + 1].tolist()
        block = grid.values[edges[0] : edges[-1]]
        offsets = [i - edges[0] for i in edges]
        means.extend(block[a:b].mean(axis=0) for a, b in zip(offsets, offsets[1:]))
    return days[starts[:-1]], np.stack(means)


def _region_blocks(grid: TemperatureGrid) -> tuple[np.ndarray, np.ndarray, Iterator[tuple]]:
    """The grid's days (`datetime64[D]`), the region mask, and per block of
    days (index of its first day, block, whether each day has a NaN cell).

    A block holds the masked-in cells of up to _BLOCK_DAYS days, one row
    per day, copied to C order: a row then reduces with the same pairwise
    sums as the 1-D array of that day's cells, which the F-ordered
    `values[:, mask]` does not.
    """
    days, values = daily_cell_means(grid)
    mask = grid.mask if grid.mask is not None else np.ones(values.shape[1:], dtype=bool)
    if not mask.any():
        raise ValueError("region mask selects no cells")

    def blocks() -> Iterator[tuple]:
        for i0 in range(0, len(days), _BLOCK_DAYS):
            block = np.ascontiguousarray(values[i0 : i0 + _BLOCK_DAYS][:, mask])
            yield i0, block, np.isnan(block).any(axis=1)

    return days, mask, blocks()


def _raise_first(day_axis: np.ndarray, i0: int, nan_rows: np.ndarray, zero_rows=False) -> None:
    """Raise the error of the block's first bad day, checking NaN cells first."""
    i = int(np.argmax(nan_rows | zero_rows))
    day = day_axis[i0 + i].item()
    if nan_rows[i]:
        raise ValueError(f"missing temperature inside region on {day.isoformat()}")
    raise ValueError(f"population weights sum to zero inside region for {day.year}")


def _epoch_index(epochs: list[int], year: int) -> int:
    # Piecewise-constant, nearest-previous epoch; years before the first
    # epoch fall back to it.
    eligible = [e for e in epochs if e <= year]
    return epochs.index(max(eligible) if eligible else min(epochs))


def population_weighted_daily_temp(
    grid: TemperatureGrid, pop: PopulationGrid | None = None
) -> DailySeries:
    """Reduce a gridded temperature field to one regional value per day.

    Each day's value is the weighted mean over masked-in cells, with
    weights taken from the population epoch in force on that date. With
    pop=None the mean is unweighted. Hourly grids are first averaged to
    daily values per cell. A NaN cell or a zero total weight inside the
    mask is an error; a day missing from the grid is missing from the series.
    """
    day_axis, mask, blocks = _region_blocks(grid)
    if pop is None:
        # One epoch of unit weights: x * 1.0 is x, so the bits are the plain mean's.
        rows, day_epoch = np.ones((1, int(mask.sum()))), np.zeros(len(day_axis), np.intp)
    else:
        if not np.array_equal(grid.lats, pop.lats) or not np.array_equal(grid.lons, pop.lons):
            raise ValueError("population grid is not co-registered with the temperature grid")
        # One row of masked weights per epoch, and each day's epoch.
        rows = np.ascontiguousarray(pop.weights[:, mask])
        years, year_of_day = np.unique(to_years(day_axis), return_inverse=True)
        epochs = [_epoch_index(pop.epochs, year) for year in years.tolist()]
        day_epoch = np.array(epochs, dtype=np.intp)[year_of_day]
    totals = rows.sum(axis=1)

    out = np.empty(len(day_axis))
    for i0, block, nan_rows in blocks:
        epoch = day_epoch[i0 : i0 + len(block)]
        zero_rows = totals[epoch] <= 0
        if nan_rows.any() or zero_rows.any():
            _raise_first(day_axis, i0, nan_rows, zero_rows)
        out[i0 : i0 + len(block)] = (rows[epoch] * block).sum(axis=1) / totals[epoch]
    return DailySeries.from_days(day_axis, out)


def spatial_temp_stddev(grid: TemperatureGrid) -> float:
    """Mean over days of the across-cell standard deviation of daily means.

    Uses the unweighted population standard deviation over masked-in
    cells. A single-cell mask returns 0 with a warning.
    """
    day_axis, mask, blocks = _region_blocks(grid)
    if mask.sum() == 1:
        warnings.warn(
            "single-cell region mask: spatial standard deviation is 0 by convention"
        )
        return 0.0
    stds = []
    for i0, block, nan_rows in blocks:
        if nan_rows.any():
            _raise_first(day_axis, i0, nan_rows)
        stds.append(block.std(axis=1))
    if not stds:
        raise ValueError("temperature grid has no days")
    return float(np.mean(np.concatenate(stds)))


# -- demand-temperature cubic and reference temperature ----------------------


def fit_demand_temperature_cubic(
    pairs: Iterable[tuple[float, float]], year: int | None = None
) -> CubicDemandFit:
    """Least-squares cubic of peak demand (MW) against daily mean temp (C).

    The abscissa is rescaled internally before solving (raw normal
    equations on T^3 scales are badly conditioned) and the coefficients
    are converted back to the plain power basis for reporting.
    """
    pts = list(pairs)
    t = np.array([p[0] for p in pts], dtype=float)
    d = np.array([p[1] for p in pts], dtype=float)
    if np.unique(t).size < 4:
        raise ValueError(
            f"cubic fit needs at least 4 distinct temperatures, got {np.unique(t).size}"
        )
    poly = np.polynomial.Polynomial.fit(t, d, 3).convert()
    coef = np.zeros(4)
    coef[: poly.coef.size] = poly.coef  # ascending powers
    return CubicDemandFit(
        year=year,
        a1=float(coef[3]),
        a2=float(coef[2]),
        a3=float(coef[1]),
        a4=float(coef[0]),
        fit_range=(float(t.min()), float(t.max())),
    )


def reference_temperature(fit: CubicDemandFit) -> float:
    """Temperature of the fitted demand minimum inside the fit range.

    Solves 3*a1*T^2 + 2*a2*T + a3 = 0 and keeps the root with positive
    curvature (6*a1*T + 2*a2 > 0). Degenerates to the parabola vertex when
    a1 = 0. Raises if no interior local minimum exists in range.
    """
    a1, a2, a3 = fit.a1, fit.a2, fit.a3
    lo, hi = fit.fit_range
    candidates: list[float] = []
    if a1 == 0:
        if a2 <= 0:
            raise ValueError("demand fit has no interior minimum (a1=0, a2<=0)")
        candidates.append(-a3 / (2 * a2))
    else:
        a, b, c = 3 * a1, 2 * a2, a3
        disc = b * b - 4 * a * c
        if disc <= 0:
            raise ValueError("demand fit has no interior minimum (no stationary points)")
        # Numerically stable quadratic roots; a3 can be tiny relative to a2.
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0))
        for root in (q / a, c / q if q != 0 else None):
            if root is not None and 6 * a1 * root + 2 * a2 > 0:
                candidates.append(root)
    in_range = [r for r in candidates if lo <= r <= hi]
    if not in_range:
        raise ValueError(
            f"demand minimum at {candidates} lies outside the fit range ({lo}, {hi})"
            if candidates
            else "demand fit has no minimum"
        )
    return in_range[0]


def global_t0(t0_values: Iterable[float]) -> float:
    """Arithmetic mean of the yearly reference temperatures."""
    values = list(t0_values)
    if not values:
        raise ValueError("no yearly reference temperatures to average")
    return left_sum(values) / len(values)


def degree_day_series(temps: DailySeries, t0: float) -> DailySeries:
    """Absolute deviation of each day's mean temperature from t0, missing
    days kept missing."""
    v = temps.values
    return DailySeries(temps.first, np.where(v >= t0, v - t0, t0 - v))


def annual_means(temps: DailySeries) -> dict[int, float]:
    """Per-year mean of a daily regional temperature series."""
    years = to_years(temps.days[temps.present])
    values = temps.values[temps.present]
    return {
        year: left_sum(values[years == year]) / int((years == year).sum())
        for year in np.unique(years).tolist()
    }
