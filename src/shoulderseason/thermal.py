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
from dataclasses import dataclass, replace
from datetime import date, datetime
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .ingest import DailySeries, parse_loadtxt_float, read_csv_chunks, to_days, to_years
from .tables import parse_float, parse_int, split_rows
from .trends import left_sum

GRID_HEADER = "lat,lon,date,t2m_c"
POPULATION_HEADER = "lat,lon,epoch,persons"
MASK_HEADER = "lat,lon,in_region"

_GRID_DTYPE = np.dtype([("lat", "f8"), ("lon", "f8"), ("date", object), ("t2m_c", "f8")])

# Days per block of the regional reductions: bounds the masked copy
# (block days x region cells) each one makes of the raster, and each read
# of a `.npy` raster.
_BLOCK_DAYS = 256


@dataclass
class TemperatureGrid:
    """Co-registered lat/lon raster of 2 m temperature in degrees C.

    values has shape (n_times, n_lats, n_lons). The time axis holds dates
    for daily grids or datetimes for hourly grids. mask marks the cells
    belonging to the analysis region; None means all cells are in. A grid
    loaded from a `.npy` raster holds a RasterReader, which reads the file
    a slice of the time axis at a time.
    """

    lats: np.ndarray
    lons: np.ndarray
    times: list
    values: np.ndarray | RasterReader
    mask: np.ndarray | None = None

    @property
    def is_hourly(self) -> bool:
        return bool(self.times) and isinstance(self.times[0], datetime)


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
    try:
        if "T" in text or " " in text or ":" in text:
            return datetime.fromisoformat(text)
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad date {text!r}") from None


def _check_grid_row(lineno: int, fields: list[str]) -> None:
    lat_s, lon_s, time_s, val_s = fields
    parse_loadtxt_float(lat_s, lineno, "lat")
    parse_loadtxt_float(lon_s, lineno, "lon")
    _parse_time(time_s, lineno)
    parse_loadtxt_float(val_s, lineno, "t2m_c")


class _Codes(dict):
    """Numbers each new key in order of first lookup."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _slots(slots: _Codes, column: np.ndarray) -> np.ndarray:
    """The slot of each value in the column, numbering values not seen before."""
    keys = np.unique(column)
    slot = np.fromiter(map(slots.__getitem__, keys.tolist()), np.intp, len(keys))
    return slot[np.searchsorted(keys, column)]


def read_grid_csv(source: IO[str] | Iterable[str]) -> TemperatureGrid:
    """Read a long-format `lat,lon,date,t2m_c` grid file.

    Missing (time, cell) combinations become NaN; duplicates are an error.
    The date column holds either calendar dates (daily grid) or ISO
    datetimes (hourly grid), never a mixture. Blank lines are skipped but
    counted in error line numbers, and fields are whitespace-trimmed.

    Lines are parsed in chunks by `ingest.read_csv_chunks`, and each chunk
    is scattered into a NaN-filled (time, lat, lon) array as it is read,
    so memory follows the grid and one chunk, not the row count. A chunk
    that fails to parse, or holds a non-finite value or a bad date, is
    rescanned row by row to name its first offending line.
    """
    time_codes = _Codes()  # raw date text -> code
    code_slot = np.empty(0, np.intp)  # code -> time slot
    # Distinct texts can parse to one time ("T05:00", " 05:00:00"): a time
    # slot is keyed by the parsed time, a lat or lon slot by its float.
    axes = (_Codes(), _Codes(), _Codes())
    values = np.full((0, 0, 0), np.nan)  # indexed by slot; grows as slots appear
    repeated: list[str] = []  # the error of the first row that hits a filled cell

    def scatter(rows: np.ndarray) -> None:
        nonlocal code_slot, values
        lat, lon, val = rows["lat"], rows["lon"], rows["t2m_c"]
        known = len(time_codes)
        codes = np.fromiter(map(time_codes.__getitem__, rows["date"]), np.intp, len(rows))
        # The line number is a placeholder: on error the rescan names it.
        new = [axes[0][_parse_time(t.strip(), 0)] for t in islice(time_codes, known, None)]
        if not all(np.isfinite(col).all() for col in (lat, lon, val)):
            raise ValueError("non-finite value")
        if new:
            code_slot = np.concatenate((code_slot, new))
        index = (code_slot[codes], _slots(axes[1], lat), _slots(axes[2], lon))
        # Grow by half, along only the axes that need it: the spare room of
        # the axes multiplies, so a factor of 2 would allow 8 times the grid.
        need = map(len, axes)
        shape = tuple(c if n <= c else max(n, c + c // 2) for n, c in zip(need, values.shape))
        if shape != values.shape:
            grown = np.full(shape, np.nan)
            grown[tuple(map(slice, values.shape))] = values
            values = grown
        flat = np.ravel_multi_index(index, shape)
        cells = values.reshape(-1)
        hit = np.ones(len(flat), bool)  # a cell given earlier in this chunk,
        hit[np.unique(flat, return_index=True)[1]] = False
        hit |= ~np.isnan(cells[flat])  # or by an earlier chunk
        if hit.any() and not repeated:
            row = int(hit.argmax())
            when = _parse_time(rows["date"][row].strip(), 0)
            repeated.append(
                f"duplicate grid entry for ({float(lat[row])}, {float(lon[row])}, {when})"
            )
        cells[flat] = val

    if not read_csv_chunks(source, GRID_HEADER, _GRID_DTYPE, scatter, _check_grid_row):
        raise ValueError("grid file has no data rows")
    if len({isinstance(t, datetime) for t in axes[0]}) > 1:
        raise ValueError("grid file mixes daily and hourly rows")
    if repeated:
        raise ValueError(repeated[0])
    keys = [list(axis) for axis in axes]
    order = [sorted(range(len(k)), key=k.__getitem__) for k in keys]
    lats, lons = (np.array(k, dtype=float)[o] for k, o in zip(keys[1:], order[1:]))
    times = [keys[0][i] for i in order[0]]
    return TemperatureGrid(lats, lons, times, values[np.ix_(*order)])


class RasterReader:
    """A C-ordered `.npy` array on disk, read one slice of its first axis at a time.

    The only index it takes is a step-1 slice, which reads only those rows
    (`np.fromfile` at their offset); any other index is a TypeError.
    """

    def __init__(self, path: Path, shape: tuple[int, ...], dtype: np.dtype, offset: int):
        self.path, self.shape, self.dtype, self._offset = path, shape, dtype, offset
        self.size = math.prod(shape)
        self._row_size = math.prod(shape[1:])

    def _read(self, start: int, stop: int) -> np.ndarray:
        count = (stop - start) * self._row_size
        offset = self._offset + start * self._row_size * self.dtype.itemsize
        rows = np.fromfile(self.path, self.dtype, count, offset=offset)
        return rows.reshape(stop - start, *self.shape[1:])

    def __getitem__(self, key: slice) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError(f"a raster reads step-1 slices of days only, not {key!r}")
        start, stop, _ = key.indices(self.shape[0])
        return self._read(start, max(start, stop))


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


def load_grid_raster(path: Path | str) -> TemperatureGrid:
    """Open a `.npy` raster and its JSON sidecar of axes; values are read lazily."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    parse = datetime.fromisoformat if sidecar["hourly"] else date.fromisoformat
    times = [parse(t) for t in sidecar["times"]]
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


def daily_cell_means(grid: TemperatureGrid) -> tuple[list[date], np.ndarray]:
    """Collapse an hourly grid to per-cell daily means; pass daily through.

    The hours are read whole days at a time, at most _BLOCK_DAYS days per read.
    """
    if not grid.is_hourly:
        return grid.times, grid.values
    days = [t.date() for t in grid.times]
    # The first hour of each day, then the end of the last day.
    starts = [i for i in range(len(days)) if i == 0 or days[i] != days[i - 1]] + [len(days)]
    means: list[np.ndarray] = []
    for d0 in range(0, len(starts) - 1, _BLOCK_DAYS):
        edges = starts[d0 : d0 + _BLOCK_DAYS + 1]
        block = grid.values[edges[0] : edges[-1]]
        offsets = [i - edges[0] for i in edges]
        means.extend(block[a:b].mean(axis=0) for a, b in zip(offsets, offsets[1:]))
    return [days[i] for i in starts[:-1]], np.stack(means)


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

    return to_days(days), mask, blocks()


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
