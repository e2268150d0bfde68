"""Independent brute-force references used to cross-check library output.

The window oracle rebuilds the search from its definition: lay the series
out on a dense day axis, then scan every candidate onset and take each
window's mean directly. No prefix sums, no shared code with the library.

The grid CSV reference is the row-by-row reader the library used before
its chunked one. It shares the library's row validators, so the two
readers' error messages agree by construction.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np


def exhaustive_min_window(
    series: dict[date, float],
    year: int,
    half: str,
    window_len: int = 45,
    max_missing: int = 3,
    allow_year_wrap: bool = True,
):
    """Return (onset, mean, days_used) by exhaustive scan, or None."""
    if half == "first":
        half_start, half_end = date(year, 1, 1), date(year, 6, 30)
    else:
        half_start, half_end = date(year, 7, 1), date(year, 12, 31)
    year_end = date(year, 12, 31)
    last = max(series) if series else half_start
    domain_end = last if (allow_year_wrap and last > year_end) else year_end

    n_days = (domain_end - half_start).days + 1
    dense = np.full(max(n_days, 1), np.nan)
    for day, value in series.items():
        offset = (day - half_start).days
        if 0 <= offset < n_days and np.isfinite(value):
            dense[offset] = value

    min_present = max(window_len - max_missing, 1)
    best = None
    onset = half_start
    while onset <= half_end:
        i = (onset - half_start).days
        if onset + timedelta(days=window_len - 1) <= domain_end:
            window = dense[i : i + window_len]
            finite = window[np.isfinite(window)]
            if finite.size >= min_present:
                mean = float(finite.mean())
                if best is None or mean < best[1]:
                    best = (onset, mean, int(finite.size))
        onset += timedelta(days=1)
    return best


def reference_read_grid_csv(source):
    """Row-by-row grid CSV reader: the reference for `thermal.read_grid_csv`.

    Builds one Python tuple per row, then fills the raster cell by cell,
    raising the first error in file order.
    """
    from datetime import datetime

    from shoulderseason.ingest import _parse_float, _split_rows
    from shoulderseason.thermal import GRID_HEADER, TemperatureGrid, _parse_time

    entries = []
    for lineno, (lat_s, lon_s, time_s, val_s) in _split_rows(source, GRID_HEADER):
        lat = _parse_float(lat_s, lineno, "lat")
        lon = _parse_float(lon_s, lineno, "lon")
        t = _parse_time(time_s, lineno)
        val = _parse_float(val_s, lineno, "t2m_c")
        entries.append((t, lat, lon, val))
    if not entries:
        raise ValueError("grid file has no data rows")
    kinds = {isinstance(e[0], datetime) for e in entries}
    if len(kinds) > 1:
        raise ValueError("grid file mixes daily and hourly rows")

    lats = np.array(sorted({e[1] for e in entries}), dtype=float)
    lons = np.array(sorted({e[2] for e in entries}), dtype=float)
    times = sorted({e[0] for e in entries})
    t_index = {t: i for i, t in enumerate(times)}
    lat_index = {v: i for i, v in enumerate(lats)}
    lon_index = {v: i for i, v in enumerate(lons)}

    values = np.full((len(times), len(lats), len(lons)), np.nan)
    for t, lat, lon, val in entries:
        i, j, k = t_index[t], lat_index[lat], lon_index[lon]
        if not np.isnan(values[i, j, k]):
            raise ValueError(f"duplicate grid entry for ({lat}, {lon}, {t})")
        values[i, j, k] = val
    return TemperatureGrid(lats, lons, times, values)
