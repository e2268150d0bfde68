"""Independent brute-force references used to cross-check library output.

The window oracle rebuilds the search from its definition: lay the series
out on a dense day axis, then scan every candidate onset and take each
window's mean directly. No prefix sums, no shared code with the library.

The regional temperature references (population-weighted daily means
and the spatial standard deviation) and the window search reference are
the per-day code the library used before its dense day-axis one: one
1-D reduction per day, and one Python comparison per candidate onset.

The grid CSV reference and the feed references (load, fuel mix,
outages, daily aggregation, netting, outage-period means and generation
histograms) are the row-by-row code the library used before its columnar
one: one record per row, one Python comparison per record and period.
The period mask reference is the full-column comparison the library used
before it searched its sorted time columns.
They share the library's wide row validators (`float()`, `int()`,
`datetime.fromisoformat`), so where the grammars overlap the error
messages agree by construction.

The least-squares reference solves the normal equations in exact rational
arithmetic, so it shares no rounding with the library's centred fit.
The cutoff-filtered correlation reference is a two-pass Pearson over the
kept pairs with exactly rounded sums (`math.fsum`), and the merge-year
reference scans the sorted overlap years for a long enough run.
The shift probability reference is the closed form through `math.erfc`;
the outlier-exclusion reference refits in exact arithmetic after each
removal, and the demand-minimum reference searches a dense grid of the
cubic in exact arithmetic.
"""

from __future__ import annotations

import math
from datetime import date, datetime, timedelta
from fractions import Fraction
from typing import NamedTuple, Sequence

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

    from shoulderseason.tables import parse_float, split_rows
    from shoulderseason.thermal import GRID_HEADER, TemperatureGrid, _parse_time

    entries = []
    for lineno, (lat_s, lon_s, time_s, val_s) in split_rows(source, GRID_HEADER):
        lat = parse_float(lat_s, lineno, "lat")
        lon = parse_float(lon_s, lineno, "lon")
        t = _parse_time(time_s, lineno)
        val = parse_float(val_s, lineno, "t2m_c")
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


# NamedTuples, not dataclasses: the benchmark loads this file without
# registering it in sys.modules, where a dataclass cannot be built.
class HourlyLoadRecord(NamedTuple):
    timestamp: datetime
    load_mw: float


class FuelMixRecord(NamedTuple):
    timestamp: datetime
    wind_mw: float
    solar_mw: float
    hydro_mw: float
    other_mw: float

    @property
    def non_thermal_mw(self) -> float:
        return self.wind_mw + self.solar_mw + self.hydro_mw


class OutageRecord(NamedTuple):
    timestamp: datetime
    outage_mw: float
    telemetered_output_mw: float | None = None


def _sum(values) -> float:
    """Left to right from 0, as sum() adds floats before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def reference_parse_hourly_load(source) -> list[HourlyLoadRecord]:
    from shoulderseason.ingest import LOAD_HEADER, _check_increasing
    from shoulderseason.tables import parse_date, parse_float, split_rows

    records: list[HourlyLoadRecord] = []
    prev: datetime | None = None
    for lineno, (day_s, hour_s, load_s) in split_rows(source, LOAD_HEADER):
        day = parse_date(day_s, lineno, "date")
        try:
            hour = int(hour_s)
        except ValueError:
            raise ValueError(f"line {lineno}: bad hour {hour_s!r}") from None
        if not 0 <= hour <= 23:
            raise ValueError(f"line {lineno}: hour {hour} out of range 0-23")
        load = parse_float(load_s, lineno, "load_mw")
        if load < 0:
            raise ValueError(f"line {lineno}: negative load {load_s!r}")
        ts = datetime(day.year, day.month, day.day, hour)
        _check_increasing(ts, prev, lineno)
        records.append(HourlyLoadRecord(ts, load))
        prev = ts
    return records


def reference_parse_fuel_mix(source) -> list[FuelMixRecord]:
    from shoulderseason.ingest import FUEL_MIX_HEADER, _check_increasing, _parse_timestamp
    from shoulderseason.tables import parse_float, split_rows

    records: list[FuelMixRecord] = []
    prev: datetime | None = None
    for lineno, fields in split_rows(source, FUEL_MIX_HEADER):
        ts = _parse_timestamp(fields[0], lineno)
        if ts.minute % 15 or ts.second or ts.microsecond:
            raise ValueError(
                f"line {lineno}: timestamp {fields[0]!r} not on a 15-minute boundary"
            )
        values = []
        for name, text in zip(("wind_mw", "solar_mw", "hydro_mw", "other_mw"), fields[1:]):
            value = parse_float(text, lineno, name)
            if value < 0:
                raise ValueError(f"line {lineno}: negative {name} value {text!r}")
            values.append(value)
        _check_increasing(ts, prev, lineno)
        records.append(FuelMixRecord(ts, *values))
        prev = ts
    return records


def reference_parse_outages(source) -> list[OutageRecord]:
    from shoulderseason.ingest import OUTAGE_HEADER, _check_increasing, _parse_timestamp
    from shoulderseason.tables import parse_float, split_rows

    records: list[OutageRecord] = []
    prev: datetime | None = None
    for lineno, (ts_s, outage_s, telem_s) in split_rows(source, OUTAGE_HEADER):
        ts = _parse_timestamp(ts_s, lineno)
        if ts.minute % 15 or ts.second or ts.microsecond:
            raise ValueError(
                f"line {lineno}: timestamp {ts_s!r} not on a 15-minute boundary"
            )
        outage = parse_float(outage_s, lineno, "outage_mw")
        if outage < 0:
            raise ValueError(f"line {lineno}: negative outage_mw value {outage_s!r}")
        telem: float | None = None
        if telem_s:
            telem = parse_float(telem_s, lineno, "telemetered_output_mw")
            if telem < 0:
                raise ValueError(
                    f"line {lineno}: negative telemetered_output_mw value {telem_s!r}"
                )
        _check_increasing(ts, prev, lineno)
        records.append(OutageRecord(ts, outage, telem))
        prev = ts
    return records


class DailyLoadRecord(NamedTuple):
    day: date
    total_energy_mwh: float
    peak_demand_mw: float
    hours_present: int


def reference_aggregate_daily(hourly: Sequence[HourlyLoadRecord]) -> list[DailyLoadRecord]:
    summaries = []
    current: date | None = None
    total = 0.0
    peak = 0.0
    hours = 0

    def flush() -> None:
        if current is not None:
            summaries.append(DailyLoadRecord(current, total, peak, hours))

    for rec in hourly:
        day = rec.timestamp.date()
        if day != current:
            flush()
            current, total, peak, hours = day, 0.0, 0.0, 0
        total += rec.load_mw
        peak = max(peak, rec.load_mw)
        hours += 1
    flush()
    return summaries


def reference_hourly_mix(mix: Sequence[FuelMixRecord]) -> dict[datetime, float]:
    """The mean non-thermal MW of each hour with samples, in hour order."""
    by_hour: dict[datetime, list[float]] = {}
    for rec in mix:
        key = rec.timestamp.replace(minute=0)
        by_hour.setdefault(key, []).append(rec.non_thermal_mw)
    return {hour: _sum(samples) / len(samples) for hour, samples in by_hour.items()}


def reference_net_non_thermal(
    hourly: Sequence[HourlyLoadRecord], mix: Sequence[FuelMixRecord]
) -> list[HourlyLoadRecord]:
    means = reference_hourly_mix(mix)
    netted: list[HourlyLoadRecord] = []
    for rec in hourly:
        non_thermal = means.get(rec.timestamp)
        if non_thermal is None:
            raise ValueError(
                f"missing fuel-mix coverage for load hour {rec.timestamp.isoformat()}"
            )
        netted.append(HourlyLoadRecord(rec.timestamp, max(rec.load_mw - non_thermal, 0.0)))
    return netted


def reference_period_mask(times: np.ndarray, ranges) -> np.ndarray:
    """The library's full-column comparison mask, from before its binary
    search: correct on a column in any order."""
    if not ranges:
        raise ValueError("period has no date ranges")
    mask = np.zeros(len(times), bool)
    for start, end in ranges:
        mask |= (times >= np.datetime64(start, "D")) & (times < np.datetime64(end, "D") + 1)
    return mask


def _in_period(record: OutageRecord, ranges) -> bool:
    day = record.timestamp.date()
    return any(start <= day <= end for start, end in ranges)


def reference_average_outages(outages: Sequence[OutageRecord], ranges, label: str):
    from shoulderseason.adequacy import MW_PER_GW, PeriodOutageStat

    values = [r.outage_mw for r in outages if _in_period(r, ranges)]
    start = min(r[0] for r in ranges)
    end = max(r[1] for r in ranges)
    if not values:
        raise ValueError(
            f"no outage records between {start.isoformat()} and {end.isoformat()}"
        )
    return PeriodOutageStat(
        label=label,
        start=start,
        end=end,
        mean_outage_gw=_sum(values) / len(values) / MW_PER_GW,
        n_records=len(values),
    )


def reference_generation_histogram(
    outages: Sequence[OutageRecord], ranges, bin_width_mw: float, peak_demand_mw: float
):
    from shoulderseason.adequacy import GenerationHistogram

    if bin_width_mw <= 0:
        raise ValueError("bin_width_mw must be > 0")
    values = [
        r.telemetered_output_mw
        for r in outages
        if _in_period(r, ranges) and r.telemetered_output_mw is not None
    ]
    start = min(r[0] for r in ranges)
    end = max(r[1] for r in ranges)
    if not values:
        raise ValueError(
            f"no telemetered output between {start.isoformat()} and {end.isoformat()}"
        )
    lo = math.floor(min(values) / bin_width_mw) * bin_width_mw
    n_bins = max(1, math.ceil((max(values) - lo) / bin_width_mw))
    if lo + n_bins * bin_width_mw <= max(values):
        n_bins += 1
    edges = [lo + i * bin_width_mw for i in range(n_bins + 1)]
    counts, _ = np.histogram(values, bins=edges)
    return GenerationHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        peak_demand_mw=peak_demand_mw,
        max_output_mw=float(max(values)),
    )


# -- per-day regional temperatures and window search --------------------------


def _reference_region(grid):
    """The days, each day's cell values and the region mask: an hourly
    grid's hours are averaged per cell, one day at a time."""
    days, values = grid.times.tolist(), grid.values[:]
    if days and isinstance(days[0], datetime):
        hours = {}
        for t, row in zip(days, values):
            hours.setdefault(t.date(), []).append(row)
        days, values = list(hours), np.array([np.mean(rows, axis=0) for rows in hours.values()])
    mask = grid.mask if grid.mask is not None else np.ones(values.shape[1:], dtype=bool)
    if not mask.any():
        raise ValueError("region mask selects no cells")
    return days, values, mask


def reference_population_weighted_daily_temp(grid, pop=None) -> list[tuple[date, float]]:
    """(day, regional temperature) per grid day, reduced one day at a time."""
    days, values, mask = _reference_region(grid)
    if pop is not None and (
        not np.array_equal(grid.lats, pop.lats) or not np.array_equal(grid.lons, pop.lons)
    ):
        raise ValueError("population grid is not co-registered with the temperature grid")
    out = []
    for i, d in enumerate(days):
        cells = values[i][mask]
        if np.isnan(cells).any():
            raise ValueError(f"missing temperature inside region on {d.isoformat()}")
        if pop is None:
            t_avg = float(cells.mean())
        else:
            # Piecewise-constant, nearest-previous epoch; years before the
            # first epoch fall back to it.
            eligible = [e for e in pop.epochs if e <= d.year]
            epoch = max(eligible) if eligible else min(pop.epochs)
            w = pop.weights[pop.epochs.index(epoch)][mask]
            total = float(w.sum())
            if total <= 0:
                raise ValueError(f"population weights sum to zero inside region for {d.year}")
            t_avg = float((w * cells).sum() / total)
        out.append((d, t_avg))
    return out


def reference_spatial_temp_stddev(grid) -> float:
    import warnings

    days, values, mask = _reference_region(grid)
    if int(mask.sum()) == 1:
        warnings.warn("single-cell region mask: spatial standard deviation is 0 by convention")
        return 0.0
    stds = []
    for i, d in enumerate(days):
        cells = values[i][mask]
        if np.isnan(cells).any():
            raise ValueError(f"missing temperature inside region on {d.isoformat()}")
        stds.append(float(cells.std()))
    return float(np.mean(stds))


def reference_min_window(
    series: dict[date, float],
    year: int,
    half: str,
    window_len: int = 45,
    max_missing: int = 3,
    allow_year_wrap: bool = True,
):
    """(onset, window mean, days used), or the error text, by a loop over onsets.

    The window means come from prefix sums taken from the half's first day,
    as in the library, so they match it bit for bit.
    """
    if half == "first":
        half_start, half_end = date(year, 1, 1), date(year, 6, 30)
    else:
        half_start, half_end = date(year, 7, 1), date(year, 12, 31)
    year_end = date(year, 12, 31)
    last_day = max(series) if series else half_start
    domain_end = last_day if (allow_year_wrap and last_day > year_end) else year_end
    span_end = min(domain_end, half_end + timedelta(days=window_len - 1))
    n_days = (span_end - half_start).days + 1
    if n_days < window_len:
        return f"no room for a {window_len}-day window in the {half} half of {year}"

    values = np.full(n_days, np.nan)
    base = half_start.toordinal()
    for day, value in series.items():
        i = day.toordinal() - base
        if 0 <= i < n_days and value is not None and math.isfinite(value):
            values[i] = value
    present = np.isfinite(values)
    csum = np.concatenate(([0.0], np.cumsum(np.where(present, values, 0.0))))
    ccount = np.concatenate(([0], np.cumsum(present)))

    n_onsets = min((half_end - half_start).days + 1, n_days - window_len + 1)
    best_i = -1
    best_mean = math.inf
    best_count = 0
    min_present = max(window_len - max_missing, 1)
    for i in range(n_onsets):
        count = int(ccount[i + window_len] - ccount[i])
        if count < min_present:
            continue
        mean = (csum[i + window_len] - csum[i]) / count
        if mean < best_mean:
            best_i, best_mean, best_count = i, mean, count
    if best_i < 0:
        return (
            f"no admissible {window_len}-day window in the {half} half of {year} "
            f"(need >= {min_present} present days per window)"
        )
    return date.fromordinal(base + best_i), float(best_mean), best_count


def exact_ols(points: Sequence[tuple[int, int]]) -> tuple[Fraction, Fraction, Fraction]:
    """Slope, intercept and squared slope stderr of a least-squares line, exactly.

    Solves the normal equations [[n, Sx], [Sx, Sxx]] (a, b) = (Sy, Sxy) in
    Fractions. The squared stderr is SSR / (n - 2) / (Sxx - Sx**2 / n), and 0
    for two points, as the library gives. Raises ValueError when every x is
    the same.
    """
    n = len(points)
    sx = sum(Fraction(x) for x, _ in points)
    sy = sum(Fraction(y) for _, y in points)
    sxx = sum(Fraction(x) * x for x, _ in points)
    sxy = sum(Fraction(x) * y for x, y in points)
    det = n * sxx - sx * sx
    if det == 0:
        raise ValueError("all x values identical")
    slope = (n * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    ssr = sum((y - slope * x - intercept) ** 2 for x, y in points)
    return slope, intercept, ssr / (n - 2) / (det / n) if n > 2 else Fraction(0)


# -- correlation with a seasonal cutoff, and the merge year ---------------------


def _day_number(onset: date) -> float:
    return float(onset.toordinal() - date(onset.year, 1, 1).toordinal() + 1)


def reference_within_cutoff(x_onset: date, season: str, cutoff: date) -> bool:
    """A spring pair is kept when its x onset falls on or after the cutoff, a
    fall pair when it falls on or before it; dates compare by (month, day)."""
    x_key, c_key = (x_onset.month, x_onset.day), (cutoff.month, cutoff.day)
    return x_key >= c_key if season == "spring" else x_key <= c_key


def reference_pearson_with_cutoff(x_onsets, y_onsets, season: str, cutoff: date):
    """(r or the error text, kept years, excluded years) of the years both
    onset mappings share, with r taken in two passes over the kept pairs."""
    kept, excluded = [], []
    for year in sorted(set(x_onsets) & set(y_onsets)):
        keep = reference_within_cutoff(x_onsets[year], season, cutoff)
        (kept if keep else excluded).append(year)
    if len(kept) < 3:
        return f"only {len(kept)} pairs remain after the cutoff; need at least 3", kept, excluded
    xs = [_day_number(x_onsets[y]) for y in kept]
    ys = [_day_number(y_onsets[y]) for y in kept]
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return "zero variance: correlation undefined", kept, excluded
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy), kept, excluded


def reference_merge_year(spring, fall, persistence: int, days_per_year: int = 365):
    """First year of the first run of `persistence` consecutive years whose fall
    interval meets the next spring's (shifted by a year), or None; or the error text."""
    if persistence < 1:
        return "persistence must be >= 1"
    spring_by_year = {p.year: p for p in spring}
    overlap_years = []
    for f in fall:
        s = spring_by_year.get(f.year + 1)
        if s is None:
            continue
        s_low, s_high = s.ci_low + days_per_year, s.ci_high + days_per_year
        if f.ci_low <= s_high and s_low <= f.ci_high and f.ci_low <= f.ci_high and s_low <= s_high:
            overlap_years.append(f.year)
    run_start = previous = None
    for year in sorted(overlap_years):
        if previous is None or year != previous + 1:
            run_start = year
        previous = year
        if year - run_start + 1 >= persistence:
            return run_start
    return None


# -- shift probability, outlier exclusion and the demand minimum ------------------


def reference_shift_probability(slope: float, stderr: float, direction: str) -> float:
    """The normal probability of a shift in `direction`, in closed form:
    Phi(z) = erfc(-z / sqrt(2)) / 2 with z the signed slope over its stderr.
    A zero stderr gives 1, 0 or 1/2 by the sign of the signed slope."""
    signed = -slope if direction == "earlier" else slope
    if stderr == 0:
        return 0.5 if signed == 0 else float(signed > 0)
    return 0.5 * math.erfc(-(signed / stderr) / math.sqrt(2.0))


def reference_auto_exclusions(points, threshold: float = 2.5, max_removals: int = 5):
    """The points studentized auto-exclusion removes, in removal order, by a
    refit from scratch in exact arithmetic after each removal.

    Each round fits the kept points, stops when they fit exactly, number 3,
    or have had `max_removals` removed, and otherwise removes the point with
    the largest internally studentized residual r_i / sqrt(s2 (1 - h_i))
    (the first in x order on a tie) if it exceeds the threshold. Squares are
    compared, so no square root rounds. Returns None when a decision rests
    on a gap smaller than 1e-9 of its size: between the two largest
    residuals, or between the largest and the threshold, where the float
    fit's rounding may decide the other way.
    """
    kept = sorted(points)
    removed = []
    limit = Fraction(threshold) ** 2
    while len(removed) < max_removals and len(kept) > 3:
        slope, intercept, _ = exact_ols(kept)
        xs = [Fraction(x) for x, _ in kept]
        resid = [Fraction(y) - slope * x - intercept for x, (_, y) in zip(xs, kept)]
        n = len(kept)
        s2 = sum(r * r for r in resid) / (n - 2)
        if s2 == 0:
            break
        mean = sum(xs) / n
        sxx = sum((x - mean) ** 2 for x in xs)
        squared = [
            r * r / (s2 * (1 - 1 / Fraction(n) - (x - mean) ** 2 / sxx))
            for r, x in zip(resid, xs)
        ]
        worst = max(range(n), key=lambda i: (squared[i], -i))
        top = squared[worst]
        if abs(top - limit) < limit / 10**9:
            return None
        if top <= limit:
            break
        if top - max(squared[:worst] + squared[worst + 1 :]) < top / 10**9:
            return None
        removed.append(kept.pop(worst))
    return tuple(removed)


def reference_demand_minimum(fit, steps: int = 2**13):
    """The minimum of the fitted demand cubic by a grid search over fit_range
    in exact arithmetic: (grid temperature, grid step) at the grid's interior
    local minimum, or None when the grid has none.

    The grid points are t_k = lo + k (hi - lo) / steps. With c the common
    denominator of lo and the step, u_k = c t_k is an integer, and with L
    the common denominator of the coefficients, c**3 L D(t_k) is an integer
    polynomial in u_k, so no value rounds. The constant term does not move
    the minimum and is left out.
    """
    lo, hi = (Fraction(t) for t in fit.fit_range)
    step = (hi - lo) / steps
    c = math.lcm(lo.denominator, step.denominator)
    coef = [Fraction(a) for a in (fit.a1, fit.a2, fit.a3)]
    scale = math.lcm(*(a.denominator for a in coef))
    e1, e2, e3 = (int(a * scale) for a in coef)
    u = np.arange(steps + 1, dtype=object) * int(step * c) + int(lo * c)
    d = ((e1 * u + e2 * c) * u + e3 * c * c) * u
    inner = np.flatnonzero(((d[1:-1] < d[:-2]) & (d[1:-1] <= d[2:])).astype(bool)) + 1
    if not len(inner):
        return None
    (k,) = inner  # a cubic has at most one local minimum
    return float(lo + k * step), float(step)
