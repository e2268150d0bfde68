"""Lowest-average sliding-window search over daily series.

A shoulder season is the run of `window_len` consecutive days (default
45) with the lowest mean value of a metric, searched once per half-year:
onsets in January-June define the spring season, onsets in July-December
the fall season. Windows may extend past the half boundary, and fall
windows may reach into the next calendar year when that data exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping

import numpy as np

from .ingest import DEFAULT_MIN_HOURS, DailyLoad, DailySeries

DEFAULT_WINDOW_LEN = 45
# A candidate window tolerates up to this many absent days; its mean is
# taken over the days that are present.
DEFAULT_MAX_MISSING = 3

_HALVES = {
    "first": ((1, 1), (6, 30), "spring"),
    "second": ((7, 1), (12, 31), "fall"),
}

@dataclass(frozen=True)
class ShoulderWindow:
    year: int
    season: str  # spring | fall
    metric: str  # degree_days | total_energy | peak_demand
    onset: date
    window_mean: float
    days_used: int


def min_window(
    series: DailySeries | Mapping[date, float],
    year: int,
    half: str,
    window_len: int = DEFAULT_WINDOW_LEN,
    max_missing: int = DEFAULT_MAX_MISSING,
    allow_year_wrap: bool = True,
    metric: str = "value",
) -> ShoulderWindow:
    """Find the lowest-mean window of `window_len` days starting in `half`.

    Candidate onsets are every day of the half. A window is admissible
    when it ends inside the data domain and at least window_len -
    max_missing of its days are present. The domain ends on Dec 31 unless
    allow_year_wrap is set and the series' day axis reaches into the next
    year, in which case it ends on the axis' last day. Ties resolve to
    the earliest onset. Raises ValueError when no candidate window is
    admissible. A mapping is laid out on a day axis first.
    """
    if half not in _HALVES:
        raise ValueError(f"half must be 'first' or 'second', got {half!r}")
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    if not isinstance(series, DailySeries):
        series = DailySeries.from_mapping(series)
    (m0, d0), (m1, d1), season = _HALVES[half]
    half_start = date(year, m0, d0)
    half_end = date(year, m1, d1)
    year_end = date(year, 12, 31)

    last_day = series.first + timedelta(days=len(series) - 1) if len(series) else half_start
    domain_end = last_day if (allow_year_wrap and last_day > year_end) else year_end
    span_end = min(domain_end, half_end + timedelta(days=window_len - 1))
    n_days = (span_end - half_start).days + 1
    if n_days < window_len:
        raise ValueError(
            f"no room for a {window_len}-day window in the {half} half of {year}"
        )

    values = series.window(half_start, n_days)
    present = np.isfinite(values)
    # Prefix sums from half_start give every window mean in one pass; sums
    # from the series' first day would change the means' last bits.
    csum = np.concatenate(([0.0], np.cumsum(np.where(present, values, 0.0))))
    ccount = np.concatenate(([0], np.cumsum(present)))

    n_onsets = min((half_end - half_start).days + 1, n_days - window_len + 1)
    counts = ccount[window_len : window_len + n_onsets] - ccount[:n_onsets]
    sums = csum[window_len : window_len + n_onsets] - csum[:n_onsets]
    min_present = max(window_len - max_missing, 1)
    means = sums / np.maximum(counts, 1)  # an empty window is no candidate anyway
    # Other onsets read +inf, so the first minimum is the earliest best onset;
    # a NaN or +inf mean (from overflowing sums) is never a candidate.
    candidate = (counts >= min_present) & (means < math.inf)
    best = int(np.argmin(np.where(candidate, means, math.inf)))
    if not candidate[best]:
        raise ValueError(
            f"no admissible {window_len}-day window in the {half} half of {year} "
            f"(need >= {min_present} present days per window)"
        )
    return ShoulderWindow(
        year=year,
        season=season,
        metric=metric,
        onset=half_start + timedelta(days=best),
        window_mean=float(means[best]),
        days_used=int(counts[best]),
    )


def shoulder_table(
    degree_day_series: DailySeries | None = None,
    load_summaries: DailyLoad | None = None,
    window_len: int = DEFAULT_WINDOW_LEN,
    max_missing: int = DEFAULT_MAX_MISSING,
    allow_year_wrap: bool = True,
    min_hours: int = DEFAULT_MIN_HOURS,
) -> list[ShoulderWindow]:
    """One ShoulderWindow per (year, season, metric) with data present.

    Years absent from a series are skipped, as is a half-year with no
    data at all; a half that has data but no admissible window raises.
    Rows are ordered by year, then season (spring first), then metric.
    A load day with fewer than min_hours hours counts as absent.
    """
    by_metric: dict[str, DailySeries] = {}
    if degree_day_series is not None:
        by_metric["degree_days"] = degree_day_series
    if load_summaries is not None:
        for metric in ("total_energy", "peak_demand"):
            by_metric[metric] = load_summaries.series(metric, min_hours)

    rows: list[ShoulderWindow] = []
    for metric, series in by_metric.items():
        days = series.days[series.present]
        months = days.astype("datetime64[M]").astype(int)
        # (year, 0 for the first half or 1 for the second) of each day with data
        halves = set(zip((months // 12 + 1970).tolist(), (months % 12 >= 6).tolist()))
        for year, second in sorted(halves):
            rows.append(
                min_window(
                    series,
                    year,
                    "second" if second else "first",
                    window_len=window_len,
                    max_missing=max_missing,
                    allow_year_wrap=allow_year_wrap,
                    metric=metric,
                )
            )
    season_order = {"spring": 0, "fall": 1}
    rows.sort(key=lambda w: (w.year, season_order[w.season], w.metric))
    return rows
