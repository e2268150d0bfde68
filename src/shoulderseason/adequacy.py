"""Maintenance-headroom arithmetic: period outage averages, the
shoulder-vs-winter outage increment, unmet-demand fractions under extra
planned outages, and generation-output histograms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .ingest import Outages
from .trends import left_sum

MW_PER_GW = 1000.0

# A period is a list of (start, end) date pairs, pooled; all bounds read
# as closed intervals.
DateRange = tuple[date, date]


def period_mask(times: np.ndarray, period: Sequence[DateRange]) -> np.ndarray:
    """Rows of a datetime64 column whose day falls in any range of the period.

    The column must strictly increase, as the time column of every parsed
    feed does: the rows of a range are then one slice, found by binary search.
    """
    if not period:
        raise ValueError("period has no date ranges")
    bounds = np.array([(start, end + timedelta(days=1)) for start, end in period], "datetime64[D]")
    mask = np.zeros(len(times), bool)
    for lo, hi in np.searchsorted(times, bounds).tolist():
        mask[lo:hi] = True
    return mask


def _span(period: Sequence[DateRange]) -> tuple[date, date]:
    return min(r[0] for r in period), max(r[1] for r in period)


@dataclass(frozen=True)
class PeriodOutageStat:
    label: str
    start: date
    end: date
    mean_outage_gw: float
    n_records: int


@dataclass(frozen=True)
class GenerationHistogram:
    bin_edges: tuple[float, ...]  # MW, len = len(counts) + 1
    counts: tuple[int, ...]
    peak_demand_mw: float
    max_output_mw: float

    @property
    def headroom_mw(self) -> float:
        return self.max_output_mw - self.peak_demand_mw

    @property
    def balanced(self) -> bool:
        # Relative to the output: far finer than the 0.01 MW of the feeds,
        # far coarser than the rounding of one subtraction.
        return math.isclose(self.max_output_mw, self.peak_demand_mw, rel_tol=1e-9)


def average_outages(
    outages: Outages, period: Sequence[DateRange], label: str
) -> PeriodOutageStat:
    """Mean outage capacity over all records in the period, in GW."""
    values = outages.outage_mw[period_mask(outages.timestamps, period)]
    start, end = _span(period)
    if not len(values):
        raise ValueError(
            f"no outage records between {start.isoformat()} and {end.isoformat()}"
        )
    total = left_sum(values)
    return PeriodOutageStat(
        label=label,
        start=start,
        end=end,
        mean_outage_gw=total / len(values) / MW_PER_GW,
        n_records=len(values),
    )


def incremental_maintenance_delta(shoulder_mean_gw: float, winter_mean_gw: float) -> float:
    """Extra outage capacity attributable to shoulder-season maintenance."""
    if shoulder_mean_gw < 0 or winter_mean_gw < 0:
        raise ValueError("period means must be >= 0")
    return shoulder_mean_gw - winter_mean_gw


def unmet_demand_fraction(
    hourly_demand_mw: Sequence[float], max_output_mw: float, extra_outage_mw: float
) -> float:
    """Percent of hours whose demand exceeds max output less extra outages.

    Supply and demand are treated as unmatched populations: the count is a
    plain exceedance frequency, not an hour-by-hour dispatch balance.
    """
    demand = np.asarray(hourly_demand_mw, dtype=float)
    if not len(demand):
        raise ValueError("empty demand series")
    if extra_outage_mw < 0:
        raise ValueError("extra_outage_mw must be >= 0")
    if max_output_mw < extra_outage_mw:
        raise ValueError("max_output_mw must be >= extra_outage_mw")
    threshold = max_output_mw - extra_outage_mw
    exceed = int(np.count_nonzero(demand > threshold))
    return 100.0 * exceed / len(demand)


def generation_histogram(
    outages: Outages, period: Sequence[DateRange], bin_width_mw: float, peak_demand_mw: float
) -> GenerationHistogram:
    """Histogram of telemetered output over a period, with a demand marker.

    Reports the period's maximum output and the headroom above the given
    peak demand; zero headroom flags the period as balanced.
    """
    if bin_width_mw <= 0:
        raise ValueError("bin_width_mw must be > 0")
    values = outages.telemetered_output_mw[period_mask(outages.timestamps, period)]
    values = values[~np.isnan(values)]
    start, end = _span(period)
    if not len(values):
        raise ValueError(
            f"no telemetered output between {start.isoformat()} and {end.isoformat()}"
        )
    # The first maximum in record order, as max() picks among 0.0 and -0.0.
    highest = float(values[values.argmax()])
    lo = math.floor(float(values.min()) / bin_width_mw) * bin_width_mw
    n_bins = max(1, math.ceil((highest - lo) / bin_width_mw))
    if lo + n_bins * bin_width_mw <= highest:  # top edge must cover the max
        n_bins += 1
    edges = [lo + i * bin_width_mw for i in range(n_bins + 1)]
    counts, _ = np.histogram(values, bins=edges)
    return GenerationHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        peak_demand_mw=peak_demand_mw,
        max_output_mw=highest,
    )


def format_gw(value_gw: float) -> str:
    """Format a GW figure with 3 significant digits (24.0, 8.64, 10.3)."""
    if value_gw == 0:
        return "0.00"
    ndigits = 2 - math.floor(math.log10(abs(value_gw)))
    return f"{round(value_gw, ndigits):.{max(ndigits, 0)}f}"
