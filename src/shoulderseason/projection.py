"""Climate-ensemble handling and forward projection of shoulder onsets.

Takes monthly ensemble-member temperatures, reduces them to annual means
with spread, fits an affine correction against the observed record,
regresses onset day-of-year on annual mean temperature, projects onsets
along the corrected warming path with 95% intervals, and finds the first
year from which the spring and fall intervals overlap persistently.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .tables import parse_float, split_rows
from .trends import SHIFT_DIRECTION, Z95, TrendResult, left_sum, linear_trend, ols

ENSEMBLE_HEADER = "member,year,month,t2m_c"

# Calendar wrap for comparing a fall onset against the next spring; the
# occasional leap day is accepted as noise.
DAYS_PER_YEAR = 365

DEFAULT_PERSISTENCE = 3


@dataclass(frozen=True)
class EnsembleAnnualStats:
    year: int
    ensemble_mean_c: float
    ensemble_std_c: float


@dataclass(frozen=True)
class BiasCorrection:
    """Affine map from raw ensemble temperature onto the observed scale."""

    gain: float
    offset: float

    def apply(self, t: float) -> float:
        return self.gain * t + self.offset


@dataclass(frozen=True)
class OnsetProjection:
    year: int
    predicted_onset: float  # day of year; may run past 365 for late fall
    ci_low: float
    ci_high: float


def parse_ensemble_csv(source: IO[str] | Iterable[str]) -> list[tuple[str, int, int, float]]:
    """Parse `member,year,month,t2m_c` rows of monthly ensemble means."""
    rows: list[tuple[str, int, int, float]] = []
    seen: set[tuple[str, int, int]] = set()
    for lineno, (member, year_s, month_s, temp_s) in split_rows(source, ENSEMBLE_HEADER):
        try:
            year = int(year_s)
            month = int(month_s)
        except ValueError:
            raise ValueError(f"line {lineno}: bad year/month {year_s!r},{month_s!r}") from None
        if not 1 <= month <= 12:
            raise ValueError(f"line {lineno}: month {month} out of range 1-12")
        temp = parse_float(temp_s, lineno, "t2m_c")
        key = (member, year, month)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate entry for {key}")
        seen.add(key)
        rows.append((member, year, month, temp))
    return rows


def ensemble_annual_stats(
    records: Iterable[tuple[str, int, int, float]]
) -> list[EnsembleAnnualStats]:
    """Mean and spread across members of the member-wise annual means.

    A member's annual mean weights each month by its day count. A member
    must cover all 12 months of a year to count for it; partial coverage
    is an error, total absence just leaves the member out of that year.
    The spread is the population standard deviation over members.
    """
    monthly: dict[tuple[str, int], dict[int, float]] = {}
    for member, year, month, temp in records:
        monthly.setdefault((member, year), {})[month] = temp

    annual: dict[int, list[float]] = {}
    for (member, year), months in sorted(monthly.items()):
        if len(months) != 12:
            missing = sorted(set(range(1, 13)) - set(months))
            raise ValueError(
                f"incomplete member-year: {member!r} {year} missing months {missing}"
            )
        days = [calendar.monthrange(year, m)[1] for m in range(1, 13)]
        total_days = sum(days)
        mean = left_sum(months[m] * days[m - 1] for m in range(1, 13)) / total_days
        annual.setdefault(year, []).append(mean)

    out = []
    for year in sorted(annual):
        values = np.array(annual[year])
        out.append(
            EnsembleAnnualStats(
                year=year,
                ensemble_mean_c=float(values.mean()),
                ensemble_std_c=float(values.std()),
            )
        )
    return out


def fit_bias_correction(
    observed: Mapping[int, float],
    ensemble: Sequence[EnsembleAnnualStats],
) -> BiasCorrection:
    """Least-squares affine fit of observed on ensemble annual means."""
    ens_by_year = {e.year: e.ensemble_mean_c for e in ensemble}
    overlap = sorted(set(observed) & set(ens_by_year))
    if len(overlap) < 3:
        raise ValueError(f"need at least 3 overlap years, got {len(overlap)}")
    x = np.array([ens_by_year[y] for y in overlap])
    y = np.array([observed[y] for y in overlap])
    try:
        gain, offset, *_ = ols(x, y)
    except ValueError:
        raise ValueError("degenerate ensemble variance: all annual means identical") from None
    return BiasCorrection(gain=gain, offset=offset)


def onset_vs_temperature(points: Iterable[tuple[float, int]], season: str) -> TrendResult:
    """Regression of onset day-of-year on annual mean temperature, from
    (temperature, onset day of year) pairs."""
    if season not in SHIFT_DIRECTION:
        raise ValueError(f"season must be 'spring' or 'fall', got {season!r}")
    return linear_trend(points, direction=SHIFT_DIRECTION[season])


def project_onsets(
    spring_line: TrendResult,
    fall_line: TrendResult,
    path: Sequence[tuple[int, float, float]],
) -> tuple[list[OnsetProjection], list[OnsetProjection]]:
    """Predict onsets along a (year, temp, temp_std) warming path.

    The interval half-width combines the regression's mean-prediction
    error (at 95%) with the onset shift implied by a +-2 sigma temperature
    excursion, added in quadrature.
    """
    by_year = {int(y): (t, s) for y, t, s in path}

    def season_rows(line: TrendResult) -> list[OnsetProjection]:
        rows = []
        for year in sorted(by_year):
            temp, std = by_year[year]
            pred = line.predict(temp)
            half = math.hypot(Z95 * line.mean_se(temp), line.slope * 2.0 * std)
            rows.append(OnsetProjection(year, pred, pred - half, pred + half))
        return rows

    return season_rows(spring_line), season_rows(fall_line)


def merge_year(
    spring: Sequence[OnsetProjection],
    fall: Sequence[OnsetProjection],
    persistence: int = DEFAULT_PERSISTENCE,
) -> int | None:
    """First year from which fall and next-spring intervals keep overlapping.

    The fall onset of year y is compared against the spring onset of year
    y+1 on a continuous day axis (spring shifted by one calendar year).
    Overlap must hold for `persistence` consecutive years; returns None if
    that never happens.
    """
    if persistence < 1:
        raise ValueError("persistence must be >= 1")
    spring_by_year = {p.year: p for p in spring}
    fall_by_year = {p.year: p for p in fall}

    def overlaps(year: int) -> bool:
        f = fall_by_year.get(year)
        s = spring_by_year.get(year + 1)
        if f is None or s is None:
            return False
        lo = max(f.ci_low, s.ci_low + DAYS_PER_YEAR)
        hi = min(f.ci_high, s.ci_high + DAYS_PER_YEAR)
        return lo <= hi

    for year in sorted(fall_by_year):
        if all(overlaps(year + k) for k in range(persistence)):
            return year
    return None
