"""Drift statistics for onset series: OLS trends, shift probabilities,
moving averages, and Pearson correlations with seasonal cutoffs."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from datetime import date
from functools import reduce
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

_NORMAL = NormalDist()

STUDENTIZED_THRESHOLD = 2.5
MAX_AUTO_EXCLUSIONS = 5
MOVING_AVERAGE_YEARS = 5

# Two-sided 95% normal quantile of the fit-line bands and projection intervals.
Z95 = _NORMAL.inv_cdf(0.975)

# The way each season's onset drifts as the climate warms: the direction whose
# shift probability is reported.
SHIFT_DIRECTION = {"spring": "earlier", "fall": "later"}


@dataclass(frozen=True)
class TrendResult:
    """OLS line with its slope uncertainty and directional shift odds.

    slope is per unit of x (days/year for onset-vs-year fits; multiply by
    10 for days/decade). residual_var, x_mean, and sxx are kept so
    downstream code can build mean-prediction intervals.
    """

    slope: float
    intercept: float
    slope_stderr: float
    n: int
    shift_probability: float
    excluded_points: tuple[tuple[float, float], ...]
    residual_var: float
    x_mean: float
    sxx: float

    @property
    def slope_per_decade(self) -> float:
        return 10.0 * self.slope

    @property
    def stderr_per_decade(self) -> float:
        return 10.0 * self.slope_stderr

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def mean_se(self, x: float) -> float:
        """Standard error of the fitted mean response at x."""
        return math.sqrt(
            self.residual_var * (1.0 / self.n + (x - self.x_mean) ** 2 / self.sxx)
        )


def shift_probability(slope: float, stderr: float, direction: str) -> float:
    """Probability that the trend moves in `direction` (earlier or later).

    Standard normal CDF of -slope/stderr for 'earlier' and +slope/stderr
    for 'later'. A zero stderr saturates to 0 or 1 by the slope sign
    (0.5 for a zero slope).
    """
    if direction not in ("earlier", "later"):
        raise ValueError(f"direction must be 'earlier' or 'later', got {direction!r}")
    if stderr < 0:
        raise ValueError("stderr must be >= 0")
    signed = -slope if direction == "earlier" else slope
    if stderr == 0:
        if signed > 0:
            return 1.0
        if signed < 0:
            return 0.0
        return 0.5
    return _NORMAL.cdf(signed / stderr)


def ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float, float]:
    """Least-squares line through (x, y): slope, intercept, slope stderr,
    residual variance, mean of x and the centred sum of squares of x."""
    x_mean = float(x.mean())
    xc = x - x_mean
    sxx = float((xc * xc).sum())
    if sxx == 0:
        raise ValueError("degenerate abscissae: all x values identical")
    slope = float((xc * y).sum() / sxx)
    intercept = float(y.mean() - slope * x_mean)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    s2 = float((resid * resid).sum() / dof) if dof > 0 else 0.0
    stderr = math.sqrt(s2 / sxx)
    return slope, intercept, stderr, s2, x_mean, sxx


def linear_trend(
    points: Iterable[tuple[float, float]],
    direction: str = "earlier",
    auto_exclude: bool = False,
) -> TrendResult:
    """Least-squares line through (x, y) points with slope standard error.

    With auto_exclude the fit iteratively trims the worst point whose
    studentized residual exceeds STUDENTIZED_THRESHOLD, up to
    MAX_AUTO_EXCLUSIONS points, refitting after each removal; all removed
    points are reported. At least 3 points must remain.
    """
    pts = sorted(points)
    excluded: list[tuple[float, float]] = []
    while True:
        if len(pts) < 3:
            raise ValueError(f"need at least 3 points after exclusions, got {len(pts)}")
        x = np.array([p[0] for p in pts], dtype=float)
        y = np.array([p[1] for p in pts], dtype=float)
        slope, intercept, stderr, s2, x_mean, sxx = ols(x, y)
        if not auto_exclude or len(excluded) >= MAX_AUTO_EXCLUSIONS:
            break
        # Points on an exact line leave residuals of rounding alone, whose
        # ratios mean nothing. Refitted about both means, such residuals are
        # a few units in the last place of the terms, for each point summed.
        xc, yc = x - x_mean, y - y.mean()
        centred = yc - (xc * yc).sum() / sxx * xc
        rounding = len(x) * np.finfo(float).eps * (np.abs(y).max() + abs(slope) * np.abs(x).max())
        if np.abs(centred).max() <= 4 * rounding:
            break
        # Internally studentized residuals; leverage from the hat matrix.
        resid = y - (slope * x + intercept)
        leverage = 1.0 / len(x) + (x - x_mean) ** 2 / sxx
        scale = np.sqrt(s2 * np.maximum(1.0 - leverage, 1e-12))
        studentized = np.abs(resid) / scale
        worst = int(np.argmax(studentized))
        if studentized[worst] <= STUDENTIZED_THRESHOLD or len(pts) <= 3:
            break
        excluded.append(pts.pop(worst))

    return TrendResult(
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        n=len(pts),
        shift_probability=shift_probability(slope, stderr, direction),
        excluded_points=tuple(excluded),
        residual_var=s2,
        x_mean=x_mean,
        sxx=sxx,
    )


def confidence_band(
    result: TrendResult, xs: Iterable[float]
) -> list[tuple[float, float, float, float]]:
    """Pointwise 95% mean-prediction band: (x, fit, low, high) per x."""
    out = []
    for x in xs:
        fit = result.predict(x)
        half = Z95 * result.mean_se(x)
        out.append((x, fit, fit - half, fit + half))
    return out


def moving_average(points: Iterable[tuple[int, float]]) -> list[tuple[int, float]]:
    """Centered MOVING_AVERAGE_YEARS-year moving average, truncated at the series edges.

    The window spans years within +-(MOVING_AVERAGE_YEARS-1)/2 of each point;
    years missing from the series simply contribute nothing.
    """
    items = sorted(points)
    half = (MOVING_AVERAGE_YEARS - 1) // 2
    out = []
    for year, _ in items:
        vals = [v for y, v in items if abs(y - year) <= half]
        out.append((year, left_sum(vals) / len(vals)))
    return out


def left_sum(values: Iterable[float] | np.ndarray) -> float:
    """Sum added left to right from 0.0, as sum() adds floats before Python
    3.12; from 3.12 sum() compensates, and np.sum adds pairwise. An array
    is accumulated behind a leading 0.0, which gives the same bits."""
    if isinstance(values, np.ndarray):
        return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])
    return reduce(operator.add, values, 0.0)


def day_of_year(onset: date) -> int:
    """Day of year of a date (January 1 is 1)."""
    return onset.timetuple().tm_yday


def within_cutoff(x_onset: date, season: str, cutoff: date) -> bool:
    """Whether a pair with this x onset counts in a cutoff-filtered correlation.

    Spring onsets before the cutoff and fall onsets after it are left
    out. Dates compare by month and day only, so the cutoff year is
    irrelevant.
    """
    a, b = (x_onset.month, x_onset.day), (cutoff.month, cutoff.day)
    return a >= b if season == "spring" else a <= b


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson r of paired values; at least 3 pairs are needed."""
    if len(xs) < 3:
        raise ValueError(f"need at least 3 pairs, got {len(xs)}")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0:
        raise ValueError("zero variance: correlation undefined")
    return float((xc * yc).sum() / denom)
