from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from shoulderseason import cli
from shoulderseason.trends import (
    confidence_band,
    day_of_year,
    linear_trend,
    moving_average,
    pearson,
    shift_probability,
    within_cutoff,
)
from shoulderseason.windows import ShoulderWindow

EPS = float(np.finfo(float).eps)


class TestShiftProbability:
    def test_zero_slope_is_even_odds(self) -> None:
        assert shift_probability(0.0, 1.0, "earlier") == pytest.approx(0.5)
        assert shift_probability(0.0, 1.0, "later") == pytest.approx(0.5)

    def test_strong_earlier_shift(self) -> None:
        assert shift_probability(-2.326, 1.0, "earlier") == pytest.approx(0.99, abs=0.005)

    def test_moderate_later_shift(self) -> None:
        assert shift_probability(1.341, 1.0, "later") == pytest.approx(0.91, abs=0.005)

    def test_zero_stderr_saturates_by_sign(self) -> None:
        assert shift_probability(-1.0, 0.0, "earlier") == 1.0
        assert shift_probability(-1.0, 0.0, "later") == 0.0
        assert shift_probability(0.0, 0.0, "earlier") == 0.5

    def test_directions_sum_to_one(self) -> None:
        rng = np.random.default_rng(17)
        for _ in range(100):
            slope = float(rng.normal())
            stderr = float(rng.uniform(0.01, 3.0))
            total = shift_probability(slope, stderr, "earlier") + shift_probability(
                slope, stderr, "later"
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_arguments(self) -> None:
        with pytest.raises(ValueError, match="direction"):
            shift_probability(1.0, 1.0, "sideways")
        with pytest.raises(ValueError, match="stderr"):
            shift_probability(1.0, -1.0, "earlier")

    @settings(max_examples=300, deadline=None)
    @given(
        slope=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]),
        stderr=st.floats(0.0, 1e6) | st.just(0.0),
        direction=st.sampled_from(["earlier", "later"]),
    )
    def test_matches_closed_form(self, slope: float, stderr: float, direction: str) -> None:
        # NormalDist's cdf is (1 + erf(u)) / 2 and the closed form is
        # erfc(-u) / 2, with the same u. They differ by the errors of erf
        # and erfc, each a few units in the last place of a result below 2
        # (a unit is at most eps), and one rounding of 1 + erf(u); halved,
        # that stays below 4 eps.
        want = oracles.reference_shift_probability(slope, stderr, direction)
        assert abs(shift_probability(slope, stderr, direction) - want) <= 4 * EPS


class TestLinearTrend:
    def test_exact_line(self) -> None:
        points = [(x, 2.0 * x + 1.0) for x in range(10)]
        result = linear_trend(points, direction="later")
        assert result.slope == pytest.approx(2.0)
        assert result.intercept == pytest.approx(1.0)
        assert result.slope_stderr == pytest.approx(0.0, abs=1e-9)
        assert result.shift_probability == 1.0  # saturates
        assert result.n == 10

    def test_flat_symmetric_noise(self) -> None:
        # Residuals orthogonal to x keep the slope exactly zero.
        xs = np.arange(8, dtype=float)
        noise = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
        assert abs(noise.sum()) < 1e-12
        assert abs((noise * (xs - xs.mean())).sum()) < 1e-12
        result = linear_trend(list(zip(xs, 50.0 + noise)))
        assert result.slope == pytest.approx(0.0, abs=1e-12)
        assert result.shift_probability == pytest.approx(0.5, abs=1e-9)

    def test_calibrated_slope_to_stderr_ratio(self) -> None:
        # Construct data whose fitted slope / stderr is exactly -2.326 and
        # check the earlier-shift probability lands on 0.99.
        xs = np.arange(1959.0, 2023.0)
        slope = -0.24
        base = np.ones_like(xs)
        pattern = np.cos(np.arange(xs.size) * 1.7)
        xc = xs - xs.mean()
        pattern -= pattern.mean()
        pattern -= (pattern * xc).sum() / (xc * xc).sum() * xc  # orthogonal to fit space
        sxx = float((xc * xc).sum())
        dof = xs.size - 2
        target_stderr = abs(slope) / 2.326
        ssr_target = target_stderr**2 * sxx * dof
        resid = pattern * math.sqrt(ssr_target / float((pattern * pattern).sum()))
        ys = slope * xs + 100.0 + resid
        result = linear_trend(list(zip(xs, ys)), direction="earlier")
        assert result.slope == pytest.approx(slope, rel=1e-9)
        assert result.slope / result.slope_stderr == pytest.approx(-2.326, rel=1e-9)
        assert result.shift_probability == pytest.approx(0.99, abs=0.005)
        assert result.slope_per_decade == pytest.approx(-2.4)

    def test_offset_changes_intercept_only(self) -> None:
        rng = np.random.default_rng(29)
        points = [(float(x), float(rng.normal(50, 5))) for x in range(12)]
        base = linear_trend(points)
        shifted = linear_trend([(x, y + 100.0) for x, y in points])
        assert shifted.slope == pytest.approx(base.slope, abs=1e-9)
        assert shifted.intercept == pytest.approx(base.intercept + 100.0, abs=1e-9)
        assert shifted.slope_stderr == pytest.approx(base.slope_stderr, abs=1e-9)

    def test_scaling_leaves_probability_unchanged(self) -> None:
        rng = np.random.default_rng(31)
        points = [(float(x), float(rng.normal(10 - 0.2 * x, 2))) for x in range(15)]
        base = linear_trend(points)
        scaled = linear_trend([(x, 4.0 * y) for x, y in points])
        assert scaled.slope == pytest.approx(4.0 * base.slope, rel=1e-9)
        assert scaled.slope_stderr == pytest.approx(4.0 * base.slope_stderr, rel=1e-9)
        assert scaled.shift_probability == pytest.approx(base.shift_probability, abs=1e-12)

    def test_degenerate_abscissae(self) -> None:
        with pytest.raises(ValueError, match="degenerate abscissae"):
            linear_trend([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])

    def test_too_few_points(self) -> None:
        with pytest.raises(ValueError, match="at least 3 points"):
            linear_trend([(1.0, 2.0), (2.0, 3.0)])

    def test_auto_exclusion_removes_planted_outlier(self) -> None:
        rng = np.random.default_rng(37)
        points = [(float(x), 10.0 + 0.5 * x + float(rng.normal(0, 0.2))) for x in range(20)]
        points[7] = (7.0, 80.0)
        result = linear_trend(points, auto_exclude=True)
        assert any(p[0] == 7.0 for p in result.excluded_points)
        assert result.slope == pytest.approx(0.5, abs=0.05)
        assert result.n == 19

    def test_auto_exclusion_cap(self) -> None:
        rng = np.random.default_rng(41)
        points = [(float(x), float(rng.normal(0, 1))) for x in range(30)]
        for i in range(8):
            points[i] = (float(i), 1000.0 + i)
        result = linear_trend(points, auto_exclude=True)
        assert len(result.excluded_points) <= 5

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_auto_exclusion_matches_refit_loop(self, data) -> None:
        # Onset days of distinct years: a drift, noise of a few days, and
        # jumps of weeks in up to 7 of the years, so that series lose 0 to
        # 5 points.
        years = data.draw(st.lists(st.integers(1959, 2022), min_size=6, max_size=40, unique=True))
        drift = data.draw(st.integers(-10, 10)) / 10
        onsets = [60 + round(drift * (y - 1959)) + data.draw(st.integers(-5, 5)) for y in years]
        for i in data.draw(st.sets(st.integers(0, len(years) - 1), max_size=7)):
            onsets[i] += data.draw(st.sampled_from([-60, 45, 90]))
        points = [(float(year), float(onset)) for year, onset in zip(years, onsets)]
        want = oracles.reference_auto_exclusions(points)
        assume(want is not None)
        got = linear_trend(points, auto_exclude=True)
        assert got.excluded_points == want
        assert got.n == len(points) - len(want)


class TestConfidenceBand:
    def test_zero_noise_zero_width(self) -> None:
        result = linear_trend([(x, 3.0 * x) for x in range(5)])
        band = confidence_band(result, [0.0, 2.0, 4.0])
        for x, fit, lo, hi in band:
            assert fit == pytest.approx(3.0 * x)
            assert hi - lo == pytest.approx(0.0, abs=1e-9)

    def test_band_contains_fit_and_widens_away_from_mean(self) -> None:
        rng = np.random.default_rng(43)
        points = [(float(x), float(rng.normal(2 * x, 1))) for x in range(10)]
        result = linear_trend(points)
        band = confidence_band(result, [4.5, 20.0])
        near, far = band
        assert near[2] <= near[1] <= near[3]
        assert (far[3] - far[2]) > (near[3] - near[2])


class TestMovingAverage:
    def test_constant_series_unchanged(self) -> None:
        points = [(y, 7.0) for y in range(2000, 2010)]
        assert moving_average(points) == [(y, 7.0) for y in range(2000, 2010)]

    def test_hand_computed_five_years(self) -> None:
        points = [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)]
        assert moving_average(points) == [
            (1, 2.0),
            (2, 2.5),
            (3, 3.0),
            (4, 3.5),
            (5, 4.0),
        ]

    def test_missing_years_truncate_window(self) -> None:
        points = [(2000, 1.0), (2001, 3.0), (2005, 10.0)]
        out = dict(moving_average(points))
        assert out[2000] == pytest.approx(2.0)
        assert out[2005] == pytest.approx(10.0)  # no neighbors within +-2 years


def _cutoff_windows(data, season: str, metric: str, years: list[int]) -> list[ShoulderWindow]:
    """One drawn window per year: onsets anywhere in the year (leap days
    included), within two days of the season's cutoff so that ties occur,
    or on one repeated day of year so that zero variance occurs."""
    cutoff = cli.SPRING_CUTOFF if season == "spring" else cli.FALL_CUTOFF
    style = data.draw(st.sampled_from(["anywhere", "near cutoff", "repeated"]))
    starts = [date(year, 1, 1) for year in years]
    if style == "anywhere":
        shifts = data.draw(st.lists(st.integers(0, 365), min_size=len(years), max_size=len(years)))
    elif style == "near cutoff":
        starts = [date(year, cutoff.month, cutoff.day) for year in years]
        shifts = data.draw(st.lists(st.integers(-2, 2), min_size=len(years), max_size=len(years)))
    else:
        shifts = [data.draw(st.integers(0, 364))] * len(years)
    return [
        ShoulderWindow(s.year, season, metric, min(s + timedelta(k), date(s.year, 12, 31)), 0.0, 45)
        for s, k in zip(starts, shifts)
    ]


class TestPearsonWithCutoff:
    """The cutoff-filtered Pearson r of the correlation tables: `trends.pearson`
    over the pairs that `trends.within_cutoff` keeps, as `cli._correlation_rows`
    pairs them."""

    def test_identity_pairs(self) -> None:
        x = [float(y % 50 + 60) for y in range(2000, 2010)]
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negated_pairs(self) -> None:
        x = [float(y - 2000 + 60) for y in range(2000, 2010)]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_spring_cutoff_excludes_early_onsets(self) -> None:
        cutoff = date(2000, 2, 14)
        assert not within_cutoff(date(2000, 1, 20), "spring", cutoff)
        assert not within_cutoff(date(2001, 2, 13), "spring", cutoff)
        assert within_cutoff(date(2002, 2, 14), "spring", cutoff)  # on the cutoff -> kept
        assert within_cutoff(date(2004, 3, 10), "spring", cutoff)

    def test_fall_cutoff_excludes_late_onsets(self) -> None:
        cutoff = date(2000, 11, 25)
        assert not within_cutoff(date(2000, 12, 1), "fall", cutoff)
        assert not within_cutoff(date(2001, 11, 26), "fall", cutoff)
        assert within_cutoff(date(2001, 11, 25), "fall", cutoff)  # on the cutoff -> kept
        assert within_cutoff(date(2004, 10, 1), "fall", cutoff)

    def test_too_few_pairs_after_cutoff(self) -> None:
        cutoff = date(2000, 2, 14)
        x = [date(2000, 1, 5), date(2001, 1, 6), date(2002, 3, 1), date(2003, 3, 9)]
        kept = [day_of_year(d) for d in x if within_cutoff(d, "spring", cutoff)]
        with pytest.raises(ValueError, match="need at least 3 pairs, got 2"):
            pearson(kept, [60, 61])

    def test_affine_invariance(self) -> None:
        rng = np.random.default_rng(47)
        x = rng.uniform(60, 120, 12)
        y = x * 1.3 + rng.normal(0, 4, 12)
        assert pearson(x, 2.5 * y + 40.0) == pytest.approx(pearson(x, y), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        season=st.sampled_from(["spring", "fall"]),
        onset=st.dates(date(1999, 1, 1), date(2001, 12, 31)),
        cutoff=st.dates(date(1999, 1, 1), date(2001, 12, 31)),
    )
    def test_within_cutoff_matches_month_day_rule(
        self, season: str, onset: date, cutoff: date
    ) -> None:
        # The cutoff comes from any year, leap or not, independent of the onset's.
        want = oracles.reference_within_cutoff(onset, season, cutoff)
        assert within_cutoff(onset, season, cutoff) is want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_two_pass_reference(self, data) -> None:
        # Each load metric lacks the first degree-day years and has one of its own.
        years = data.draw(st.lists(st.integers(1990, 2020), unique=True, max_size=20))
        dd_rows, load_rows, cases = [], [], []
        for season in ("spring", "fall"):
            dd_rows += _cutoff_windows(data, season, "degree_days", years)
            for metric in ("total_energy", "peak_demand"):
                own = [*years[data.draw(st.integers(0, 2)) :], 2021]
                load_rows += _cutoff_windows(data, season, metric, own)
                cases.append((season, metric))
        corr_rows, point_rows = cli._correlation_rows(dd_rows, load_rows)

        def onsets(rows, season, metric):
            return {w.year: w.onset for w in rows if (w.season, w.metric) == (season, metric)}

        def doy(onset: date) -> int:
            return (onset - date(onset.year, 1, 1)).days + 1

        corr = {(row[0], row[2]): row for row in corr_rows}
        for season, metric in cases:
            x = onsets(dd_rows, season, "degree_days")
            y = onsets(load_rows, season, metric)
            cutoff = cli.SPRING_CUTOFF if season == "spring" else cli.FALL_CUTOFF
            r, kept, excluded = oracles.reference_pearson_with_cutoff(x, y, season, cutoff)
            want_points = [
                (season, metric, year, doy(x[year]), doy(y[year]), int(year in kept))
                for year in sorted(kept + excluded)
            ]
            assert [p for p in point_rows if p[:2] == (season, metric)] == want_points
            if isinstance(r, str):
                assert (season, metric) not in corr, r
                continue
            got = corr.pop((season, metric))
            assert got[3] == pytest.approx(r, rel=0, abs=1e-12)
            cutoff_text = "Feb 14" if season == "spring" else "Nov 25"
            assert got[:3] + got[4:] == (
                season, "degree_days", metric, len(kept), len(excluded), cutoff_text
            )
        assert corr == {}

    def test_plain_pearson_zero_variance(self) -> None:
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
