from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from oracles import exhaustive_min_window
from shoulderseason.ingest import DailyLoad, DailySeries
from shoulderseason.trends import day_of_year
from shoulderseason.windows import ShoulderWindow, min_window, shoulder_table


def _series(year: int, start: date, values) -> dict[date, float]:
    return {start + timedelta(days=i): float(v) for i, v in enumerate(values)}


def _full_year(year: int, rng: np.random.Generator) -> dict[date, float]:
    start = date(year, 1, 1)
    n = (date(year + 1, 1, 1) - start).days
    return _series(year, start, rng.uniform(0.0, 100.0, size=n))


class TestMinWindow:
    def test_constant_series_earliest_onset(self) -> None:
        series = _full_year(2019, np.random.default_rng(0))
        flat = {d: 5.0 for d in series}
        spring = min_window(flat, 2019, "first", window_len=45)
        fall = min_window(flat, 2019, "second", window_len=45)
        assert spring.onset == date(2019, 1, 1)
        assert fall.onset == date(2019, 7, 1)
        assert spring.window_mean == pytest.approx(5.0)
        assert spring.days_used == 45

    def test_v_shape_centers_window_on_minimum(self) -> None:
        # Unique minimum on April 10: the best 45-day window starts 22 days before.
        year = 2019
        minimum = date(year, 4, 10)
        series = {
            d: abs((d - minimum).days) * 1.0 for d in _full_year(year, np.random.default_rng(0))
        }
        result = min_window(series, year, "first", window_len=45)
        assert result.onset == minimum - timedelta(days=22)
        oracle = exhaustive_min_window(series, year, "first", window_len=45)
        assert result.onset == oracle[0]
        assert result.window_mean == pytest.approx(oracle[1])

    @pytest.mark.parametrize("window_len", [1, 7, 45])
    def test_matches_oracle_on_random_series(self, window_len: int) -> None:
        rng = np.random.default_rng(42)
        for trial in range(60):
            year = 2000 + trial % 8
            series = _full_year(year, rng)
            for half in ("first", "second"):
                got = min_window(series, year, half, window_len=window_len)
                want = exhaustive_min_window(series, year, half, window_len=window_len)
                assert got.onset == want[0], (trial, half, window_len)
                assert got.window_mean == pytest.approx(want[1], rel=1e-12)
                assert got.days_used == want[2]

    def test_matches_oracle_with_missing_days(self) -> None:
        rng = np.random.default_rng(7)
        for trial in range(40):
            year = 2010
            series = _full_year(year, rng)
            # punch out random gaps
            days = list(series)
            for idx in rng.choice(len(days), size=30, replace=False):
                del series[days[int(idx)]]
            for half in ("first", "second"):
                want = exhaustive_min_window(series, year, half)
                if want is None:
                    with pytest.raises(ValueError):
                        min_window(series, year, half)
                    continue
                got = min_window(series, year, half)
                assert got.onset == want[0]
                assert got.window_mean == pytest.approx(want[1], rel=1e-12)
                assert got.days_used == want[2]

    def test_window_len_one_returns_argmin_day(self) -> None:
        series = _full_year(2019, np.random.default_rng(3))
        got = min_window(series, 2019, "first", window_len=1)
        first_half = {d: v for d, v in series.items() if d <= date(2019, 6, 30)}
        assert got.onset == min(first_half, key=first_half.get)
        assert got.window_mean == pytest.approx(min(first_half.values()))

    def test_additive_shift_moves_mean_not_onset(self) -> None:
        rng = np.random.default_rng(11)
        series = _full_year(2019, rng)
        base = min_window(series, 2019, "second")
        shifted = min_window({d: v + 17.5 for d, v in series.items()}, 2019, "second")
        assert shifted.onset == base.onset
        assert shifted.window_mean == pytest.approx(base.window_mean + 17.5)

    def test_positive_scaling_preserves_onset(self) -> None:
        rng = np.random.default_rng(13)
        series = _full_year(2019, rng)
        base = min_window(series, 2019, "first")
        scaled = min_window({d: v * 3.25 for d, v in series.items()}, 2019, "first")
        assert scaled.onset == base.onset
        assert scaled.window_mean == pytest.approx(base.window_mean * 3.25)

    def test_window_crosses_half_boundary(self) -> None:
        # Minimum at the end of June: window runs into July.
        year = 2019
        minimum = date(year, 6, 30)
        series = {
            d: abs((d - minimum).days) * 1.0 for d in _full_year(year, np.random.default_rng(0))
        }
        result = min_window(series, year, "first")
        assert result.onset == minimum - timedelta(days=22)
        assert result.onset + timedelta(days=44) > date(year, 6, 30)

    def test_fall_window_uses_next_january_when_present(self) -> None:
        year = 2019
        series = _full_year(year, np.random.default_rng(0))
        series.update(
            _series(year + 1, date(year + 1, 1, 1), np.zeros(31))
        )
        minimum = date(year, 12, 25)
        for d in list(series):
            series[d] = abs((d - minimum).days) * 1.0
        result = min_window(series, year, "second", allow_year_wrap=True)
        assert result.onset == minimum - timedelta(days=22)
        oracle = exhaustive_min_window(series, year, "second")
        assert result.onset == oracle[0]

    def test_late_onsets_inadmissible_without_next_year(self) -> None:
        year = 2019
        minimum = date(year, 12, 25)
        series = {
            d: abs((d - minimum).days) * 1.0 for d in _full_year(year, np.random.default_rng(0))
        }
        result = min_window(series, year, "second", allow_year_wrap=True)
        # Without next-year data the window must end by Dec 31.
        assert result.onset <= date(year, 12, 31) - timedelta(days=44)
        disabled = min_window(series, year, "second", allow_year_wrap=False)
        assert disabled == result

    def test_wrap_disabled_ignores_next_year(self) -> None:
        year = 2019
        series = _full_year(year, np.random.default_rng(1))
        series.update(_series(year + 1, date(year + 1, 1, 1), np.zeros(40)))
        with_wrap = min_window(series, year, "second", allow_year_wrap=True)
        without = min_window(series, year, "second", allow_year_wrap=False)
        oracle = exhaustive_min_window(series, year, "second", allow_year_wrap=False)
        assert without.onset == oracle[0]
        assert with_wrap.onset >= without.onset  # zeros pull the window late

    def test_excessive_missing_days_everywhere(self) -> None:
        year = 2019
        series = {date(year, 1, 1) + timedelta(days=7 * i): 1.0 for i in range(20)}
        with pytest.raises(ValueError, match="no admissible"):
            min_window(series, year, "first")

    def test_tie_breaks_earliest(self) -> None:
        series = {d: float(i % 10) for i, d in enumerate(sorted(_full_year(2019, np.random.default_rng(0))))}
        a = min_window(series, 2019, "first", window_len=10)
        assert a.onset == date(2019, 1, 1)

    def test_bad_half_rejected(self) -> None:
        with pytest.raises(ValueError, match="half must be"):
            min_window({date(2019, 1, 1): 1.0}, 2019, "third")


class TestShoulderTable:
    def test_synthetic_year_known_minima(self) -> None:
        year = 2020
        spring_min = date(year, 3, 15)
        fall_min = date(year, 10, 20)
        days = [date(year, 1, 1) + timedelta(days=i) for i in range(366)]
        dd = {
            d: min(abs((d - spring_min).days), abs((d - fall_min).days)) * 1.0
            for d in days
        }
        energy = {d: 24 * (1000 + dd[d] * 10) for d in days}
        peak = {d: 1100 + dd[d] * 12 for d in days}
        summaries = DailyLoad.from_days(
            np.array(days, dtype="datetime64[D]"),
            np.array([energy[d] for d in days]),
            np.array([peak[d] for d in days]),
            np.full(len(days), 24),
        )
        rows = shoulder_table(degree_day_series=DailySeries.from_mapping(dd), load_summaries=summaries)
        assert len(rows) == 6  # 1 year x 2 seasons x 3 metrics
        for row in rows:
            target = spring_min if row.season == "spring" else fall_min
            assert row.onset == target - timedelta(days=22), row
            oracle = exhaustive_min_window(
                dd if row.metric == "degree_days" else (
                    energy if row.metric == "total_energy" else peak
                ),
                year,
                "first" if row.season == "spring" else "second",
            )
            assert row.onset == oracle[0]

    def test_absent_year_skipped(self) -> None:
        rng = np.random.default_rng(2)
        dd = {**_full_year(2000, rng), **_full_year(2002, rng)}
        rows = shoulder_table(degree_day_series=DailySeries.from_mapping(dd))
        assert {r.year for r in rows} == {2000, 2002}

    def test_partial_days_excluded_by_min_hours(self) -> None:
        year = 2020
        days = [date(year, 1, 1) + timedelta(days=i) for i in range(366)]
        low_day = date(year, 2, 15)
        # Deep artificial minimum on a partial day: 2 hours only.
        low = np.array([d == low_day for d in days])
        summaries = DailyLoad.from_days(
            np.array(days, dtype="datetime64[D]"),
            np.where(low, 2.0, 24000.0),
            np.where(low, 1.0, 1000.0),
            np.where(low, 2, 24),
        )
        rows = shoulder_table(load_summaries=summaries, min_hours=20)
        spring_energy = next(
            r for r in rows if r.season == "spring" and r.metric == "total_energy"
        )
        # The partial day is treated as missing, not as a real minimum.
        assert spring_energy.window_mean == pytest.approx(24000.0)

    def test_row_ordering(self) -> None:
        rng = np.random.default_rng(9)
        dd = {**_full_year(2001, rng), **_full_year(2000, rng)}
        rows = shoulder_table(degree_day_series=DailySeries.from_mapping(dd))
        keys = [(r.year, r.season, r.metric) for r in rows]
        assert keys == [
            (2000, "spring", "degree_days"),
            (2000, "fall", "degree_days"),
            (2001, "spring", "degree_days"),
            (2001, "fall", "degree_days"),
        ]

    def test_onset_doy_counts_leap_day(self) -> None:
        w = ShoulderWindow(2020, "spring", "degree_days", date(2020, 3, 1), 1.0, 45)
        assert day_of_year(w.onset) == 61  # Feb 29 counted
