from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shoulderseason.projection import (
    BiasCorrection,
    EnsembleAnnualStats,
    OnsetProjection,
    ensemble_annual_stats,
    fit_bias_correction,
    merge_year,
    onset_vs_temperature,
    parse_ensemble_csv,
    project_onsets,
)
from shoulderseason.trends import linear_trend


def _flat_member(member: str, year: int, temp: float) -> list[tuple[str, int, int, float]]:
    return [(member, year, m, temp) for m in range(1, 13)]


class TestEnsembleAnnualStats:
    def test_identical_members_zero_std(self) -> None:
        records = _flat_member("a", 2020, 15.0) + _flat_member("b", 2020, 15.0)
        (stats,) = ensemble_annual_stats(records)
        assert stats.ensemble_mean_c == pytest.approx(15.0)
        assert stats.ensemble_std_c == 0.0

    def test_two_flat_members_hand_values(self) -> None:
        records = _flat_member("a", 2020, 15.0) + _flat_member("b", 2020, 17.0)
        (stats,) = ensemble_annual_stats(records)
        assert stats.ensemble_mean_c == pytest.approx(16.0)
        assert stats.ensemble_std_c == pytest.approx(1.0)  # population std

    def test_single_member(self) -> None:
        (stats,) = ensemble_annual_stats(_flat_member("only", 2021, 14.5))
        assert stats.ensemble_mean_c == pytest.approx(14.5)
        assert stats.ensemble_std_c == 0.0

    def test_months_weighted_by_day_counts(self) -> None:
        # 10 C in January (31 d), 20 C everywhere else in a non-leap year.
        records = [("a", 2021, m, 10.0 if m == 1 else 20.0) for m in range(1, 13)]
        (stats,) = ensemble_annual_stats(records)
        expected = (31 * 10.0 + (365 - 31) * 20.0) / 365
        assert stats.ensemble_mean_c == pytest.approx(expected)

    def test_leap_year_uses_366_days(self) -> None:
        records = [("a", 2020, m, 10.0 if m == 2 else 20.0) for m in range(1, 13)]
        (stats,) = ensemble_annual_stats(records)
        expected = (29 * 10.0 + (366 - 29) * 20.0) / 366
        assert stats.ensemble_mean_c == pytest.approx(expected)

    def test_incomplete_member_year_errors(self) -> None:
        records = _flat_member("a", 2020, 15.0)[:-1]
        with pytest.raises(ValueError, match="incomplete member-year"):
            ensemble_annual_stats(records)

    def test_absent_member_year_is_allowed(self) -> None:
        records = (
            _flat_member("a", 2020, 15.0)
            + _flat_member("b", 2020, 17.0)
            + _flat_member("a", 2021, 16.0)
        )
        stats = ensemble_annual_stats(records)
        by_year = {s.year: s for s in stats}
        assert by_year[2020].ensemble_mean_c == pytest.approx(16.0)
        assert by_year[2020].ensemble_std_c == pytest.approx(1.0)
        # Member b, absent in 2021, is left out: no spread about a's mean.
        assert by_year[2021].ensemble_mean_c == pytest.approx(16.0)
        assert by_year[2021].ensemble_std_c == 0.0

    def test_member_order_does_not_matter(self) -> None:
        rng = np.random.default_rng(3)
        records = []
        for member in "abcde":
            for year in (2020, 2021):
                for m in range(1, 13):
                    records.append((member, year, m, float(rng.normal(15, 2))))
        base = ensemble_annual_stats(records)
        shuffled = records[:]
        random.Random(9).shuffle(shuffled)
        again = ensemble_annual_stats(shuffled)
        for a, b in zip(base, again):
            assert a.year == b.year
            assert a.ensemble_mean_c == pytest.approx(b.ensemble_mean_c, abs=1e-10)
            assert a.ensemble_std_c == pytest.approx(b.ensemble_std_c, abs=1e-10)

    def test_parse_csv(self) -> None:
        rows = ["member,year,month,t2m_c", "m1,2020,1,12.5", "m1,2020,2,13.5"]
        records = parse_ensemble_csv(rows)
        assert records == [("m1", 2020, 1, 12.5), ("m1", 2020, 2, 13.5)]

    def test_parse_rejects_duplicates_and_bad_month(self) -> None:
        with pytest.raises(ValueError, match="duplicate entry"):
            parse_ensemble_csv(
                ["member,year,month,t2m_c", "m1,2020,1,12.5", "m1,2020,1,12.6"]
            )
        with pytest.raises(ValueError, match="month 13 out of range"):
            parse_ensemble_csv(["member,year,month,t2m_c", "m1,2020,13,12.5"])
        with pytest.raises(ValueError, match=r"^line 2: bad year/month '20x0','1'$"):
            parse_ensemble_csv(["member,year,month,t2m_c", "m1,20x0,1,12.5"])


class TestBiasCorrection:
    @staticmethod
    def _ensemble(values: dict[int, float]) -> list[EnsembleAnnualStats]:
        return [EnsembleAnnualStats(y, t, 0.3) for y, t in values.items()]

    def test_exact_affine_recovery(self) -> None:
        rng = np.random.default_rng(13)
        ens = {1959 + i: float(rng.uniform(14, 20)) for i in range(64)}
        obs = {y: 0.92 * t + 1.0 for y, t in ens.items()}
        correction = fit_bias_correction(obs, self._ensemble(ens))
        assert correction.gain == pytest.approx(0.92, abs=1e-9)
        assert correction.offset == pytest.approx(1.0, abs=1e-9)
        # residuals vanish on self-consistent affine data
        for y, t in ens.items():
            assert correction.apply(t) == pytest.approx(obs[y], abs=1e-9)

    def test_identity(self) -> None:
        ens = {2000 + i: 15.0 + i * 0.1 for i in range(10)}
        correction = fit_bias_correction(dict(ens), self._ensemble(ens))
        assert correction.gain == pytest.approx(1.0, abs=1e-12)
        assert correction.offset == pytest.approx(0.0, abs=1e-10)

    def test_offset_only(self) -> None:
        ens = {2000 + i: 15.0 + i * 0.1 for i in range(10)}
        obs = {y: t + 2.0 for y, t in ens.items()}
        correction = fit_bias_correction(obs, self._ensemble(ens))
        assert correction.gain == pytest.approx(1.0, abs=1e-12)
        assert correction.offset == pytest.approx(2.0, abs=1e-10)

    def test_too_few_overlap_years(self) -> None:
        ens = {2000: 15.0, 2001: 15.1}
        with pytest.raises(ValueError, match="at least 3 overlap years"):
            fit_bias_correction({2000: 15.0, 2001: 15.2}, self._ensemble(ens))

    def test_degenerate_ensemble_variance(self) -> None:
        ens = {2000: 15.0, 2001: 15.0, 2002: 15.0}
        with pytest.raises(ValueError, match="degenerate ensemble variance"):
            fit_bias_correction({2000: 14.0, 2001: 15.0, 2002: 16.0}, self._ensemble(ens))

    def test_positive_gain_preserves_ordering(self) -> None:
        correction = BiasCorrection(gain=0.92, offset=1.0)
        temps = sorted(np.random.default_rng(7).uniform(10, 25, size=30))
        corrected = [correction.apply(t) for t in temps]
        assert corrected == sorted(corrected)


class TestOnsetVsTemperature:
    def test_exact_linear_recovery(self) -> None:
        temps = [15.0 + 0.1 * i for i in range(20)]
        line = onset_vs_temperature([(t, 100.0 - 8.0 * (t - 15.0)) for t in temps], "spring")
        assert line.slope == pytest.approx(-8.0, rel=1e-9)
        # Spring onsets that come earlier as it warms: a certain earlier shift.
        assert line.shift_probability == 1.0

    def test_shuffled_pairing_kills_slope(self) -> None:
        rng = np.random.default_rng(23)
        years = list(range(1959, 2023))
        temps = {y: 15.0 + 0.03 * (y - 1959) + float(rng.normal(0, 0.3)) for y in years}
        onsets = {y: 100.0 - 8.0 * (temps[y] - 15.0) + float(rng.normal(0, 2)) for y in years}
        paired = onset_vs_temperature([(temps[y], onsets[y]) for y in years], "spring")
        shuffled_values = list(onsets.values())
        random.Random(5).shuffle(shuffled_values)
        shuffled = dict(zip(onsets.keys(), shuffled_values))
        broken = onset_vs_temperature([(temps[y], shuffled[y]) for y in years], "spring")
        assert abs(broken.slope) < abs(paired.slope) / 3
        assert broken.slope_stderr > 2 * paired.slope_stderr
        assert abs(broken.slope) < 2 * broken.slope_stderr  # not significant
        assert abs(paired.slope) > 10 * paired.slope_stderr

    def test_fall_uses_later_direction(self) -> None:
        line = onset_vs_temperature([(15.0, 280), (16.0, 284), (17.0, 288)], "fall")
        assert line.shift_probability == 1.0


class TestProjectOnsets:
    @staticmethod
    def _lines():
        spring_pts = [(14.0 + 0.1 * i, 110.0 - 8.0 * 0.1 * i) for i in range(10)]
        fall_pts = [(14.0 + 0.1 * i, 290.0 + 5.0 * 0.1 * i) for i in range(10)]
        return linear_trend(spring_pts, "earlier"), linear_trend(fall_pts, "later")

    def test_flat_path_flat_onsets(self) -> None:
        spring_line, fall_line = self._lines()
        path = [(2030 + i, 15.0, 0.0) for i in range(5)]
        spring, fall = project_onsets(spring_line, fall_line, path)
        assert len(spring) == len(fall) == 5
        assert all(p.predicted_onset == pytest.approx(spring[0].predicted_onset) for p in spring)
        assert all(p.predicted_onset == pytest.approx(fall[0].predicted_onset) for p in fall)

    def test_hand_propagated_drift(self) -> None:
        # slope -8 d/C on a +0.3 C/decade path -> -2.4 d/decade drift
        spring_line, fall_line = self._lines()
        assert spring_line.slope == pytest.approx(-8.0, rel=1e-9)
        path = [(2030 + i, 15.0 + 0.03 * i, 0.0) for i in range(11)]
        spring, _ = project_onsets(spring_line, fall_line, path)
        decade_drift = spring[10].predicted_onset - spring[0].predicted_onset
        assert decade_drift == pytest.approx(-2.4, rel=1e-9)

    def test_degenerate_interval_with_no_uncertainty(self) -> None:
        spring_line, fall_line = self._lines()
        assert spring_line.residual_var == pytest.approx(0.0, abs=1e-18)
        path = [(2030, 15.0, 0.0)]
        spring, fall = project_onsets(spring_line, fall_line, path)
        assert spring[0].ci_low == pytest.approx(spring[0].predicted_onset, abs=1e-6)
        assert spring[0].ci_high == pytest.approx(spring[0].predicted_onset, abs=1e-6)

    def test_zero_slope_ignores_temperature(self) -> None:
        flat_line = linear_trend([(14.0, 100.0), (15.0, 100.0), (16.0, 100.0)], "earlier")
        _, fall_line = self._lines()
        path = [(2030, 15.0, 0.2), (2031, 18.0, 0.2), (2032, 25.0, 0.2)]
        spring, _ = project_onsets(flat_line, fall_line, path)
        assert all(p.predicted_onset == pytest.approx(100.0) for p in spring)
        assert all(p.ci_high - p.ci_low == pytest.approx(spring[0].ci_high - spring[0].ci_low) for p in spring)

    def test_sigma_widens_interval(self) -> None:
        spring_line, fall_line = self._lines()
        narrow, _ = project_onsets(spring_line, fall_line, [(2030, 15.0, 0.0)])
        wide, _ = project_onsets(spring_line, fall_line, [(2030, 15.0, 0.5)])
        # +-2 sigma propagated through the slope: half width 8 * 2 * 0.5 = 8 days
        assert wide[0].ci_high - wide[0].ci_low == pytest.approx(16.0, rel=1e-6)
        assert narrow[0].ci_high - narrow[0].ci_low < 1e-6


class TestMergeYear:
    @staticmethod
    def _band(year: int, center: float, half: float) -> OnsetProjection:
        return OnsetProjection(year, center, center - half, center + half)

    def test_disjoint_parallel_bands_never_merge(self) -> None:
        years = range(2030, 2060)
        spring = [self._band(y, 40.0, 5.0) for y in years]
        fall = [self._band(y, 340.0, 5.0) for y in years]
        # gap: (365 + 40) - 340 = 65 days; half widths sum to 10
        assert merge_year(spring, fall) is None

    def test_first_persistent_overlap_detected_exactly(self) -> None:
        # fall: [300+d, 310+d], next spring + 365: [400-d, 410-d] where d = years since 2000.
        # Overlap starts when 400-d <= 310+d, i.e. d >= 45 -> year 2045.
        years = list(range(2000, 2060))
        spring = [self._band(y, 40.0 - (y - 2000 - 1), 5.0) for y in years]
        fall = [self._band(y, 305.0 + (y - 2000), 5.0) for y in years]
        spring_shifted = []
        for y in years:
            d = y - 2000
            spring_shifted.append(OnsetProjection(y, 405.0 - (d - 1) - 365, 400.0 - (d - 1) - 365, 410.0 - (d - 1) - 365))
        assert merge_year(spring_shifted, fall, persistence=1) == 2045
        assert merge_year(spring_shifted, fall, persistence=3) == 2045

    def test_persistence_skips_transient_overlap(self) -> None:
        years = list(range(2030, 2040))
        fall = [self._band(y, 340.0, 5.0) for y in years]
        spring = []
        for y in years:
            # next-spring band touches fall only for year 2032, then retreats
            center = 345.0 - 365.0 if y == 2033 else 40.0
            spring.append(self._band(y, center, 5.0))
        assert merge_year(spring, fall, persistence=1) == 2032
        assert merge_year(spring, fall, persistence=2) is None

    def test_monotone_in_interval_width(self) -> None:
        rng = np.random.default_rng(53)
        years = list(range(2030, 2070))
        spring = [self._band(y, 40.0 - 0.5 * (y - 2030), 3.0) for y in years]
        fall = [self._band(y, 330.0 + 0.5 * (y - 2030), 3.0) for y in years]
        narrow = merge_year(spring, fall)
        wide = merge_year(
            [self._band(p.year, p.predicted_onset, 10.0) for p in spring],
            [self._band(p.year, p.predicted_onset, 10.0) for p in fall],
        )
        if narrow is not None:
            assert wide is not None and wide <= narrow

    def test_boundary_touch_counts_as_overlap(self) -> None:
        spring = [self._band(2031, 355.0 - 365.0, 0.0)]
        fall = [self._band(2030, 355.0, 0.0)]
        assert merge_year(spring, fall, persistence=1) == 2030

    def test_bad_persistence(self) -> None:
        with pytest.raises(ValueError, match="persistence"):
            merge_year([], [], persistence=0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), persistence=st.integers(0, 4))
    def test_matches_direct_scan(self, data, persistence: int) -> None:
        # Whole-day bands over 2030-2041 less up to two years, in any
        # order, so edges touch and runs break; a negative half width gives
        # an inverted band, which overlaps nothing.
        def bands(centers) -> list[OnsetProjection]:
            gaps = data.draw(st.sets(st.integers(2030, 2041), max_size=2))
            years = data.draw(st.permutations([y for y in range(2030, 2042) if y not in gaps]))
            return [
                self._band(year, float(data.draw(centers)), float(data.draw(st.integers(-5, 80))))
                for year in years
            ]

        spring = bands(st.integers(0, 100))
        fall = bands(st.integers(300, 400))
        want = oracles.reference_merge_year(spring, fall, persistence)
        try:
            got = merge_year(spring, fall, persistence)
        except ValueError as exc:
            got = str(exc)
        assert got == want
