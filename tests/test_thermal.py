from __future__ import annotations

import json
import re
from dataclasses import replace
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from golden_cubics import GOLDEN_CUBIC_ROWS, GOLDEN_T0_MEAN
from rasters import write_raster
from shoulderseason.ingest import DailySeries
from shoulderseason.thermal import (
    CubicDemandFit,
    PopulationGrid,
    RasterReader,
    RegionMask,
    TemperatureGrid,
    annual_means,
    attach_mask,
    daily_cell_means,
    degree_day_series,
    fit_demand_temperature_cubic,
    global_t0,
    load_grid_raster,
    population_weighted_daily_temp,
    read_grid_csv,
    read_mask_csv,
    read_population_csv,
    reference_temperature,
    spatial_temp_stddev,
)


def _grid_2x2(days: int = 3, base: float = 10.0) -> TemperatureGrid:
    lats = np.array([30.0, 30.25])
    lons = np.array([-98.0, -97.75])
    times = [date(2020, 1, 1) + timedelta(days=i) for i in range(days)]
    values = np.empty((days, 2, 2))
    for i in range(days):
        values[i] = base + i + np.array([[0.0, 1.0], [2.0, 3.0]])
    return TemperatureGrid(lats, lons, times, values)


def _pop_grid(weights_2x2: list[list[float]], epochs=(2000,)) -> PopulationGrid:
    lats = np.array([30.0, 30.25])
    lons = np.array([-98.0, -97.75])
    w = np.stack([np.array(weights_2x2, dtype=float) for _ in epochs])
    return PopulationGrid(lats, lons, list(epochs), w)


class TestPopulationWeightedTemp:
    def test_uniform_weights_equal_plain_mean(self) -> None:
        grid = _grid_2x2()
        pop = _pop_grid([[1, 1], [1, 1]])
        weighted = population_weighted_daily_temp(grid, pop).values
        unweighted = population_weighted_daily_temp(grid, None).values
        for w, u in zip(weighted, unweighted):
            assert w == pytest.approx(u)
        assert unweighted[0] == pytest.approx(11.5)

    def test_all_weight_in_one_cell(self) -> None:
        grid = _grid_2x2()
        pop = _pop_grid([[0, 0], [0, 5]])
        temps = population_weighted_daily_temp(grid, pop).values
        assert temps[0] == pytest.approx(13.0)
        assert temps[2] == pytest.approx(15.0)

    def test_two_cell_hand_computation(self) -> None:
        # weights (1, 3) on temps (10, 20) -> 17.5
        lats = np.array([30.0])
        lons = np.array([-98.0, -97.75])
        grid = TemperatureGrid(
            lats, lons, [date(2020, 1, 1)], np.array([[[10.0, 20.0]]])
        )
        pop = PopulationGrid(lats, lons, [2000], np.array([[[1.0, 3.0]]]))
        (temp,) = population_weighted_daily_temp(grid, pop).values
        assert temp == pytest.approx(17.5)

    def test_weight_scale_invariance(self) -> None:
        grid = _grid_2x2()
        pop_a = _pop_grid([[1, 2], [3, 4]])
        pop_b = _pop_grid([[7, 14], [21, 28]])
        for a, b in zip(
            population_weighted_daily_temp(grid, pop_a).values,
            population_weighted_daily_temp(grid, pop_b).values,
        ):
            assert a == pytest.approx(b, rel=1e-12)

    def test_mask_restricts_cells(self) -> None:
        grid = _grid_2x2()
        grid.mask = np.array([[True, False], [False, False]])
        (first, *_rest) = population_weighted_daily_temp(grid, None).values
        assert first == pytest.approx(10.0)

    def test_hourly_grid_averaged_per_day(self) -> None:
        lats = np.array([30.0])
        lons = np.array([-98.0])
        times = [datetime(2020, 1, 1, h) for h in (0, 6, 12)] + [datetime(2020, 1, 2, 0)]
        values = np.array([[[3.0]], [[6.0]], [[9.0]], [[20.0]]])
        grid = TemperatureGrid(lats, lons, times, values)
        temps = population_weighted_daily_temp(grid, None)
        assert temps.first == date(2020, 1, 1)
        assert temps.values[0] == pytest.approx(6.0)
        assert temps.values[1] == pytest.approx(20.0)

    def test_epoch_selection_nearest_previous(self) -> None:
        lats = np.array([30.0])
        lons = np.array([-98.0, -97.75])
        days = [date(1980, 6, 1), date(2003, 6, 1), date(2012, 6, 1), date(2024, 6, 1)]
        values = np.tile(np.array([[10.0, 20.0]]), (4, 1, 1))
        grid = TemperatureGrid(lats, lons, days, values)
        # epoch 2000 weights all on cell 0; 2010 all on cell 1; 2020 split evenly
        weights = np.array(
            [[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]]
        )
        pop = PopulationGrid(lats, lons, [2000, 2010, 2020], weights)
        series = population_weighted_daily_temp(grid, pop)
        days = series.days[series.present].astype("datetime64[Y]").astype(int) + 1970
        temps = dict(zip(days.tolist(), series.values[series.present].tolist()))
        assert temps[1980] == pytest.approx(10.0)  # before first epoch -> 2000
        assert temps[2003] == pytest.approx(10.0)  # 2003 -> 2000
        assert temps[2012] == pytest.approx(20.0)  # 2012 -> 2010
        assert temps[2024] == pytest.approx(15.0)  # after last epoch -> 2020

    def test_zero_weight_in_mask_errors(self) -> None:
        grid = _grid_2x2()
        grid.mask = np.array([[True, True], [False, False]])
        pop = _pop_grid([[0, 0], [5, 5]])
        with pytest.raises(ValueError, match="sum to zero"):
            population_weighted_daily_temp(grid, pop)

    def test_not_coregistered_errors(self) -> None:
        grid = _grid_2x2()
        pop = PopulationGrid(
            np.array([31.0, 31.25]), grid.lons, [2000], np.ones((1, 2, 2))
        )
        with pytest.raises(ValueError, match="not co-registered"):
            population_weighted_daily_temp(grid, pop)


class TestCubicFit:
    def test_recovers_golden_2022_row(self) -> None:
        year, a1, a2, a3, a4, _ = GOLDEN_CUBIC_ROWS[-1]
        assert year == 2022
        ts = np.arange(-2.0, 38.0, 0.5)
        pairs = [(t, ((a1 * t + a2) * t + a3) * t + a4) for t in ts]
        fit = fit_demand_temperature_cubic(pairs, year=year)
        assert fit.a1 == pytest.approx(a1, rel=1e-6)
        assert fit.a2 == pytest.approx(a2, rel=1e-6)
        assert fit.a3 == pytest.approx(a3, rel=1e-6)
        assert fit.a4 == pytest.approx(a4, rel=1e-6)
        assert fit.fit_range == (pytest.approx(-2.0), pytest.approx(37.5))

    def test_four_exact_points_interpolate(self) -> None:
        cubic = lambda t: 2 * t**3 - 3 * t**2 + 4 * t - 5
        pairs = [(t, cubic(t)) for t in (-1.0, 0.0, 2.0, 5.0)]
        fit = fit_demand_temperature_cubic(pairs)
        for t, d in pairs:
            assert ((fit.a1 * t + fit.a2) * t + fit.a3) * t + fit.a4 == pytest.approx(d, abs=1e-8)

    def test_constant_demand(self) -> None:
        pairs = [(t, 500.0) for t in (0.0, 5.0, 10.0, 15.0, 20.0)]
        fit = fit_demand_temperature_cubic(pairs)
        assert fit.a1 == pytest.approx(0.0, abs=1e-9)
        assert fit.a2 == pytest.approx(0.0, abs=1e-9)
        assert fit.a3 == pytest.approx(0.0, abs=1e-9)
        assert fit.a4 == pytest.approx(500.0)

    def test_too_few_distinct_abscissae(self) -> None:
        pairs = [(1.0, 5.0), (1.0, 6.0), (2.0, 7.0), (3.0, 8.0)]
        with pytest.raises(ValueError, match="4 distinct temperatures"):
            fit_demand_temperature_cubic(pairs)


class TestReferenceTemperature:
    @staticmethod
    def _fit(year: int) -> CubicDemandFit:
        row = next(r for r in GOLDEN_CUBIC_ROWS if r[0] == year)
        _, a1, a2, a3, a4, _ = row
        return CubicDemandFit(year, a1, a2, a3, a4, fit_range=(-10.0, 40.0))

    def test_golden_2022(self) -> None:
        assert reference_temperature(self._fit(2022)) == pytest.approx(14.89, abs=0.05)

    def test_golden_1996(self) -> None:
        assert reference_temperature(self._fit(1996)) == pytest.approx(14.09, abs=0.05)

    def test_golden_1999_negative_cubic_term(self) -> None:
        # a1 < 0: the smaller derivative root is the one with positive curvature.
        assert reference_temperature(self._fit(1999)) == pytest.approx(13.37, abs=0.05)

    def test_parabola_vertex_when_a1_zero(self) -> None:
        fit = CubicDemandFit(None, 0.0, 1.0, -30.0, 0.0, fit_range=(0.0, 40.0))
        assert reference_temperature(fit) == pytest.approx(15.0)

    def test_no_minimum_when_concave_parabola(self) -> None:
        fit = CubicDemandFit(None, 0.0, -1.0, 30.0, 0.0, fit_range=(0.0, 40.0))
        with pytest.raises(ValueError, match="no interior minimum"):
            reference_temperature(fit)

    def test_no_stationary_point_errors(self) -> None:
        fit = CubicDemandFit(None, 1.0, 0.0, 1.0, 0.0, fit_range=(0.0, 40.0))
        message = "demand fit has no interior minimum (no stationary points)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reference_temperature(fit)

    def test_minimum_outside_range_errors(self) -> None:
        fit = CubicDemandFit(None, 0.0, 1.0, -30.0, 0.0, fit_range=(20.0, 40.0))
        with pytest.raises(ValueError, match="outside the fit range"):
            reference_temperature(fit)

    def test_invariant_under_demand_offset(self) -> None:
        base = self._fit(2022)
        shifted = CubicDemandFit(
            base.year, base.a1, base.a2, base.a3, base.a4 + 12345.0, base.fit_range
        )
        assert reference_temperature(shifted) == pytest.approx(
            reference_temperature(base), abs=1e-12
        )

    def test_refit_then_t0_matches_listed_value(self) -> None:
        _, a1, a2, a3, a4, t0 = GOLDEN_CUBIC_ROWS[-1]
        ts = np.arange(-2.0, 38.0, 0.25)
        pairs = [(t, ((a1 * t + a2) * t + a3) * t + a4) for t in ts]
        fit = fit_demand_temperature_cubic(pairs)
        assert reference_temperature(fit) == pytest.approx(t0, abs=0.05)

    @settings(max_examples=300, deadline=None)
    @given(
        a1=st.sampled_from([0]) | st.integers(-500, 2500),
        at=st.integers(-200, 500),
        curvature=st.integers(-500, 2000),
        lo=st.integers(-150, 250),
        width=st.integers(10, 450),
    )
    def test_matches_dense_grid_search(self, a1, at, curvature, lo, width) -> None:
        # Cubics on the scale of the golden fits, drawn by a stationary point
        # and the curvature there: a minimum when it is positive, and when it
        # is negative a maximum, with maybe a minimum elsewhere. The range
        # may miss it. The grid holds every grid point's exact demand, so its
        # interior minimum is the grid point next to the cubic's, less than a
        # step away. A minimum that the grid misses lies less than a step
        # inside the range, or less than two steps from the cubic's maximum
        # (the other root of D', the two summing to -2 a2 / 3 a1): its dip is
        # narrower than the grid, as when a zero curvature is drawn and the
        # rounded coefficients split the double root.
        a1, m, c = a1 / 1000, at / 10, curvature / 10
        a2 = (c - 6 * a1 * m) / 2
        fit_range = (lo / 10, (lo + width) / 10)
        fit = CubicDemandFit(None, a1, a2, -(3 * a1 * m + 2 * a2) * m, 0.0, fit_range)
        want = oracles.reference_demand_minimum(fit)
        try:
            got = reference_temperature(fit)
        except ValueError:
            assert want is None
            return
        if want is not None:
            assert abs(got - want[0]) <= want[1]
            return
        t_lo, t_hi = fit_range
        step = (t_hi - t_lo) / 2**13
        near_edge = min(got - t_lo, t_hi - got) <= step
        assert near_edge or (a1 != 0 and abs(-2 * a2 / (3 * a1) - 2 * got) < 2 * step)


class TestDegreeDays:
    @staticmethod
    def _degree_days(temps: list[float], t0: float) -> list[float]:
        series = DailySeries(date(2020, 1, 1), np.array(temps))
        return degree_day_series(series, t0).values.tolist()

    def test_zero_at_reference(self) -> None:
        assert self._degree_days([14.89], 14.89) == [0.0]

    def test_upper_branch(self) -> None:
        assert self._degree_days([20.0], 15.0) == [5.0]

    def test_lower_branch(self) -> None:
        assert self._degree_days([10.0], 15.0) == [5.0]

    def test_symmetry_and_nonnegativity(self) -> None:
        rng = np.random.default_rng(5)
        for _ in range(200):
            t0 = float(rng.uniform(-20, 40))
            x = float(rng.uniform(0, 30))
            above, below = self._degree_days([t0 + x, t0 - x], t0)
            assert above >= 0.0
            assert above == pytest.approx(below)

    def test_series_helper(self) -> None:
        series = degree_day_series(DailySeries.from_mapping({date(2020, 1, 1): 12.0}), 15.0)
        assert series.first == date(2020, 1, 1)
        assert series.values[0] == pytest.approx(3.0)


class TestGlobalT0:
    def test_mean_of_golden_rows(self) -> None:
        assert global_t0([row[5] for row in GOLDEN_CUBIC_ROWS]) == pytest.approx(
            GOLDEN_T0_MEAN, abs=1e-12
        )

    def test_single_year(self) -> None:
        assert global_t0([14.2]) == 14.2

    def test_two_years(self) -> None:
        assert global_t0([14.0, 15.0]) == pytest.approx(14.5)

    def test_empty_errors(self) -> None:
        with pytest.raises(ValueError, match="no yearly reference temperatures"):
            global_t0([])


class TestSpatialStd:
    def test_uniform_grid_is_zero(self) -> None:
        lats = np.array([30.0, 30.25])
        lons = np.array([-98.0])
        values = np.full((3, 2, 1), 17.0)
        grid = TemperatureGrid(
            lats, lons, [date(2020, 1, 1) + timedelta(days=i) for i in range(3)], values
        )
        assert spatial_temp_stddev(grid) == 0.0

    def test_two_cells_population_std(self) -> None:
        lats = np.array([30.0])
        lons = np.array([-98.0, -97.75])
        values = np.tile(np.array([[10.0, 20.0]]), (4, 1, 1))
        grid = TemperatureGrid(
            lats, lons, [date(2020, 1, 1) + timedelta(days=i) for i in range(4)], values
        )
        assert spatial_temp_stddev(grid) == pytest.approx(5.0)

    def test_single_cell_mask_warns_and_returns_zero(self) -> None:
        grid = _grid_2x2()
        grid.mask = np.array([[True, False], [False, False]])
        with pytest.warns(UserWarning, match="single-cell"):
            assert spatial_temp_stddev(grid) == 0.0

    def test_grid_without_days_errors(self) -> None:
        with pytest.raises(ValueError, match="^temperature grid has no days$"):
            spatial_temp_stddev(_grid_2x2(days=0))

    def test_mask_selecting_uniform_subregion(self) -> None:
        grid = _grid_2x2()
        grid.mask = np.array([[False, True], [False, False]])
        with pytest.warns(UserWarning):
            assert spatial_temp_stddev(grid) == 0.0


class TestGridIO:
    def test_raster_round_trip_bit_exact(self, tmp_path) -> None:
        # The .npy values and a JSON sidecar of the axes, written here the
        # way perfbench/world.py writes them.
        grid = _grid_2x2()
        grid.values *= np.pi
        for hourly in (False, True):
            if hourly:
                grid = replace(grid, times=[datetime(2020, 1, 1, h) for h in range(len(grid.times))])
            path = tmp_path / f"grid_{int(hourly)}.npy"
            np.save(path, grid.values)
            sidecar = {
                "lats": grid.lats.tolist(),
                "lons": grid.lons.tolist(),
                "times": [t.isoformat() for t in grid.times.tolist()],
                "hourly": hourly,
            }
            path.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")
            back = load_grid_raster(path)
            assert back.values[:].tobytes() == grid.values.tobytes()
            assert back.times.dtype == grid.times.dtype
            assert np.array_equal(back.times, grid.times)
            assert back.is_hourly == hourly
            assert np.array_equal(back.lats, grid.lats)
            assert np.array_equal(back.lons, grid.lons)

    @pytest.mark.parametrize(
        "times, hourly, bad",
        [
            (["2020-01-01T00:00:00-06:00", "2020-01-01T01:00:00-06:00"], True, 0),
            (["2020-01-01T00:00", "2020-01-01T02:00", "2020-01-01T01:00"], True, 2),
            (["2020-01-01", "2020-01-03", "2020-01-02"], False, 2),
            (["2020-01-01T00:00", "2020-01-01T01:00Z"], True, 1),
            (["2020-01-01", "2020-01-02T00:00:00"], False, 1),
            (["2020-01-01", "2020-01-02", "2020-01-02"], False, 2),
            (["2020-01-01", "2020-01-02"], True, 0),
            (["2020-01-01T00:00", "2020-01-01T01:00"], False, 0),
            # A time out of order before a text that does not decode.
            (["2020-01-01T01:00", "2020-01-01T00:00", "2020-01-01T02:00Z"], True, 1),
            (["2020-02-28", "2020-02-30"], False, 1),
        ],
        ids=[
            "offset",
            "unsorted-hours",
            "unsorted-days",
            "z",
            "day-with-time",
            "repeated-day",
            "hourly-over-dates",
            "daily-over-datetimes",
            "unsorted-before-z",
            "no-such-day",
        ],
    )
    def test_bad_sidecar_time_is_named(self, tmp_path, times, hourly, bad) -> None:
        path = tmp_path / "grid.npy"
        np.save(path, np.zeros((len(times), 1, 1)))
        sidecar = {"lats": [30.0], "lons": [-98.0], "times": times, "hourly": hourly}
        path.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")
        message = f"{path.with_suffix('.json')}: bad time {bad}: {times[bad]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_grid_raster(path)

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"times": "2020-01-01"}, "'times' is not an array: '2020-01-01'"),
            ({"times": None}, "'times' is not an array: None"),
            ({"hourly": None}, "no 'hourly'"),
            ({"lats": None}, "no 'lats'"),
            ({"lons": 30.0}, "'lons' is not an array: 30.0"),
            ({"hourly": 0}, "'hourly' is not true or false: 0"),
        ],
        ids=["times-text", "times-null", "no-hourly", "no-lats", "lons-number", "hourly-number"],
    )
    def test_bad_sidecar_structure_is_named(self, tmp_path, change, problem) -> None:
        # A value of None in change drops the key, except for times, where it is null.
        path = tmp_path / "grid.npy"
        np.save(path, np.zeros((1, 1, 1)))
        sidecar = {"lats": [30.0], "lons": [-98.0], "times": ["2020-01-01"], "hourly": False}
        sidecar.update(change)
        sidecar = {k: v for k, v in sidecar.items() if v is not None or k == "times"}
        path.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")
        message = f"{path.with_suffix('.json')}: {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_grid_raster(path)

    def test_sidecar_that_is_not_an_object_is_named(self, tmp_path) -> None:
        path = tmp_path / "grid.npy"
        np.save(path, np.zeros((1, 1, 1)))
        path.with_suffix(".json").write_text('["2020-01-01"]', encoding="utf-8")
        message = f"{path.with_suffix('.json')}: no 'lats'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_grid_raster(path)

    def test_raster_shape_must_match_sidecar(self, tmp_path) -> None:
        path = tmp_path / "grid.npy"
        np.save(path, np.zeros((3, 2, 2)))
        sidecar = {"lats": [30.0, 30.25], "lons": [-98.0], "times": ["2020-01-01"], "hourly": False}
        path.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")
        message = "raster shape (3, 2, 2) does not match sidecar axes (1, 2, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_grid_raster(path)

    @pytest.mark.parametrize(
        "key",
        [
            slice(None),
            slice(1, 3),
            slice(-2, None),
            slice(3, 1),
            slice(2, 99),
            slice(None, None, 2),
            slice(None, None, -1),
            0,
            -1,
            np.int64(2),
            (slice(1, 3), 0),
            (2, slice(None), 1),
            (Ellipsis, 0),
            [3, 0],
        ],
    )
    def test_raster_reader_indexes_like_the_array(self, tmp_path, key) -> None:
        # A step-1 slice of days reads the array's rows; the reader refuses
        # any other index rather than read the whole file.
        grid = _grid_2x2(days=5)
        grid.values *= np.pi
        back = load_grid_raster(write_raster(tmp_path / "grid.npy", grid))
        assert isinstance(back.values, RasterReader)
        assert (back.values.shape, back.values.dtype, back.values.size) == (
            grid.values.shape,
            grid.values.dtype,
            grid.values.size,
        )
        if not isinstance(key, slice) or key.step is not None:
            with pytest.raises(TypeError, match="step-1 slices of days only"):
                back.values[key]
            return
        got, want = back.values[key], grid.values[key]
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_raster_slice_reads_only_its_days(self, tmp_path, monkeypatch) -> None:
        grid = _grid_2x2(days=10)
        back = load_grid_raster(write_raster(tmp_path / "grid.npy", grid))
        counts = []
        fromfile = np.fromfile

        def spy(*args, **kwargs):
            rows = fromfile(*args, **kwargs)
            counts.append(rows.size)
            return rows

        monkeypatch.setattr(np, "fromfile", spy)
        assert back.values[4:7].tobytes() == grid.values[4:7].tobytes()
        assert back.values[-2:].tobytes() == grid.values[-2:].tobytes()
        assert counts == [3 * 4, 2 * 4]

    def test_hourly_raster_is_read_in_day_blocks(self, tmp_path, monkeypatch) -> None:
        # A year of hours on 10x10 cells, with some hours missing, so that
        # days differ in length.
        rng = np.random.default_rng(3)
        hours = [datetime(2021, 1, 1) + timedelta(hours=h) for h in range(365 * 24)]
        times = [t for t in hours if rng.random() < 0.9]
        grid = TemperatureGrid(
            np.arange(10.0), np.arange(10.0), times, rng.normal(15.0, 9.0, (len(times), 10, 10))
        )
        back = load_grid_raster(write_raster(tmp_path / "grid.npy", grid))
        reads = []
        read = RasterReader._read

        def spy(self, start, stop):
            reads.append((start, stop))
            return read(self, start, stop)

        monkeypatch.setattr(RasterReader, "_read", spy)
        days, means = daily_cell_means(back)

        # Whole days per read, 256 of them at most: 365 days take 2 reads.
        assert len(reads) == 2
        assert max(len({t.date() for t in times[a:b]}) for a, b in reads) == 256
        assert [a for a, _ in reads] == [0, reads[0][1]] and reads[-1][1] == len(times)
        assert times[reads[0][1] - 1].date() != times[reads[0][1]].date()
        # The bits of a mean over each day's hours held in memory.
        day_of = [t.date() for t in times]
        assert days.tolist() == sorted(set(day_of))
        want = [grid.values[day_of.index(d) : len(day_of) - day_of[::-1].index(d)] for d in days]
        assert means.tobytes() == np.stack([v.mean(axis=0) for v in want]).tobytes()

    def test_raster_shorter_than_its_header_is_named(self, tmp_path) -> None:
        path = write_raster(tmp_path / "grid.npy", _grid_2x2(days=3))
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        # 3 days x 4 cells x 8 bytes after the 128-byte header
        message = f"raster {path} holds 88 bytes of data; its header declares 96"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_grid_raster(path)

    def test_object_raster_is_refused(self, tmp_path) -> None:
        grid = _grid_2x2(days=1)
        grid.values = grid.values.astype(object)
        path = write_raster(tmp_path / "grid.npy", grid)
        message = f"raster {path} holds Python objects; only numeric rasters are read"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_grid_raster(path)

    def test_fortran_ordered_raster_is_read_whole(self, tmp_path) -> None:
        grid = _grid_2x2(days=4)
        grid.values = np.asfortranarray(grid.values * np.pi)
        back = load_grid_raster(write_raster(tmp_path / "grid.npy", grid))
        assert isinstance(back.values, np.ndarray)
        assert back.values.tobytes() == grid.values.tobytes()

    @pytest.mark.parametrize(
        "read, rows, message",
        [
            (read_population_csv, ["lat,lon,epoch,persons"], "population file has no data rows"),
            (read_mask_csv, ["lat,lon,in_region", ""], "mask file has no data rows"),
            (
                read_population_csv,
                ["lat,lon,epoch,persons", "30.0,-98.0,2000,-1"],
                "line 2: negative persons value '-1'",
            ),
            (
                read_mask_csv,
                ["lat,lon,in_region", "30.0,-98.0,yes"],
                "line 2: in_region must be 0 or 1, got 'yes'",
            ),
        ],
        ids=["empty-population", "empty-mask", "negative-persons", "mask-flag"],
    )
    def test_population_and_mask_rejections(self, read, rows, message) -> None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(rows)

    def test_duplicate_cell_errors(self) -> None:
        rows = [
            "lat,lon,date,t2m_c",
            "30.0,-98.0,2020-01-01,10.0",
            "30.0,-98.0,2020-01-01,11.0",
        ]
        with pytest.raises(ValueError, match="duplicate grid entry"):
            read_grid_csv(rows)

    def test_mixed_time_kinds_error(self) -> None:
        rows = [
            "lat,lon,date,t2m_c",
            "30.0,-98.0,2020-01-01,10.0",
            "30.0,-98.0,2020-01-02T05:00,11.0",
        ]
        with pytest.raises(ValueError, match="mixes daily and hourly"):
            read_grid_csv(rows)

    def test_mask_read_and_attach(self) -> None:
        grid = _grid_2x2()
        mask = read_mask_csv(
            [
                "lat,lon,in_region",
                "30.0,-98.0,1",
                "30.0,-97.75,0",
                "30.25,-98.0,1",
                "30.25,-97.75,0",
            ]
        )
        masked = attach_mask(grid, mask)
        assert masked.mask.sum() == 2

    def test_mask_not_coregistered(self) -> None:
        grid = _grid_2x2()
        mask = RegionMask(np.array([1.0, 2.0]), grid.lons, np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="not co-registered"):
            attach_mask(grid, mask)

    def test_population_read(self) -> None:
        pop = read_population_csv(
            [
                "lat,lon,epoch,persons",
                "30.0,-98.0,2000,100",
                "30.0,-98.0,2005,150",
                "30.0,-97.75,2000,50",
                "30.0,-97.75,2005,60",
            ]
        )
        assert pop.epochs == [2000, 2005]
        assert pop.weights[1, 0, 0] == 150.0

    def test_population_duplicate_errors(self) -> None:
        rows = [
            "lat,lon,epoch,persons",
            "30.0,-98.0,2000,100",
            "30.0,-97.75,2000,50",
            "30.0,-98.0,2000,5",
        ]
        with pytest.raises(
            ValueError, match=r"^line 4: duplicate population entry for \(30.0, -98.0, 2000\)$"
        ):
            read_population_csv(rows)

    def test_mask_duplicate_errors(self) -> None:
        rows = ["lat,lon,in_region", "30.0,-98.0,1", "", "30.0,-98.0,0"]
        with pytest.raises(
            ValueError, match=r"^line 4: duplicate mask entry for \(30.0, -98.0\)$"
        ):
            read_mask_csv(rows)


class TestAnnualMeans:
    def test_groups_by_year(self) -> None:
        temps = DailySeries.from_mapping(
            {date(2020, 1, 1): 10.0, date(2020, 1, 2): 20.0, date(2021, 1, 1): 30.0}
        )
        assert annual_means(temps) == {2020: 15.0, 2021: 30.0}
