"""The dense day-axis kernels against the per-day references in oracles.py.

The regional reductions and the window search must give the same bits
as the per-day code, and the same error text, for any block length.
"""

from __future__ import annotations

import math
import warnings
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from rasters import write_raster
from shoulderseason import thermal
from shoulderseason.ingest import DailySeries
from shoulderseason.thermal import PopulationGrid, TemperatureGrid
from shoulderseason.windows import min_window

FIRST_DAY = date(2001, 12, 20)
EPOCHS = (2000, 2003, 2005, 2008, 2012)
TINY = np.finfo(float).tiny  # the smallest normal float


def _bits(value: float) -> str:
    """Tells every float apart, -0.0 from 0.0 too."""
    return repr(float(value))


def _outcome(fn, *args):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _blocked(block_days: int | None, fn, *args):
    if block_days is None:
        return _outcome(fn, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermal, "_BLOCK_DAYS", block_days)
        return _outcome(fn, *args)


def _series_rows(series: DailySeries) -> list[tuple[date, str]]:
    present = series.present
    days = series.days[present].tolist()
    return list(zip(days, map(_bits, series.values[present].tolist())))


_TEMPS = st.one_of(
    st.floats(-40.0, 50.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, 12.5]),
)


@st.composite
def regions(draw):
    """A grid with gaps in its day axis, maybe hourly, a mask and maybe NaN cells."""
    n_lat, n_lon = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    offsets = sorted(draw(st.sets(st.integers(0, 4000), min_size=1, max_size=24)))
    days = [FIRST_DAY + timedelta(days=o) for o in offsets]
    if draw(st.booleans()):
        hours = [sorted(draw(st.sets(st.integers(0, 23), min_size=1, max_size=3))) for _ in days]
        times = [datetime(d.year, d.month, d.day, h) for d, hs in zip(days, hours) for h in hs]
    else:
        times = days
    shape = (len(times), n_lat, n_lon)
    values = np.array(draw(st.lists(_TEMPS, min_size=math.prod(shape), max_size=math.prod(shape))))
    values = values.reshape(shape)
    for _ in range(draw(st.integers(0, 2))):  # NaN cells, inside the mask or not
        index = tuple(draw(st.integers(0, n - 1)) for n in shape)
        values[index] = np.nan
    lats, lons = np.arange(n_lat) * 0.25 + 30.0, np.arange(n_lon) * 0.25 - 98.0
    grid = TemperatureGrid(lats, lons, times, values)
    kind = draw(st.sampled_from(["all", "one", "some"]))
    if kind == "one":
        grid.mask = np.zeros((n_lat, n_lon), dtype=bool)
        grid.mask[draw(st.integers(0, n_lat - 1)), draw(st.integers(0, n_lon - 1))] = True
    elif kind == "some":
        flags = draw(st.lists(st.booleans(), min_size=n_lat * n_lon, max_size=n_lat * n_lon))
        grid.mask = np.array(flags).reshape(n_lat, n_lon)
    return grid


@st.composite
def populations(draw, grid: TemperatureGrid):
    """Several epochs, some of them zero inside the region, on the grid's axes."""
    epochs = sorted(draw(st.sets(st.sampled_from(EPOCHS), min_size=1, max_size=4)))
    shape = (len(epochs), len(grid.lats), len(grid.lons))
    persons = st.one_of(st.just(0.0), st.floats(0.0, 1e4, allow_subnormal=False))
    weights = np.array(draw(st.lists(persons, min_size=math.prod(shape), max_size=math.prod(shape))))
    weights = weights.reshape(shape)
    for e in range(len(epochs)):
        if draw(st.integers(0, 3)) == 0:
            weights[e] = 0.0  # a zero-weight epoch, which only its own years use
    return PopulationGrid(grid.lats, grid.lons, epochs, weights)


_BLOCKS = st.one_of(st.none(), st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), block_days=_BLOCKS)
def test_weighted_temperature_matches_reference(data, block_days) -> None:
    grid = data.draw(regions())
    pop = data.draw(st.one_of(st.none(), populations(grid)))
    want = _outcome(oracles.reference_population_weighted_daily_temp, grid, pop)
    got = _blocked(block_days, thermal.population_weighted_daily_temp, grid, pop)
    if isinstance(want, str):
        assert got == want
        return
    assert _series_rows(got) == [(d, _bits(t)) for d, t in want]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), block_days=_BLOCKS)
def test_spatial_stddev_matches_reference(data, block_days) -> None:
    grid = data.draw(regions())
    want = _outcome(oracles.reference_spatial_temp_stddev, grid)
    got = _blocked(block_days, thermal.spatial_temp_stddev, grid)
    assert (got if isinstance(got, str) else _bits(got)) == (
        want if isinstance(want, str) else _bits(want)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(-30, 30))
def test_scaling_weights_by_a_power_of_two_changes_no_bit(data, k: int) -> None:
    grid = data.draw(regions())
    grid.values[np.isnan(grid.values)] = 1.0
    pop = data.draw(populations(grid))
    # Scaling by 2**k is exact only in the normal range: a subnormal weight
    # or product w*t keeps fewer significant bits and rounds differently at
    # another scale (IEEE 754 gradual underflow, not a fault of the reduction).
    # So every nonzero weight and product must stay normal at both scales.
    _, temps = thermal.daily_cell_means(grid)
    temps = np.abs(temps[np.isfinite(temps) & (temps != 0)])
    weights = pop.weights[pop.weights != 0]
    if len(weights):
        smallest = weights.min() * min(1.0, 2.0**k)
        assume(smallest >= TINY and (not len(temps) or smallest * temps.min() >= TINY))
    scaled = PopulationGrid(pop.lats, pop.lons, pop.epochs, pop.weights * 2.0**k)
    want = _outcome(thermal.population_weighted_daily_temp, grid, pop)
    got = _outcome(thermal.population_weighted_daily_temp, grid, scaled)
    if isinstance(want, str):
        assert got == want
        return
    assert _series_rows(got) == _series_rows(want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("block_days", [None, 3, 7])
def test_reductions_match_reference_on_a_wide_region(seed: int, block_days) -> None:
    # 20 cells: rows long enough that pairwise and sequential sums differ.
    rng = np.random.default_rng(seed)
    days = [FIRST_DAY + timedelta(days=i) for i in range(0, 900, 3)]
    grid = TemperatureGrid(
        np.arange(4.0), np.arange(5.0), days, rng.normal(15.0, 9.0, (len(days), 4, 5))
    )
    grid.mask = rng.random((4, 5)) < 0.8 if seed % 2 else None
    pop = PopulationGrid(grid.lats, grid.lons, [2000, 2002], rng.uniform(0, 1e3, (2, 4, 5)))
    for got, want in [
        (
            _blocked(block_days, thermal.population_weighted_daily_temp, grid, pop),
            oracles.reference_population_weighted_daily_temp(grid, pop),
        ),
        (
            _blocked(block_days, thermal.population_weighted_daily_temp, grid, None),
            oracles.reference_population_weighted_daily_temp(grid, None),
        ),
    ]:
        assert _series_rows(got) == [(d, _bits(t)) for d, t in want]
    got_std = _blocked(block_days, thermal.spatial_temp_stddev, grid)
    assert _bits(got_std) == _bits(oracles.reference_spatial_temp_stddev(grid))


@pytest.mark.parametrize("hourly", [False, True], ids=["daily", "hourly"])
@pytest.mark.parametrize("block_days", [1, 7, 256])
def test_raster_backed_reductions_match_reference(tmp_path, hourly: bool, block_days: int) -> None:
    # The wide region above, read from a .npy raster a block of days at a
    # time, against the references on the same values held in memory.
    rng = np.random.default_rng(block_days)
    days = [FIRST_DAY + timedelta(days=i) for i in range(0, 900, 3)]
    if hourly:
        times = [datetime(d.year, d.month, d.day, h) for d in days for h in (0, 9, 17)]
    else:
        times = days
    grid = TemperatureGrid(
        np.arange(4.0), np.arange(5.0), times, rng.normal(15.0, 9.0, (len(times), 4, 5))
    )
    grid.mask = rng.random((4, 5)) < 0.8
    pop = PopulationGrid(grid.lats, grid.lons, [2000, 2002], rng.uniform(0, 1e3, (2, 4, 5)))
    raster = thermal.load_grid_raster(write_raster(tmp_path / "grid.npy", grid))
    assert isinstance(raster.values, thermal.RasterReader)
    raster.mask = grid.mask
    for weights in (pop, None):
        got = _blocked(block_days, thermal.population_weighted_daily_temp, raster, weights)
        want = oracles.reference_population_weighted_daily_temp(grid, weights)
        assert _series_rows(got) == [(d, _bits(t)) for d, t in want]
    got_std = _blocked(block_days, thermal.spatial_temp_stddev, raster)
    assert _bits(got_std) == _bits(oracles.reference_spatial_temp_stddev(grid))


def test_masked_copy_is_f_ordered_but_blocks_are_not() -> None:
    # The rule the reductions rest on: values[:, mask] comes out F-ordered.
    values = np.zeros((5, 3, 3))
    mask = np.ones((3, 3), dtype=bool)
    assert not values[:, mask].flags.c_contiguous
    grid = TemperatureGrid(np.arange(3.0), np.arange(3.0), [FIRST_DAY] * 5, values)
    _, _, blocks = thermal._region_blocks(grid)
    assert all(block.flags.c_contiguous for _, block, _ in blocks)


@pytest.mark.parametrize(
    "nan_day, message",
    [
        (2, "missing temperature inside region on 2001-12-30"),
        (7, "population weights sum to zero inside region for 2002"),
    ],
)
def test_the_first_bad_day_names_the_error(nan_day: int, message: str) -> None:
    # Days 2001-12-28 to 2002-01-06; the 2002 epoch is all zero, so day 4
    # (2002-01-01) is the first with zero weight.
    days = [date(2001, 12, 28) + timedelta(days=i) for i in range(10)]
    values = np.ones((10, 1, 2))
    values[nan_day, 0, 1] = np.nan
    grid = TemperatureGrid(np.array([30.0]), np.array([-98.0, -97.75]), days, values)
    weights = np.array([[[1.0, 1.0]], [[0.0, 0.0]]])
    pop = PopulationGrid(grid.lats, grid.lons, [2000, 2002], weights)
    for block_days in (None, 1, 3, 7):
        got = _blocked(block_days, thermal.population_weighted_daily_temp, grid, pop)
        assert got == f"ValueError: {message}"
        assert got == _outcome(oracles.reference_population_weighted_daily_temp, grid, pop)


# -- window search --------------------------------------------------------------


@st.composite
def window_series(draw):
    """A series around one year, with gaps, maybe reaching into the next year.

    Values are small integers (so windows tie) or uniform floats.
    """
    year = draw(st.sampled_from([2019, 2020]))
    start = date(year, 1, 1) - timedelta(days=draw(st.integers(0, 40)))
    n_days = draw(st.integers(1, 366 + 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 4, n_days) * 1.0 if draw(st.booleans()) else rng.uniform(0, 100, n_days)
    keep = rng.random(n_days) >= draw(st.sampled_from([0.0, 0.02, 0.1]))
    return year, {start + timedelta(days=i): float(values[i]) for i in np.flatnonzero(keep).tolist()}


@settings(max_examples=300, deadline=None)
@given(
    drawn=window_series(),
    half=st.sampled_from(["first", "second"]),
    window_len=st.integers(1, 60),
    max_missing=st.integers(0, 5),
    wrap=st.booleans(),
)
def test_min_window_matches_reference(drawn, half: str, window_len: int, max_missing: int, wrap: bool):
    year, series = drawn
    want = oracles.reference_min_window(series, year, half, window_len, max_missing, wrap)
    for given_series in (series, DailySeries.from_mapping(series)):
        got = _outcome(min_window, given_series, year, half, window_len, max_missing, wrap)
        if isinstance(want, str):
            assert got == f"ValueError: {want}"
            continue
        assert (got.onset, _bits(got.window_mean), got.days_used) == (
            want[0],
            _bits(want[1]),
            want[2],
        )
