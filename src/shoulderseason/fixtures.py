"""Deterministic synthetic input bundle for end-to-end runs and tests.

Builds a small self-consistent world on a 3x3 grid: a warming seasonal
temperature field, hourly load driven by a cubic response to daily mean
temperature, 15-minute fuel-mix and outage feeds, and a monthly climate
ensemble with a deliberate affine bias. Identical seeds produce byte-
identical files, so pipeline output can be compared run to run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ingest import FUEL_MIX_HEADER, LOAD_HEADER, OUTAGE_HEADER
from .projection import ENSEMBLE_HEADER
from .thermal import GRID_HEADER, MASK_HEADER, POPULATION_HEADER

LOAD_YEARS = range(2015, 2023)
TEMP_YEARS = range(1995, 2023)
MIX_YEARS = range(2019, 2023)
OUTAGE_YEARS = range(2020, 2023)
ENSEMBLE_YEARS = range(2015, 2071)
ENSEMBLE_MEMBERS = ("m01", "m02", "m03", "m04", "m05")

LATS = (30.0, 30.25, 30.5)
LONS = (-98.0, -97.75, -97.5)
# NW 2x2 block is the analysis region.
MASK = ((1, 1, 0), (1, 1, 0), (0, 0, 0))
CELL_OFFSETS = ((-1.0, -0.5, 0.2), (-0.25, 0.25, 0.6), (0.4, 0.8, 1.2))

BASE_TEMP_C = 14.5
WARMING_C_PER_YEAR = 0.05
SEASONAL_AMPLITUDE_C = 11.0
HOTTEST_DOY = 205.0

FILES = {
    "load": "fixture_load.csv",
    "fuel_mix": "fixture_fuel_mix.csv",
    "outages": "fixture_outages.csv",
    "grid": "fixture_temperature.csv",
    "population": "fixture_population.csv",
    "mask": "fixture_mask.csv",
    "ensemble": "fixture_ensemble.csv",
    "config": "fixture.conf",
}


def _day_text(year: int) -> list[str]:
    days = np.arange(f"{year}-01-01", f"{year + 1}-01-01", dtype="datetime64[D]")
    return np.datetime_as_string(days).tolist()


# Time suffixes of one day's 96 quarter-hour slots.
SLOTS = [f"T{h:02d}:{q:02d}" for h in range(24) for q in (0, 15, 30, 45)]


def _quarter_hour_stamps(days: list[str]) -> list[str]:
    return [d + slot for d in days for slot in SLOTS]


def _smooth(noise: np.ndarray, width: int = 7) -> np.ndarray:
    kernel = np.ones(width) / width
    return np.convolve(noise, kernel, mode="same")


def _regional_temp(year: int, n_days: int, rng: np.random.Generator) -> np.ndarray:
    doy = np.arange(1, n_days + 1, dtype=float)
    base = BASE_TEMP_C + WARMING_C_PER_YEAR * (year - LOAD_YEARS.start)
    seasonal = SEASONAL_AMPLITUDE_C * np.cos(2 * np.pi * (doy - HOTTEST_DOY) / 365.25)
    weather = _smooth(rng.normal(0.0, 2.4, size=n_days))
    return base + seasonal + weather


def _daily_profile() -> np.ndarray:
    hours = np.arange(24, dtype=float)
    return 0.86 + 0.28 * np.exp(-(((hours - 16.5) / 5.0) ** 2))


def _floor0(values: np.ndarray) -> list[float]:
    """`max(v, 0.0)` for each value, as Python floats in C order."""
    return np.where(values < 0.0, 0.0, values).ravel().tolist()


def _rows(fmt: str, *columns: list) -> str:
    """`fmt % row` for each row of the equal-length columns.

    One `%` over all rows formats faster than one f-string per line.
    """
    flat: list = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k :: len(columns)] = column
    return (fmt * len(columns[0])) % tuple(flat)


def generate_fixture(out_dir: Path | str, seed: int = 42) -> list[Path]:
    """Write the full synthetic input set plus a config file; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    written: list[Path] = []
    day_text = {year: _day_text(year) for year in TEMP_YEARS}
    regional = {year: _regional_temp(year, len(day_text[year]), rng) for year in TEMP_YEARS}

    # Temperature grid: daily per-cell values around the regional curve.
    grid_rows = []
    for year in TEMP_YEARS:
        days = day_text[year]
        cell_noise = rng.normal(0.0, 0.3, size=(len(days), len(LATS), len(LONS)))
        series = regional[year][:, None, None] + np.array(CELL_OFFSETS) + cell_noise
        for i, lat in enumerate(LATS):
            for j, lon in enumerate(LONS):
                grid_rows.append(_rows(f"{lat},{lon},%s,%.4f\n", days, series[:, i, j].tolist()))
    written.append(_write(out / FILES["grid"], GRID_HEADER, grid_rows))

    # Population: epochs 2000-2020, region cells dominate, mild growth.
    base_pop = ((900.0, 400.0, 10.0), (600.0, 300.0, 8.0), (5.0, 4.0, 2.0))
    pop_rows = []
    for k, epoch in enumerate((2000, 2005, 2010, 2015, 2020)):
        growth = 1.0 + 0.06 * k
        for i, lat in enumerate(LATS):
            for j, lon in enumerate(LONS):
                pop_rows.append(f"{lat},{lon},{epoch},{base_pop[i][j] * growth:.1f}\n")
    written.append(_write(out / FILES["population"], POPULATION_HEADER, pop_rows))

    mask_rows = [
        f"{lat},{lon},{MASK[i][j]}\n" for i, lat in enumerate(LATS) for j, lon in enumerate(LONS)
    ]
    written.append(_write(out / FILES["mask"], MASK_HEADER, mask_rows))

    # Hourly load: cubic response to the daily regional temperature plus a
    # diurnal profile; mild year-on-year growth.
    profile = _daily_profile()
    load_rows = []
    demand_by_year: dict[int, np.ndarray] = {}
    for year in LOAD_YEARS:
        days = day_text[year]
        growth = 1500.0 * (year - LOAD_YEARS.start)
        x = regional[year] - BASE_TEMP_C
        demand_day = demand_by_year[year] = 40000.0 + growth + 55.0 * x**2 + 1.2 * x**3
        hour_noise = rng.normal(0.0, 250.0, size=(len(days), 24))
        stamps = [f"{d},{h}" for d in days for h in range(24)]
        mw = _floor0(demand_day[:, None] * profile + hour_noise)
        load_rows.append(_rows("%s,%.3f\n", stamps, mw))
    written.append(_write(out / FILES["load"], LOAD_HEADER, load_rows))

    # Fuel mix at 15 minutes; solar, hydro and other depend only on the hour.
    solar = [
        max(0.0, 7000.0 * np.sin(np.pi * (h + 0.5 - 6.5) / 13.0)) if 6 <= h <= 19 else 0.0
        for h in range(24)
    ]
    mix_tail = [f",{solar[h]:.2f},250.00,150.00" for h in range(24) for _ in range(4)]
    mix_rows = []
    for year in MIX_YEARS:
        days = day_text[year]
        doy = np.arange(1, len(days) + 1, dtype=float)
        wind_day = 5500.0 + 2500.0 * np.sin(2 * np.pi * (doy - 90.0) / 365.25)
        wind_noise = _smooth(rng.normal(0.0, 900.0, size=len(days) * 96), width=13)
        wind = _floor0(wind_day[:, None] + wind_noise.reshape(len(days), 96))
        stamps = _quarter_hour_stamps(days)
        mix_rows.append(_rows("%s,%.2f%s\n", stamps, wind, mix_tail * len(days)))
    written.append(_write(out / FILES["fuel_mix"], FUEL_MIX_HEADER, mix_rows))

    # Outages at 15 minutes: maintenance bumps in spring and fall, quiet in
    # winter and high summer; telemetered output tracks load with margin.
    outage_rows = []
    for year in OUTAGE_YEARS:
        days = day_text[year]
        doy = np.arange(1, len(days) + 1, dtype=float)
        bumps = np.exp(-(((doy - 95.0) / 24.0) ** 2)) + np.exp(
            -(((doy - 300.0) / 24.0) ** 2)
        )
        outage_day = 7000.0 + 15000.0 * bumps
        noise = _smooth(rng.normal(0.0, 700.0, size=len(days) * 96), width=9)
        telem_noise = rng.normal(0.0, 200.0, size=(len(days), 24, 4))
        hour_mw = demand_by_year[year][:, None] * profile
        outage = _floor0(outage_day[:, None] + noise.reshape(len(days), 96))
        telem = _floor0(hour_mw[:, :, None] * 1.01 + 1500.0 + telem_noise)
        outage_rows.append(_rows("%s,%.2f,%.2f\n", _quarter_hour_stamps(days), outage, telem))
    written.append(_write(out / FILES["outages"], OUTAGE_HEADER, outage_rows))

    # Monthly ensemble with a deliberate affine bias relative to the
    # observed scale: raw = (obs_like - 1.0) / 0.92.
    month_shape = SEASONAL_AMPLITUDE_C * np.cos(2 * np.pi * (np.arange(1, 13) - 7.2) / 12.0)
    years = np.arange(ENSEMBLE_YEARS.start, ENSEMBLE_YEARS.stop)
    annual_obs_like = BASE_TEMP_C + 0.7 + WARMING_C_PER_YEAR * 0.9 * (years - LOAD_YEARS.start)
    draws = rng.normal(0.0, 0.22, size=(len(ENSEMBLE_MEMBERS), len(years)))
    raw = ((annual_obs_like - 1.0) / 0.92 + draws)[:, :, None] + month_shape
    keys = [
        f"{m},{y},{mo}" for m in ENSEMBLE_MEMBERS for y in ENSEMBLE_YEARS for mo in range(1, 13)
    ]
    ens_rows = [_rows("%s,%.4f\n", keys, raw.ravel().tolist())]
    written.append(_write(out / FILES["ensemble"], ENSEMBLE_HEADER, ens_rows))

    config_text = "\n".join(
        [
            "# synthetic fixture configuration",
            "region_label = synthetic-region",
            f"load_csv = {FILES['load']}",
            f"fuel_mix_csv = {FILES['fuel_mix']}",
            f"outage_csv = {FILES['outages']}",
            f"temperature_grid = {FILES['grid']}",
            f"population_csv = {FILES['population']}",
            f"mask_csv = {FILES['mask']}",
            f"ensemble_csv = {FILES['ensemble']}",
            "window_len = 45",
            "min_hours = 20",
            "max_missing_days = 3",
            "allow_year_wrap = true",
            "outlier_policy = none",
            "persistence = 3",
            "extra_outage_gw = 5.5",
            "adequacy_bin_gw = 1.0",
            "out_dir = out",
            "",
        ]
    )
    config_path = out / FILES["config"]
    config_path.write_text(config_text, encoding="utf-8")
    written.append(config_path)
    return written


def _write(path: Path, header: str, rows: list[str]) -> Path:
    path.write_text(header + "\n" + "".join(rows), encoding="utf-8")
    return path
