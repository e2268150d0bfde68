"""Seeded input worlds for the benchmark workloads.

`paper-scale` and `grid-csv` are built here, at the sizes the paper's
setting implies; `fixture42-rerun` uses the package's bundled fixture.
Every array is drawn from one `numpy` generator seeded with the workload
seed, so a seed always yields byte-identical files. Values are computed
as whole arrays and formatted in one pass per file to keep set-up short.

The worlds are built so that every stage of `all` writes all of its
outputs: demand is a cubic in temperature with its minimum inside each
year's range, outage years lie inside the load years, and telemetered
output always exceeds the planned-outage increment.

Run as a script to write one world (this is how the benchmark times
set-up in a process of its own):

    python3 perfbench/world.py --workload paper-scale --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIG_NAME = "world.conf"

BASE_TEMP_C = 14.5
WARMING_C_PER_YEAR = 0.02
SEASONAL_AMPLITUDE_C = 11.0
HOTTEST_DOY = 205.0
ENSEMBLE_MEMBERS = ("m01", "m02", "m03", "m04", "m05")
POPULATION_EPOCH_STEP = 5


@dataclass(frozen=True)
class WorldSpec:
    """Sizes of one generated world; year ranges are inclusive-exclusive."""

    n_lat: int
    n_lon: int
    temp_years: range
    load_years: range
    feed_years: range | None  # 15-minute fuel-mix and outage feeds
    raster: bool  # .npy + JSON sidecar instead of a long-format CSV
    ensemble_years: range = range(2015, 2071)

    @property
    def first_epoch(self) -> int:
        return -(-self.temp_years.start // POPULATION_EPOCH_STEP) * POPULATION_EPOCH_STEP


PAPER_SCALE = WorldSpec(20, 20, range(1959, 2023), range(1996, 2023), range(2018, 2023), True)
GRID_CSV = WorldSpec(10, 10, range(1990, 2023), range(2015, 2023), None, False)
SPECS = {"paper-scale": PAPER_SCALE, "grid-csv": GRID_CSV}


def _days(years: range) -> np.ndarray:
    return np.arange(
        np.datetime64(f"{years.start}-01-01"), np.datetime64(f"{years.stop}-01-01")
    )


def _year_doy(days: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    year_start = days.astype("datetime64[Y]")
    year = year_start.astype(int) + 1970
    doy = (days - year_start.astype("datetime64[D]")).astype(int) + 1
    return year, doy


def _smooth(noise: np.ndarray, width: int) -> np.ndarray:
    return np.convolve(noise, np.ones(width) / width, mode="same")


def _write(path: Path, header: str, lines: list[str]) -> None:
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def _quarter_stamps(day_strs: list[str]) -> list[str]:
    slots = [f"T{h:02d}:{q:02d}" for h in range(24) for q in (0, 15, 30, 45)]
    return [d + s for d in day_strs for s in slots]


def generate_world(spec: WorldSpec, out_dir: Path | str, seed: int) -> Path:
    """Write every input file of `spec` plus its config; returns the config path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    lats = 30.0 + 0.25 * np.arange(spec.n_lat)
    lons = -100.0 + 0.25 * np.arange(spec.n_lon)
    ii, jj = np.meshgrid(np.arange(spec.n_lat), np.arange(spec.n_lon), indexing="ij")
    # Cooler to the north and east; the region is a disc in the grid's middle.
    offsets = -0.12 * ii - 0.05 * jj + 0.6
    ci, cj = (spec.n_lat - 1) / 2, (spec.n_lon - 1) / 2
    radius2 = ((ii - ci) / (0.4 * spec.n_lat)) ** 2 + ((jj - cj) / (0.4 * spec.n_lon)) ** 2
    mask = radius2 <= 1.0
    base_pop = 5.0 + 1000.0 * np.exp(-2.0 * radius2)

    # Temperature: a warming seasonal regional curve plus per-cell noise.
    days = _days(spec.temp_years)
    year, doy = _year_doy(days)
    regional = (
        BASE_TEMP_C
        + WARMING_C_PER_YEAR * (year - spec.load_years.start)
        + SEASONAL_AMPLITUDE_C * np.cos(2 * np.pi * (doy - HOTTEST_DOY) / 365.25)
        + _smooth(rng.normal(0.0, 2.4, size=days.size), 7)
    )
    field = regional[:, None, None] + offsets + rng.normal(0.0, 0.3, (days.size, *offsets.shape))
    day_strs = np.datetime_as_string(days).tolist()
    if spec.raster:
        grid_name = "temperature.npy"
        np.save(out / grid_name, field)
        sidecar = {
            "lats": lats.tolist(),
            "lons": lons.tolist(),
            "times": day_strs,
            "hourly": False,
        }
        (out / "temperature.json").write_text(json.dumps(sidecar) + "\n", encoding="utf-8")
    else:
        grid_name = "temperature.csv"
        lines = []
        for i, lat in enumerate(lats.tolist()):
            for j, lon in enumerate(lons.tolist()):
                cell = f"{lat},{lon},"
                lines.extend(
                    [f"{cell}{d},{v:.4f}" for d, v in zip(day_strs, field[:, i, j].tolist())]
                )
        _write(out / grid_name, "lat,lon,date,t2m_c", lines)

    cells = [(lat, lon) for lat in lats.tolist() for lon in lons.tolist()]
    _write(
        out / "mask.csv",
        "lat,lon,in_region",
        [f"{lat},{lon},{int(m)}" for (lat, lon), m in zip(cells, mask.ravel().tolist())],
    )
    epochs = range(spec.first_epoch, spec.temp_years.stop, POPULATION_EPOCH_STEP)
    pop_lines = []
    for k, epoch in enumerate(epochs):
        persons = (base_pop * (1.0 + 0.03 * k)).ravel().tolist()
        pop_lines.extend(f"{lat},{lon},{epoch},{p:.1f}" for (lat, lon), p in zip(cells, persons))
    _write(out / "population.csv", "lat,lon,epoch,persons", pop_lines)

    # Hourly load: a cubic in the regional temperature (minimum at x = 0,
    # inside every year's range) times a diurnal profile, plus noise.
    load_sel = (year >= spec.load_years.start) & (year < spec.load_years.stop)
    x = regional[load_sel] - BASE_TEMP_C - WARMING_C_PER_YEAR * (year[load_sel] - spec.load_years.start)
    demand_day = 40000.0 + 150.0 * (year[load_sel] - spec.load_years.start) + 55.0 * x**2 + 1.2 * x**3
    hours = np.arange(24, dtype=float)
    profile = 0.86 + 0.28 * np.exp(-(((hours - 16.5) / 5.0) ** 2))
    hourly = np.maximum(demand_day[:, None] * profile + rng.normal(0.0, 250.0, (x.size, 24)), 0.0)
    load_days = [d for d, keep in zip(day_strs, load_sel.tolist()) if keep]
    _write(
        out / "load.csv",
        "date,hour,load_mw",
        [f"{d},{h},{v:.3f}" for d, row in zip(load_days, hourly.tolist()) for h, v in enumerate(row)],
    )

    feed_keys = []
    if spec.feed_years is not None:
        feed_sel = (year >= spec.feed_years.start) & (year < spec.feed_years.stop)
        feed_days = [d for d, keep in zip(day_strs, feed_sel.tolist()) if keep]
        stamps = _quarter_stamps(feed_days)
        n = len(stamps)
        feed_doy = np.repeat(doy[feed_sel], 96).astype(float)
        hour = np.tile(np.repeat(hours, 4), len(feed_days))
        wind = np.maximum(
            5500.0
            + 2500.0 * np.sin(2 * np.pi * (feed_doy - 90.0) / 365.25)
            + _smooth(rng.normal(0.0, 900.0, n), 13),
            0.0,
        )
        solar = np.where(
            (hour >= 6) & (hour <= 19),
            np.maximum(7000.0 * np.sin(np.pi * (hour + 0.5 - 6.5) / 13.0), 0.0),
            0.0,
        )
        _write(
            out / "fuel_mix.csv",
            "timestamp,wind_mw,solar_mw,hydro_mw,other_mw",
            [f"{s},{w:.2f},{so:.2f},250.00,150.00" for s, w, so in zip(stamps, wind.tolist(), solar.tolist())],
        )
        # Maintenance bumps in spring and fall; output tracks demand with margin.
        bumps = np.exp(-(((feed_doy - 95.0) / 24.0) ** 2)) + np.exp(-(((feed_doy - 300.0) / 24.0) ** 2))
        outage = np.maximum(7000.0 + 15000.0 * bumps + _smooth(rng.normal(0.0, 700.0, n), 9), 0.0)
        feed_demand = demand_day[feed_sel[load_sel]]
        telem = np.maximum(
            np.repeat(feed_demand[:, None] * profile, 4, axis=1).ravel() * 1.01
            + 1500.0
            + rng.normal(0.0, 200.0, n),
            0.0,
        )
        _write(
            out / "outages.csv",
            "timestamp,outage_mw,telemetered_output_mw",
            [f"{s},{o:.2f},{t:.2f}" for s, o, t in zip(stamps, outage.tolist(), telem.tolist())],
        )
        feed_keys = [("fuel_mix_csv", "fuel_mix.csv"), ("outage_csv", "outages.csv")]

    # Monthly ensemble with an affine bias against the observed scale.
    ens_years = np.arange(spec.ensemble_years.start, spec.ensemble_years.stop)
    month_shape = SEASONAL_AMPLITUDE_C * np.cos(2 * np.pi * (np.arange(1, 13) - 7.2) / 12.0)
    obs_like = BASE_TEMP_C + 0.7 + WARMING_C_PER_YEAR * 0.9 * (ens_years - spec.load_years.start)
    raw = (obs_like - 1.0) / 0.92 + rng.normal(0.0, 0.22, (len(ENSEMBLE_MEMBERS), ens_years.size))
    monthly = raw[:, :, None] + month_shape
    _write(
        out / "ensemble.csv",
        "member,year,month,t2m_c",
        [
            f"{member},{y},{m + 1},{monthly[k, yi, m]:.4f}"
            for k, member in enumerate(ENSEMBLE_MEMBERS)
            for yi, y in enumerate(ens_years.tolist())
            for m in range(12)
        ],
    )

    config = out / CONFIG_NAME
    config.write_text(
        "\n".join(
            [
                "region_label = benchmark-region",
                "load_csv = load.csv",
                *(f"{key} = {name}" for key, name in feed_keys),
                f"temperature_grid = {grid_name}",
                "population_csv = population.csv",
                "mask_csv = mask.csv",
                "ensemble_csv = ensemble.csv",
                "window_len = 45",
                "out_dir = out",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return config


def write_workload_world(workload: str, out_dir: Path | str, seed: int) -> Path:
    """Write the inputs of one named workload; returns its config path."""
    if workload in SPECS:
        return generate_world(SPECS[workload], out_dir, seed)
    if workload == "fixture42-rerun":
        from shoulderseason.fixtures import FILES, generate_fixture

        generate_fixture(out_dir, seed=seed)
        return Path(out_dir) / FILES["config"]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write_workload_world(args.workload, args.out, args.seed))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
