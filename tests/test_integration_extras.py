"""Integration edges not covered by the fixture run: hourly temperature
grids through the thermal stage, gap years in merge detection, and config
corner cases."""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import pytest

from shoulderseason import thermal
from shoulderseason.cli import F, run_pipeline
from shoulderseason.config import RunConfig, load_config
from shoulderseason.projection import OnsetProjection, merge_year


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def hourly_world(tmp_path) -> RunConfig:
    """Tiny 2-cell world with an hourly grid and four days of load."""
    days = [date(2022, 6, 1) + timedelta(days=i) for i in range(120)]

    load_lines = ["date,hour,load_mw"]
    for i, d in enumerate(days):
        # U-shaped daily demand in the day's mean temperature (minimum at
        # temperature index 4) so the demand cubic has an interior minimum.
        demand = 40000 + 80 * ((i % 9) - 4) ** 2
        for h in range(24):
            load_lines.append(f"{d.isoformat()},{h},{demand + 10 * h}")
    _write(tmp_path / "load.csv", load_lines)

    grid_lines = ["lat,lon,date,t2m_c"]
    for i, d in enumerate(days):
        for h in range(24):
            # cell A runs 2 degrees warmer; daily mean varies by day index
            base = 15.0 + (i % 9) + 0.1 * h
            grid_lines.append(f"30.0,-98.0,{d.isoformat()}T{h:02d}:00,{base}")
            grid_lines.append(f"30.25,-98.0,{d.isoformat()}T{h:02d}:00,{base + 2.0}")
    _write(tmp_path / "grid.csv", grid_lines)

    _write(
        tmp_path / "mask.csv",
        ["lat,lon,in_region", "30.0,-98.0,1", "30.25,-98.0,1"],
    )

    cfg = RunConfig(
        load_csv=tmp_path / "load.csv",
        temperature_grid=tmp_path / "grid.csv",
        mask_csv=tmp_path / "mask.csv",
        out_dir=tmp_path / "out",
    )
    return cfg


class TestHourlyGridPipeline:
    def test_thermal_stage_averages_hours(self, hourly_world) -> None:
        run_pipeline(hourly_world, ["ingest", "thermal"])
        lines = (hourly_world.out_dir / F["temp_daily"]).read_text().splitlines()[1:]
        first_day, value = lines[0].split(",")
        assert first_day == "2022-06-01"
        # mean over h of (15.0 + 0.1h) is 15.0 + 0.1 * 11.5; cells offset 0 and +2
        expected = 15.0 + 0.1 * 11.5 + 1.0
        assert float(value) == pytest.approx(expected, abs=1e-9)

    def test_thermal_stage_collapses_hours_once(self, hourly_world, monkeypatch) -> None:
        collapse = thermal.daily_cell_means
        hourly_calls = []

        def counted(grid):
            if grid.is_hourly:
                hourly_calls.append(len(grid.times))
            return collapse(grid)

        monkeypatch.setattr(thermal, "daily_cell_means", counted)
        run_pipeline(hourly_world, ["ingest", "thermal"])
        assert hourly_calls == [120 * 24]

    def test_degree_days_emitted_for_every_grid_day(self, hourly_world) -> None:
        run_pipeline(hourly_world, ["ingest", "thermal"])
        dd_lines = (hourly_world.out_dir / F["dd"]).read_text().splitlines()[1:]
        assert len(dd_lines) == 120
        assert all(float(line.split(",")[1]) >= 0.0 for line in dd_lines)

    def test_monotone_demand_yields_clear_error(self, hourly_world, tmp_path) -> None:
        # Demand strictly increasing in temperature: no interior minimum,
        # so no year can define a reference temperature.
        days = [date(2022, 6, 1) + timedelta(days=i) for i in range(120)]
        lines = ["date,hour,load_mw"]
        for i, d in enumerate(days):
            for h in range(24):
                lines.append(f"{d.isoformat()},{h},{40000 + 500 * (i % 9) + 10 * h}")
        _write(hourly_world.load_csv, lines)
        with pytest.raises(ValueError, match="no year produced a demand-temperature"):
            run_pipeline(hourly_world, ["ingest", "thermal"])


class TestMergeGapYears:
    @staticmethod
    def _band(year: int, center: float, half: float) -> OnsetProjection:
        return OnsetProjection(year, center, center - half, center + half)

    def test_missing_next_spring_blocks_overlap(self) -> None:
        fall = [self._band(2040, 350.0, 30.0), self._band(2041, 350.0, 30.0)]
        spring = [self._band(2041, 0.0, 30.0)]  # no 2042 entry
        # 2040 overlaps (spring 2041 exists); 2041 cannot be evaluated.
        assert merge_year(spring, fall, persistence=1) == 2040
        assert merge_year(spring, fall, persistence=2) is None

    def test_gap_in_fall_years(self) -> None:
        fall = [self._band(2040, 350.0, 30.0), self._band(2042, 350.0, 30.0)]
        spring = [self._band(y, 0.0, 30.0) for y in (2041, 2042, 2043)]
        # persistence 2 starting at 2040 needs 2041, which is absent
        assert merge_year(spring, fall, persistence=2) is None
        assert merge_year(spring, fall, persistence=1) == 2040


class TestConfigExtras:
    def test_adequacy_year_parsed(self, tmp_path) -> None:
        path = tmp_path / "c.conf"
        path.write_text("adequacy_year = 2021\npersistence = 4\n")
        cfg = load_config(path)
        assert cfg.adequacy_year == 2021
        assert cfg.persistence == 4

    def test_comments_and_blank_lines_ignored(self, tmp_path) -> None:
        path = tmp_path / "c.conf"
        path.write_text("# comment\n\nregion_label = x\n")
        assert load_config(path).region_label == "x"

    def test_boolean_parsing(self, tmp_path) -> None:
        path = tmp_path / "c.conf"
        path.write_text("allow_year_wrap = no\n")
        assert load_config(path).allow_year_wrap is False
        path.write_text("allow_year_wrap = maybe\n")
        with pytest.raises(ValueError, match="allow_year_wrap"):
            load_config(path)

    def test_empty_path_value_means_unset(self, tmp_path) -> None:
        path = tmp_path / "c.conf"
        path.write_text("ensemble_csv =\n")
        assert load_config(path).ensemble_csv is None
