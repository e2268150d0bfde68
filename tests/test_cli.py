from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
from collections import Counter
from dataclasses import fields, replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import oracles
from rasters import write_raster
from shoulderseason import cli, ingest, projection, thermal
from shoulderseason.cli import (
    CORR_COLUMNS,
    CORR_HEADER,
    F,
    STAGES,
    emit_report,
    main,
    run_pipeline,
    _stages_for_all,
)
from shoulderseason.config import RunConfig, load_config
from shoulderseason.fixtures import generate_fixture
from shoulderseason.tables import parse_date, parse_float, parse_int, read_rows
from shoulderseason.windows import ShoulderWindow


def _tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root, in subdirectories too, by its path relative to root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _config_variant(fixture_dir: Path, path: Path, **overrides: str | None) -> Path:
    """Write the fixture config to path with keys replaced or added; None drops a key."""
    lines = []
    added = dict(overrides)
    for line in (fixture_dir / "fixture.conf").read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if key in overrides:
            if added.pop(key) is None:
                continue
            value = overrides[key]
        elif value.startswith("fixture_"):
            value = str(fixture_dir / value)
        lines.append(f"{key}{sep}{value}")
    lines += [f"{key} = {value}" for key, value in added.items() if value is not None]
    path.write_text("\n".join(lines) + "\n")
    return path


# Fixture config variants, each run both ways: `all` in one call, which hands
# tables on in memory, and one call per stage, which reads them back.
VARIANTS = {
    "window30": {"window_len": "30"},
    "window60": {"window_len": "60"},
    "outlier-auto": {"outlier_policy": "auto"},
    "no-fuel-mix": {"fuel_mix_csv": None},
    "no-grid-chain": dict.fromkeys(
        ["temperature_grid", "mask_csv", "population_csv", "ensemble_csv"]
    ),
    "no-population": {"population_csv": None},
    "no-outages": {"outage_csv": None},
    "adequacy-2021": {"adequacy_year": "2021", "extra_outage_gw": "5"},
}


@pytest.fixture(scope="module")
def variant_run(fixture_dir, tmp_path_factory):
    """variant_run(name): the tree that `all` writes for the fixture with the
    VARIANTS overrides of that name, on one CPU; run once, when first asked for."""
    trees: dict[str, dict[str, bytes]] = {}

    def run(name: str) -> dict[str, bytes]:
        if name not in trees:
            root = tmp_path_factory.mktemp(name)
            cfg = load_config(_config_variant(fixture_dir, root / "x.conf", **VARIANTS[name]))
            cfg.out_dir = root / "all"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "sched_getaffinity", lambda pid: {0})
                run_pipeline(cfg, _stages_for_all(cfg))
            trees[name] = _tree_bytes(cfg.out_dir)
        return trees[name]

    return run


def _blank_january_telemetry(lines: list[str]) -> list[str]:
    return [line.rpartition(",")[0] + "," if line[4:8] == "-01-" else line for line in lines]


# What the adequacy stage cannot compute, each case as (config overrides, a
# rewrite of the fixture's outage lines): an adequacy_year without outage
# records, an extra outage above every winter month's max output, a January
# without telemetry, and outages only in a year without load.
ADEQUACY_OMISSIONS = {
    "no-outage-year": ({"adequacy_year": "2010"}, None),
    "extra-above-output": ({"extra_outage_gw": "1000"}, None),
    "blank-january-telemetry": ({}, _blank_january_telemetry),
    "outage-year-without-load": (
        {},
        lambda lines: [
            lines[0],
            "2030-01-10T00:00,7000.00,45000.00",
            "2030-04-10T00:00,9000.00,41000.00",
            "2030-12-10T00:00,7000.00,46000.00",
        ],
    ),
}


# sha256 of each file of the seed-42 fixture, which the committed golden
# and the acceptance criteria are computed from.
SEED_42_SHA256 = {
    "fixture.conf": "f2fabfceefef4a9a6102d53984984628c15494e1a775d9c74fef1de878ca0770",
    "fixture_ensemble.csv": "16ee29697ce0a77a6af52181340a6bae04d0ecae32d566104c36ec01b2126107",
    "fixture_fuel_mix.csv": "38d93b17154782b6073bde8b80c51e02f2110add22f3bf8a74c06667d23b6724",
    "fixture_load.csv": "bc5f6554c7d1481d911e1bd82483ae48d3fe0a2034df5ef3a9048011a66b9c91",
    "fixture_mask.csv": "9a537e0221c1028aa46d8eaca7e9b69f7cc7df73eb729ef0876cb7b143fe7e4e",
    "fixture_outages.csv": "3b189e1eeba77ef70c13e2ea64fdcd39c4a622c32f2f4977371639dcac48c41a",
    "fixture_population.csv": "8fb0456ecc144c30df07fba443bd384af2d33c6025b02fe0d4f81aa5dcd78df8",
    "fixture_temperature.csv": "e329c0b0d336b59feae72f535f7519881e630eab7d507d217a8167c84e126554",
}

# The same for seeds 1 and 5, so that three seeds guard the generator's bytes.
SEED_1_SHA256 = {
    "fixture.conf": "f2fabfceefef4a9a6102d53984984628c15494e1a775d9c74fef1de878ca0770",
    "fixture_ensemble.csv": "358177d82cb4352b4b81ae691281562731af16ac07eea3d4474227bd64426a3b",
    "fixture_fuel_mix.csv": "14324d8ee88e131397b462f4e3a105d218e41c0824c4b9b315fff7b8a80ef541",
    "fixture_load.csv": "70e9ede542812d97944d0612cac04705813f6f966501219f3b2cec13528f1096",
    "fixture_mask.csv": "9a537e0221c1028aa46d8eaca7e9b69f7cc7df73eb729ef0876cb7b143fe7e4e",
    "fixture_outages.csv": "a53c60054603247c9d62ab746e2fae900742280d3ff846664087530f379a7f35",
    "fixture_population.csv": "8fb0456ecc144c30df07fba443bd384af2d33c6025b02fe0d4f81aa5dcd78df8",
    "fixture_temperature.csv": "907068d7d5f5a3a32f5d5b8996a2a6f92430fc0ebcf93d933d33872fa12c4e38",
}
SEED_5_SHA256 = {
    "fixture.conf": "f2fabfceefef4a9a6102d53984984628c15494e1a775d9c74fef1de878ca0770",
    "fixture_ensemble.csv": "7d7462bfab56d99f765720f3d7498456cca70b15f33547e12d4e3e804c64fdc6",
    "fixture_fuel_mix.csv": "ee08efa8d86f5de9c44a1cedaeda91b58f7e49a17a6f426960bbd58a398398c7",
    "fixture_load.csv": "6260786359bf1fa8d7eed297c0a8ec95403f6e9df439a104019efcdb9f25dd67",
    "fixture_mask.csv": "9a537e0221c1028aa46d8eaca7e9b69f7cc7df73eb729ef0876cb7b143fe7e4e",
    "fixture_outages.csv": "bd64f9d9a159e57877371e014a45ba4ce0a059210df99e1c96564a3080d8c8e6",
    "fixture_population.csv": "8fb0456ecc144c30df07fba443bd384af2d33c6025b02fe0d4f81aa5dcd78df8",
    "fixture_temperature.csv": "21ae35b9257ff124ecfdfb1a1638206e0cc18e0c6a2a5f8d4bbe6a80cc61dc53",
}


def _tree_digests(root: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _tree_bytes(root).items()}


class TestFixtureGeneration:
    def test_seed_42_files_are_pinned(self, fixture_dir) -> None:
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in _tree_bytes(fixture_dir).items()
        }
        assert digests == SEED_42_SHA256

    def test_same_seed_is_byte_identical(self, fixture_dir, tmp_path) -> None:
        generate_fixture(tmp_path, seed=42)
        assert _tree_bytes(tmp_path) == _tree_bytes(fixture_dir)

    def test_different_seed_differs(self, fixture_dir, tmp_path) -> None:
        generate_fixture(tmp_path, seed=1)
        assert _tree_bytes(tmp_path) != _tree_bytes(fixture_dir)
        assert _tree_digests(tmp_path) == SEED_1_SHA256


# Each config line load_config or RunConfig.validate rejects, with the message;
# {dir} is the config file's directory.
CONFIG_REJECTIONS = {
    "window_len = 0": "config key window_len: must be >= 1, got 0",
    "window_len = x": "config key window_len: expected an integer, got 'x'",
    "min_hours = 25": "config key min_hours: must be in 0..24, got 25",
    "max_missing_days = -1": "config key max_missing_days: must be >= 0",
    "outlier_policy = sometimes": (
        "config key outlier_policy: must be one of ('none', 'auto'), got 'sometimes'"
    ),
    "persistence = 0": "config key persistence: must be >= 1",
    "extra_outage_gw = -1": "config key extra_outage_gw: must be >= 0",
    "extra_outage_gw = lots": "config key extra_outage_gw: expected a number, got 'lots'",
    "adequacy_bin_gw = 0": "config key adequacy_bin_gw: must be > 0",
    "allow_year_wrap = maybe": "config key allow_year_wrap: expected a boolean, got 'maybe'",
    "out_dir =": "config key out_dir: must not be empty",
    "load_csv = nowhere.csv": "config key load_csv: file not found: {dir}/nowhere.csv",
    "frobnicate = 3": "bad.conf line 1: unknown config key 'frobnicate'",
    "window_len 45": "bad.conf line 1: expected 'key = value'",
}


class TestConfig:
    def test_load_resolves_relative_paths(self, fixture_dir) -> None:
        cfg = load_config(fixture_dir / "fixture.conf")
        assert cfg.load_csv.is_file()
        assert cfg.region_label == "synthetic-region"
        assert cfg.window_len == 45

    def test_unknown_key_named(self, tmp_path) -> None:
        path = tmp_path / "bad.conf"
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ValueError, match="unknown config key 'frobnicate'"):
            load_config(path)

    def test_missing_file_names_key(self, tmp_path) -> None:
        path = tmp_path / "bad.conf"
        path.write_text("load_csv = nowhere.csv\n")
        with pytest.raises(ValueError, match="config key load_csv"):
            load_config(path)

    @pytest.mark.parametrize("line, message", CONFIG_REJECTIONS.items(), ids=CONFIG_REJECTIONS)
    def test_rejection_text(self, tmp_path, line, message) -> None:
        path = tmp_path / "bad.conf"
        path.write_text(line + "\n")
        with pytest.raises(ValueError) as rejected:
            load_config(path)
        assert str(rejected.value) == message.format(dir=tmp_path)

    def test_empty_out_dir_named(self, tmp_path, capsys) -> None:
        path = tmp_path / "bad.conf"
        path.write_text("out_dir =\n")
        with pytest.raises(ValueError, match="config key out_dir: must not be empty"):
            load_config(path)
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config key out_dir: must not be empty\n"

    def test_help_shows_every_key_and_a_default_that_loads(
        self, tmp_path, monkeypatch, capsys
    ) -> None:
        with pytest.raises(SystemExit):
            main(["--help"])
        epilog = capsys.readouterr().out.partition("config file keys")[2]
        # "  key (default)   help", or "  key   help" for a key without a default
        key_lines = epilog.splitlines()[2:]
        matches = [re.match(r"  (\w+)(?: \((.*?)\))? +\S", line) for line in key_lines]
        shown = {m[1]: m[2] for m in matches}
        assert list(shown) == [f.name for f in fields(RunConfig)]
        spelled = [shown[key] for key in ("allow_year_wrap", "window_len", "out_dir")]
        assert spelled == ["true", "45", "out"]
        # With the config file in the working directory, a path resolves to
        # the same directory as the default's relative path.
        monkeypatch.chdir(tmp_path)
        default = RunConfig()
        for name, text in shown.items():
            want = getattr(default, name)
            if text is None:
                assert want is None, name
                continue
            Path("x.conf").write_text(f"{name} = {text}\n")
            got = getattr(load_config("x.conf"), name)
            if isinstance(want, Path):
                got, want = got.resolve(), want.resolve()
            assert (got, type(got)) == (want, type(want)), name


class TestPipeline:
    def test_shoulder_matches_committed_golden(self, full_run) -> None:
        golden_path = Path(__file__).parent / "data" / "golden_shoulder_windows.csv"
        golden_lines = golden_path.read_text().splitlines()
        got_lines = (full_run / F["shoulder"]).read_text().splitlines()
        assert got_lines[0] == golden_lines[0]
        assert len(got_lines) == len(golden_lines)
        for got, want in zip(got_lines[1:], golden_lines[1:]):
            g = got.split(",")
            w = want.split(",")
            # onset, day-of-year, and day counts must agree exactly; the
            # window mean is compared numerically (the golden values come
            # from an independent summation order).
            assert g[:5] == w[:5], (got, want)
            assert float(g[5]) == pytest.approx(float(w[5]), rel=1e-9)
            assert g[6] == w[6]

    def test_rerun_is_byte_identical(self, fixture_dir, full_run, tmp_path) -> None:
        cfg = load_config(fixture_dir / "fixture.conf")
        cfg.out_dir = tmp_path / "second"
        run_pipeline(cfg, _stages_for_all(cfg))
        assert _tree_bytes(cfg.out_dir) == _tree_bytes(full_run)

    def test_stage_isolation_matches_full_run(self, fixture_dir, full_run, tmp_path) -> None:
        cfg = load_config(fixture_dir / "fixture.conf")
        cfg.out_dir = tmp_path / "staged"
        for stage in ("ingest", "thermal", "shoulder", "trends", "project", "adequacy", "report"):
            run_pipeline(cfg, [stage])
        assert _tree_bytes(cfg.out_dir) == _tree_bytes(full_run)

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_stage_isolation_matches_full_run_of_variant(
        self, fixture_dir, tmp_path, variant_run, name
    ) -> None:
        cfg = load_config(_config_variant(fixture_dir, tmp_path / "x.conf", **VARIANTS[name]))
        cfg.out_dir = tmp_path / "staged"
        for stage in _stages_for_all(cfg):
            run_pipeline(cfg, [stage])
        assert _tree_bytes(cfg.out_dir) == variant_run(name)

    @pytest.mark.parametrize("block_days", [None, 7])
    def test_raster_grid_gives_the_csv_tree(
        self, fixture_dir, full_run, tmp_path, monkeypatch, block_days
    ) -> None:
        # The fixture's grid rewritten as a .npy raster and sidecar; the
        # thermal stage reads it at most a block of days at a time, once
        # per regional reduction.
        with open(fixture_dir / "fixture_temperature.csv", encoding="utf-8") as fh:
            grid = thermal.read_grid_csv(fh)
        raster = write_raster(tmp_path / "temperature.npy", grid)
        cfg = load_config(
            _config_variant(fixture_dir, tmp_path / "x.conf", temperature_grid=str(raster))
        )
        cfg.out_dir = tmp_path / "out"
        if block_days is not None:
            monkeypatch.setattr(thermal, "_BLOCK_DAYS", block_days)
        days_read: list[int] = []
        fromfile = np.fromfile
        day_size = grid.values[:1].size

        def spy(*args, **kwargs):
            rows = fromfile(*args, **kwargs)
            days_read.append(rows.size // day_size)
            return rows

        monkeypatch.setattr(np, "fromfile", spy)
        run_pipeline(cfg, _stages_for_all(cfg))
        assert _tree_bytes(cfg.out_dir) == _tree_bytes(full_run)
        assert max(days_read) <= thermal._BLOCK_DAYS
        assert sum(days_read) == 3 * len(grid.times)

    def test_all_parses_each_input_once(
        self, fixture_dir, tmp_path, monkeypatch, fake_cpus
    ) -> None:
        # Each call appends its name to a file, so a parse in a forked reader counts too.
        log = tmp_path / "calls.txt"
        for module, name in (
            (ingest, "parse_hourly_load"),
            (ingest, "parse_fuel_mix"),
            (ingest, "read_fuel_mix_part"),
            (ingest, "parse_outages"),
            (thermal, "read_mask_csv"),
            (thermal, "read_population_csv"),
            (projection, "parse_ensemble_csv"),
            (thermal, "read_grid_csv"),
            (ingest, "read_daily_summaries"),
            (ingest, "read_daily_series"),
            (cli, "_windows"),
            (cli, "read_rows"),
            (json, "load"),
        ):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(_name + "\n")
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def grid_part(source, _fn=thermal.read_grid_part):
            if isinstance(source, ingest.Part):  # a whole read counts as read_grid_csv
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write("grid_head\n" if source.start == 0 else "grid_tail\n")
            return _fn(source)

        monkeypatch.setattr(thermal, "read_grid_part", grid_part)

        def calls() -> Counter[str]:
            counts = Counter(log.read_text(encoding="utf-8").split()) if log.exists() else Counter()
            log.unlink(missing_ok=True)
            return counts

        conf, out = str(fixture_dir / "fixture.conf"), str(tmp_path / "out")
        csv_parsers = (
            "parse_hourly_load",
            "parse_fuel_mix",
            "parse_outages",
            "read_mask_csv",
            "read_population_csv",
            "parse_ensemble_csv",
        )
        # With two CPUs each part of a cut input is read once, by the process
        # or the forked reader: the grid's two, and each feed's, the fuel
        # mix's by its part reader. With one CPU every input is read whole
        # (parse_fuel_mix reads its file as one part), and nothing forks.
        cfg = load_config(conf)
        n_parts = {
            name: len(ingest.cuts(getattr(cfg, key))) - 1
            for name, key in (
                ("parse_hourly_load", "load_csv"),
                ("read_fuel_mix_part", "fuel_mix_csv"),
                ("parse_outages", "outage_csv"),
            )
        }
        parts = {**dict.fromkeys(csv_parsers[3:] + ("grid_head", "grid_tail"), 1), **n_parts}
        whole = dict.fromkeys(csv_parsers + ("read_fuel_mix_part", "read_grid_csv"), 1)
        for n_cpus, reads in ((2, parts), (1, whole)):
            forks = fake_cpus(n_cpus)
            assert main(["all", "--config", conf, "--out", out]) == 0
            assert calls() == reads
            assert len(forks) == n_cpus - 1
        # A stage run on its own reads its inputs from the cached files.
        for stage in ("shoulder", "adequacy"):
            assert main([stage, "--config", conf, "--out", out]) == 0
        assert calls() == {
            "parse_hourly_load": 1,
            "parse_outages": 1,
            "read_daily_summaries": 2,
            "read_daily_series": 1,
            "_windows": 1,
            "read_rows": 1,
        }

    def test_hourly_load_is_kept_only_for_adequacy(
        self, fixture_dir, tmp_path, monkeypatch
    ) -> None:
        seen = []
        thermal = STAGES["thermal"]

        def spy(cfg, tables):
            seen.append("load_csv" in tables)
            return thermal.run(cfg, tables)

        monkeypatch.setitem(STAGES, "thermal", thermal._replace(run=spy))
        for name, overrides in (("full", {}), ("no_outages", {"outage_csv": None})):
            conf = _config_variant(fixture_dir, tmp_path / f"{name}.conf", **overrides)
            out = str(tmp_path / name)
            assert main(["all", "--config", str(conf), "--out", out]) == 0
        # With an outage feed the adequacy stage, still to run, reads it.
        assert seen == [True, False]

    def test_kept_tables_equal_their_files(self, fixture_dir, tmp_path, monkeypatch) -> None:
        kept = {}
        report = STAGES["report"]

        def spy(cfg, tables):
            kept.update(tables)
            return report.run(cfg, tables)

        monkeypatch.setitem(STAGES, "report", report._replace(run=spy))
        conf = str(fixture_dir / "fixture.conf")
        assert main(["all", "--config", conf, "--out", str(tmp_path)]) == 0
        # By the report, every output with a reader is held in memory.
        readable = {key for key, output in cli.OUTPUTS.items() if output.read is not None}
        assert set(kept) == readable
        for key in sorted(readable):
            name, header, read = cli.OUTPUTS[key]
            with open(tmp_path / name, encoding="utf-8") as fh:
                got = read(fh, header)
            if isinstance(got, (ingest.DailySeries, ingest.DailyLoad)):
                assert (type(kept[key]), kept[key].first) == (type(got), got.first), key
                for want, column in zip(kept[key].columns, got.columns):
                    assert (want.dtype, want.tobytes()) == (column.dtype, column.tobytes()), key
            else:
                assert kept[key] == got, key
            assert cli._format(key, got).encode() == (tmp_path / name).read_bytes(), key

    def test_single_stages_without_fuel_mix_read_no_netted_table(
        self, fixture_dir, full_run, tmp_path
    ) -> None:
        conf = str(_config_variant(fixture_dir, tmp_path / "no_mix.conf", fuel_mix_csv=None))
        out = tmp_path / "out"
        shutil.copytree(full_run, out)
        for stage in ("shoulder", "trends"):
            assert main([stage, "--config", conf, "--out", str(out)]) == 0
        # Without a fuel mix there are no netted tables; the others do not
        # depend on the fuel mix.
        got, full = _tree_bytes(out), _tree_bytes(full_run)
        for key in STAGES["shoulder"].owns + STAGES["trends"].owns:
            want = None if key.endswith("_net") else full[F[key]]
            assert got.get(F[key]) == want, F[key]

    def test_cutoff_filter_through_the_cache(self, fixture_dir, full_run, tmp_path) -> None:
        # No bundled world has an onset beyond a cutoff, so move some into the
        # cached windows: spring degree-day onsets before Feb 14 (one on it,
        # which is kept) and fall ones after Nov 25 (one on it). Fall peak
        # demand keeps only four years, two of them excluded, so it falls
        # short of 3 pairs.
        out = tmp_path / "out"
        shutil.copytree(full_run, out)
        name, header, read = cli.OUTPUTS["shoulder"]
        with open(out / name, encoding="utf-8") as fh:
            rows = read(fh, header)
        years = sorted({w.year for w in rows if w.metric != "degree_days"})
        moved = {
            ("spring", years[0]): (2, 1),
            ("spring", years[1]): (2, 13),
            ("spring", years[2]): (2, 14),
            ("fall", years[-3]): (11, 26),
            ("fall", years[-2]): (12, 10),
            ("fall", years[-1]): (11, 25),
        }
        rows = [
            replace(w, onset=date(w.year, *moved[w.season, w.year]))
            if w.metric == "degree_days" and (w.season, w.year) in moved
            else w
            for w in rows
            if (w.season, w.metric) != ("fall", "peak_demand") or w.year in years[-4:]
        ]
        (out / name).write_text(cli._format("shoulder", rows))
        conf = str(fixture_dir / "fixture.conf")
        assert main(["trends", "--config", conf, "--out", str(out)]) == 0

        def onsets(rows, season, metric):
            return {w.year: w.onset for w in rows if (w.season, w.metric) == (season, metric)}

        def correlations(key):
            with open(out / F[key], encoding="utf-8") as fh:
                return {(row[0], row[2]): row for row in read_rows(fh, CORR_HEADER, *CORR_COLUMNS)}

        lines = (out / F["corr_points"]).read_text().splitlines()[1:]
        points = Counter(
            (season, metric, included == "1")
            for season, metric, *_, included in (line.split(",") for line in lines)
        )
        assert points[("spring", "total_energy", False)] == 2
        assert points[("fall", "total_energy", False)] == 2
        # The short series has its points but no correlation row.
        assert points[("fall", "peak_demand", True)] == points[("fall", "peak_demand", False)] == 2
        corr = correlations("corr")
        assert ("fall", "peak_demand") not in corr
        for (season, metric), row in corr.items():
            assert row[4:6] == (points[season, metric, True], points[season, metric, False])

        with open(out / F["shoulder_net"], encoding="utf-8") as fh:
            net_rows = read(fh, header)
        for key, load_rows in (("corr", rows), ("corr_net", net_rows)):
            corr = correlations(key)
            for season, cutoff in (("spring", cli.SPRING_CUTOFF), ("fall", cli.FALL_CUTOFF)):
                x = onsets(rows, season, "degree_days")
                for metric in ("total_energy", "peak_demand"):
                    y = onsets(load_rows, season, metric)
                    r, kept, excluded = oracles.reference_pearson_with_cutoff(x, y, season, cutoff)
                    if isinstance(r, str):
                        assert (season, metric) not in corr, (key, r)
                        continue
                    row = corr.pop((season, metric))
                    assert row[3] == pytest.approx(r, rel=0, abs=1e-12)
                    assert row[4:6] == (len(kept), len(excluded))
            assert corr == {}, key

    def test_outlier_trimming_through_the_cache(self, fixture_dir, full_run, tmp_path) -> None:
        # No bundled world trims a point, so move onsets far off their lines
        # in the cached windows, each inside its half-year: two fall
        # degree-day onsets and one spring one. Only the fall degree-day
        # series is trimmed under outlier_policy = auto.
        out = tmp_path / "out"
        shutil.copytree(full_run, out)
        name, header, read = cli.OUTPUTS["shoulder"]
        with open(out / name, encoding="utf-8") as fh:
            rows = read(fh, header)
        years = sorted({w.year for w in rows if w.metric == "degree_days"})
        moved = {
            ("fall", years[5]): (8, 1),
            ("fall", years[-6]): (11, 15),
            ("spring", years[10]): (2, 1),
        }
        rows = [
            replace(w, onset=date(w.year, *moved[w.season, w.year]))
            if w.metric == "degree_days" and (w.season, w.year) in moved
            else w
            for w in rows
        ]
        (out / name).write_text(cli._format("shoulder", rows))
        conf = _config_variant(fixture_dir, tmp_path / "auto.conf", outlier_policy="auto")
        assert main(["trends", "--config", str(conf), "--out", str(out)]) == 0

        def table(key):
            lines = (out / F[key]).read_text().splitlines()[1:]
            return [line.split(",") for line in lines]

        onsets = {}
        for w in rows:
            onsets.setdefault((w.metric, w.season), {})[w.year] = float(w.onset.timetuple().tm_yday)
        points = sorted((float(year), doy) for year, doy in onsets["degree_days", "fall"].items())
        trimmed = oracles.reference_auto_exclusions(points)
        assert {x for x, _ in trimmed} == {float(years[5]), float(years[-6])}
        kept = [p for p in points if p not in trimmed]
        slope, _, var = oracles.exact_ols(kept)

        trend_rows = {(row[0], row[1]): row for row in table("trends")}
        assert set(trend_rows) == set(onsets)
        _, _, slope_dec, stderr, _, n, excluded = trend_rows.pop(("degree_days", "fall"))
        assert excluded == ";".join(str(int(x)) for x, _ in trimmed)
        assert int(n) == len(kept)
        assert float(slope_dec) == pytest.approx(10 * float(slope), rel=1e-9)
        assert float(stderr) == pytest.approx(10 * math.sqrt(var), rel=1e-9)
        for row in [*trend_rows.values(), *table("trends_net")]:
            assert row[6] == "", row[:2]

        # The trimmed years stay in the smoothed series and the fit lines.
        for key in ("movavg", "fitlines"):
            listed = {}
            for metric, season, year, *_ in table(key):
                listed.setdefault((metric, season), []).append(int(year))
            assert listed == {k: sorted(v) for k, v in onsets.items()}, key

    def test_downstream_stage_without_cache_errors(self, fixture_dir, tmp_path) -> None:
        cfg = load_config(fixture_dir / "fixture.conf")
        cfg.out_dir = tmp_path / "empty"
        with pytest.raises(ValueError, match="run the shoulder stage first"):
            run_pipeline(cfg, ["trends"])

    def test_unknown_stage_rejected(self, fixture_dir, tmp_path) -> None:
        cfg = load_config(fixture_dir / "fixture.conf")
        cfg.out_dir = tmp_path / "x"
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(cfg, ["frobnicate"])

    def test_missing_input_for_requested_stage(self, fixture_dir, tmp_path) -> None:
        cfg = RunConfig(out_dir=tmp_path / "y")
        with pytest.raises(ValueError, match="config key load_csv: required"):
            run_pipeline(cfg, ["ingest"])

    def test_projection_summary_contents(self, full_run) -> None:
        summary = json.loads((full_run / F["proj_summary"]).read_text())
        assert set(summary) >= {
            "bias_gain",
            "bias_offset",
            "merge_year",
            "persistence",
            "spring_slope_days_per_c",
            "fall_slope_days_per_c",
        }
        assert summary["spring_slope_days_per_c"] < 0
        assert summary["fall_slope_days_per_c"] > 0

    def test_merge_summary_line(self, full_run) -> None:
        text = (full_run / F["merge"]).read_text()
        assert text.startswith("merge_year,")

    def test_histogram_metadata_line(self, full_run) -> None:
        hist = (full_run / "generation_hist_january.csv").read_text().splitlines()
        assert hist[0].startswith("# peak_demand_gw=")
        assert hist[1] == "bin_low,bin_high,count"
        total = sum(int(line.rsplit(",", 1)[1]) for line in hist[2:])
        assert total > 0

    @pytest.mark.parametrize("case", ADEQUACY_OMISSIONS)
    def test_adequacy_omits_what_it_cannot_compute(
        self, fixture_dir, full_run, tmp_path, case
    ) -> None:
        overrides, rewrite = ADEQUACY_OMISSIONS[case]
        if rewrite is not None:
            lines = (fixture_dir / "fixture_outages.csv").read_text().splitlines()
            (tmp_path / "outages.csv").write_text("\n".join(rewrite(lines)) + "\n")
            overrides = {"outage_csv": str(tmp_path / "outages.csv")}
        cfg = load_config(_config_variant(fixture_dir, tmp_path / "x.conf", **overrides))
        cfg.out_dir = out = tmp_path / "out"
        shutil.copytree(full_run, out)
        run_pipeline(cfg, ["adequacy", "report"])

        def months(root: Path) -> list[str]:
            return [line.split(",")[0] for line in (root / F["unmet"]).read_text().splitlines()[1:]]

        def hists(root: Path) -> list[str]:
            return sorted(p.name for p in root.glob("generation_hist_*.csv"))

        unmet_header = cli.OUTPUTS["unmet"].header + "\n"
        if case == "no-outage-year":
            assert (out / F["periods"]).read_text() == cli.OUTPUTS["periods"].header + "\n"
            assert json.loads((out / F["adequacy_summary"]).read_text()) == {"focus_year": 2010}
            assert "[maintenance adequacy]\n" in (out / F["report"]).read_text()
            assert (months(out), hists(out)) == (months(full_run), hists(full_run))
        elif case == "extra-above-output":
            assert (out / F["unmet"]).read_text() == unmet_header
            assert hists(out) == hists(full_run)
        elif case == "blank-january-telemetry":
            assert months(out) == [m for m in months(full_run) if not m.endswith("-01")]
            assert hists(out) == [h for h in hists(full_run) if h != "generation_hist_january.csv"]
        else:
            assert (out / F["unmet"]).read_text() == unmet_header
            assert hists(out) == []

    def test_unmet_table_has_winter_months(self, full_run) -> None:
        lines = (full_run / F["unmet"]).read_text().splitlines()[1:]
        months = {line.split(",")[0] for line in lines}
        assert "2022-01" in months and "2022-12" in months
        for line in lines:
            pct = float(line.rsplit(",", 1)[1])
            assert 0.0 <= pct <= 100.0

    def test_rerun_without_fuel_mix_drops_netted_outputs(
        self, fixture_dir, full_run, tmp_path, variant_run
    ) -> None:
        conf = _config_variant(fixture_dir, tmp_path / "no_mix.conf", **VARIANTS["no-fuel-mix"])
        cfg = load_config(conf)
        cfg.out_dir = tmp_path / "rerun"
        shutil.copytree(full_run, cfg.out_dir)
        run_pipeline(cfg, _stages_for_all(cfg))
        assert not (cfg.out_dir / F["daily_net"]).exists()
        assert _tree_bytes(cfg.out_dir) == variant_run("no-fuel-mix")

    def test_rerun_without_grid_and_ensemble_equals_fresh_run(
        self, fixture_dir, full_run, tmp_path, variant_run
    ) -> None:
        no_grid = VARIANTS["no-grid-chain"]
        conf = _config_variant(fixture_dir, tmp_path / "load_only.conf", **no_grid)
        rerun = tmp_path / "rerun"
        shutil.copytree(full_run, rerun)
        assert main(["all", "--config", str(conf), "--out", str(rerun)]) == 0
        assert _tree_bytes(rerun) == variant_run("no-grid-chain")
        report = (rerun / F["report"]).read_text()
        assert "[onset correlations" not in report and "[projection]" not in report

    def test_every_output_is_owned_by_one_stage(self, full_run) -> None:
        owned_keys = [key for stage in STAGES.values() for key in stage.owns]
        # Each declared output is owned by exactly one stage, and each owned key is declared.
        assert sorted(owned_keys) == sorted(cli.OUTPUTS)
        owned = [F[key] for key in owned_keys]
        assert len(owned) == len(set(owned))
        assert {p.name for p in full_run.iterdir()} <= set(owned)

    def test_day_of_year_columns_keep_their_types(self, full_run) -> None:
        def column(name: str, header: str) -> list[str]:
            lines = (full_run / F[name]).read_text().splitlines()
            index = lines[0].split(",").index(header)
            return [line.split(",")[index] for line in lines[1:]]

        for name, header in (("corr_points", "x_onset_doy"), ("onset_temp", "onset_doy")):
            assert all(v.isdigit() for v in column(name, header)), name
        assert all(v.endswith(".0") for v in column("movavg", "onset_doy"))

    def test_header_only_outage_file_is_named(
        self, fixture_dir, full_run, tmp_path, capsys
    ) -> None:
        outages = tmp_path / "outages.csv"
        outages.write_text("timestamp,outage_mw,telemetered_output_mw\n")
        conf = _config_variant(fixture_dir, tmp_path / "x.conf", outage_csv=str(outages))
        out = tmp_path / "out"
        shutil.copytree(full_run, out)
        assert main(["adequacy", "--config", str(conf), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: outage file {outages} has no data rows\n"

    def test_netted_outputs_present(self, full_run) -> None:
        assert (full_run / F["shoulder_net"]).is_file()
        assert (full_run / F["trends_net"]).is_file()
        net_lines = (full_run / F["shoulder_net"]).read_text().splitlines()[1:]
        years = {int(line.split(",")[0]) for line in net_lines}
        assert years == {2019, 2020, 2021, 2022}


def _steps(first: str, last: str, minutes: int, skip: tuple[str, str] | None = None):
    """Times from first to last, both included, every `minutes`, without those
    in the closed range skip."""
    start, end = datetime.fromisoformat(first), datetime.fromisoformat(last)
    step = timedelta(minutes=minutes)
    times = [start + i * step for i in range((end - start) // step + 1)]
    if skip:
        lo, hi = map(datetime.fromisoformat, skip)
        times = [t for t in times if not lo <= t <= hi]
    return times


# (load hours, fuel-mix samples): netting applies to the load hours of the
# days from the mix's first sample to its last.
NET_SPANS = {
    "load on both sides": (
        _steps("2022-01-01T00", "2022-01-05T23", 60),
        _steps("2022-01-02T00:00", "2022-01-03T23:45", 15),
    ),
    "mix starts mid-day": (
        _steps("2022-01-01T00", "2022-01-04T23", 60),
        _steps("2022-01-02T06:30", "2022-01-03T23:45", 15),
    ),
    "mix ends mid-day": (
        _steps("2022-01-01T00", "2022-01-04T23", 60),
        _steps("2022-01-02T00:00", "2022-01-03T11:15", 15),
    ),
    "load gap where the mix starts": (
        _steps("2022-01-01T00", "2022-01-04T23", 60, skip=("2022-01-02T00", "2022-01-02T05")),
        _steps("2022-01-02T06:15", "2022-01-03T23:45", 15),
    ),
    "load gap where the mix ends": (
        _steps("2022-01-01T00", "2022-01-04T23", 60, skip=("2022-01-03T12", "2022-01-03T23")),
        _steps("2022-01-02T00:00", "2022-01-03T11:45", 15),
    ),
    "load gap over the first mix day": (
        _steps("2022-01-01T00", "2022-01-04T23", 60, skip=("2022-01-01T20", "2022-01-03T02")),
        _steps("2022-01-02T00:00", "2022-01-03T23:45", 15),
    ),
    "load starts inside the span": (
        _steps("2022-01-02T07", "2022-01-05T23", 60),
        _steps("2022-01-02T00:00", "2022-01-03T23:45", 15),
    ),
    "load ends inside the span": (
        _steps("2022-01-01T00", "2022-01-02T17", 60),
        _steps("2022-01-02T00:00", "2022-01-03T23:45", 15),
    ),
    "load before the mix": (
        _steps("2022-01-01T00", "2022-01-01T23", 60),
        _steps("2022-01-02T00:00", "2022-01-03T23:45", 15),
    ),
    "span across 1970": (
        _steps("1969-12-30T00", "1970-01-02T23", 60),
        _steps("1969-12-31T00:00", "1970-01-01T23:45", 30),
    ),
}


class TestNettedSpan:
    """The ingest stage nets the load hours on the days the fuel mix spans."""

    @pytest.mark.parametrize("case", NET_SPANS)
    def test_netted_span_matches_the_day_mask(self, tmp_path, case) -> None:
        hours, samples = NET_SPANS[case]
        rng = np.random.default_rng(7)
        # Thirds and sevenths round when summed, so the order of additions shows.
        load = rng.integers(10**4, 10**5, len(hours)) / rng.choice([3.0, 7.0], len(hours))
        mix = rng.integers(0, 4 * 10**4, (len(samples), 4)) / rng.choice([3.0, 7.0], 4)
        load_csv, mix_csv = tmp_path / "load.csv", tmp_path / "mix.csv"
        load_rows = [f"{t.date()},{t.hour},{v!r}" for t, v in zip(hours, load.tolist())]
        load_csv.write_text("\n".join([ingest.LOAD_HEADER, *load_rows]) + "\n")
        mix_rows = [
            ",".join([t.isoformat(timespec="minutes"), *map(repr, row)])
            for t, row in zip(samples, mix.tolist())
        ]
        mix_csv.write_text("\n".join([ingest.FUEL_MIX_HEADER, *mix_rows]) + "\n")

        # The reference: the boolean day mask that the stage's slice replaced.
        first, last = samples[0].date(), samples[-1].date()
        masked = [
            oracles.HourlyLoadRecord(t, v)
            for t, v in zip(hours, load.tolist())
            if first <= t.date() <= last
        ]
        records = [oracles.FuelMixRecord(t, *row) for t, row in zip(samples, mix.tolist())]
        cfg = RunConfig(load_csv=load_csv, fuel_mix_csv=mix_csv, out_dir=tmp_path / "out")
        try:
            netted = oracles.reference_net_non_thermal(masked, records)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                run_pipeline(cfg, ["ingest"])
            assert str(got.value) == str(exc)
            return
        want = [
            (s.day, repr(s.total_energy_mwh), repr(s.peak_demand_mw), s.hours_present)
            for s in oracles.reference_aggregate_daily(netted)
        ]
        run_pipeline(cfg, ["ingest"])
        with open(tmp_path / "out" / F["daily_net"], encoding="utf-8") as fh:
            rows = read_rows(
                fh, ingest.DAILY_HEADER, parse_date, parse_float, parse_float, parse_int
            )
        assert [(d, repr(t), repr(p), h) for d, t, p, h in rows] == want


class TestStageSelection:
    """Which stages `all` runs, and the config checks made before any runs."""

    @pytest.mark.parametrize(
        ("keys", "stages"),
        [
            ({}, ["report"]),
            ({"load_csv"}, ["ingest", "shoulder", "trends", "report"]),
            (
                {"load_csv", "temperature_grid", "mask_csv", "ensemble_csv"},
                ["ingest", "thermal", "shoulder", "trends", "project", "report"],
            ),
            ({"load_csv", "outage_csv"}, ["ingest", "shoulder", "trends", "adequacy", "report"]),
        ],
    )
    def test_all_runs_the_configured_stages(self, tmp_path, keys, stages) -> None:
        cfg = RunConfig(**{key: tmp_path / key for key in keys})
        assert _stages_for_all(cfg) == stages

    @pytest.mark.parametrize(
        ("dropped", "message"),
        [
            (["mask_csv"], "config key mask_csv: required for the thermal stage"),
            (["load_csv"], "config key load_csv: required for the ingest stage"),
            (["temperature_grid"], "config key temperature_grid: required for the thermal stage"),
            (
                ["load_csv", "temperature_grid", "population_csv", "mask_csv", "ensemble_csv"],
                "config key load_csv: required for the ingest stage",
            ),
        ],
        ids=["no-mask", "no-load", "no-grid", "feeds-only"],
    )
    def test_all_fails_before_any_stage_runs(
        self, fixture_dir, full_run, tmp_path, capsys, dropped, message
    ) -> None:
        conf = _config_variant(fixture_dir, tmp_path / "x.conf", **dict.fromkeys(dropped))
        out = tmp_path / "out"
        shutil.copytree(full_run, out)
        assert main(["all", "--config", str(conf), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _tree_bytes(out) == _tree_bytes(full_run)

    def test_all_needs_the_stages_a_selected_stage_reads(self, tmp_path) -> None:
        cfg = RunConfig(load_csv=tmp_path / "load.csv", ensemble_csv=tmp_path / "ens.csv")
        with pytest.raises(ValueError, match="config key temperature_grid: required for the project"):
            _stages_for_all(cfg)

    @pytest.mark.parametrize(
        ("stage", "message"),
        [
            ("thermal", "config key temperature_grid: required for the thermal stage"),
            ("shoulder", "config key load_csv or temperature_grid: required for the shoulder stage"),
            ("trends", "config key load_csv or temperature_grid: required for the trends stage"),
            ("adequacy", "config key outage_csv: required for the adequacy stage"),
        ],
    )
    def test_single_stage_names_the_missing_key(self, tmp_path, stage, message) -> None:
        with pytest.raises(ValueError, match=message):
            run_pipeline(RunConfig(out_dir=tmp_path), [stage])
        assert not any(tmp_path.iterdir())


class TestPipelineCrossChecks:
    """Recompute pipeline numbers through independent routes."""

    def test_trend_slope_matches_polyfit(self, full_run) -> None:
        import numpy as np

        onsets = {}
        for line in (full_run / F["shoulder"]).read_text().splitlines()[1:]:
            year, season, metric, _onset, doy, _mean, _used = line.split(",")
            if metric == "degree_days" and season == "spring":
                onsets[int(year)] = float(doy)
        years = np.array(sorted(onsets))
        doys = np.array([onsets[y] for y in years])
        slope_per_year = np.polyfit(years, doys, 1)[0]

        for line in (full_run / F["trends"]).read_text().splitlines()[1:]:
            metric, season, slope_dec, *_ = line.split(",")
            if metric == "degree_days" and season == "spring":
                assert float(slope_dec) == pytest.approx(10 * slope_per_year, rel=1e-9)
                break
        else:
            pytest.fail("degree_days spring trend row missing")

    def test_projection_slope_matches_points_file(self, full_run) -> None:
        import numpy as np

        pairs = {"spring": [], "fall": []}
        for line in (full_run / F["onset_temp"]).read_text().splitlines()[1:]:
            season, _year, t, doy = line.split(",")
            pairs[season].append((float(t), float(doy)))
        summary = json.loads((full_run / F["proj_summary"]).read_text())
        for season, points in pairs.items():
            slope = np.polyfit(*zip(*points), 1)[0]
            assert summary[f"{season}_slope_days_per_c"] == pytest.approx(slope, rel=1e-9)

    def test_unmet_demand_recomputed_from_raw_inputs(self, fixture_dir, full_run) -> None:
        from shoulderseason.adequacy import unmet_demand_fraction
        from shoulderseason.ingest import parse_hourly_load, parse_outages

        with open(fixture_dir / "fixture_outages.csv", encoding="utf-8") as fh:
            outages = parse_outages(fh)
        with open(fixture_dir / "fixture_load.csv", encoding="utf-8") as fh:
            hourly = parse_hourly_load(fh)
        january = np.datetime64("2022-01")
        max_output = outages.telemetered_output_mw[
            outages.timestamps.astype("datetime64[M]") == january
        ].max()
        demand = hourly.load_mw[hourly.hours.astype("datetime64[M]") == january]
        expected = unmet_demand_fraction(demand, max_output, 5500.0)

        for line in (full_run / F["unmet"]).read_text().splitlines()[1:]:
            month, _max_out, _extra, pct = line.split(",")
            if month == "2022-01":
                assert float(pct) == pytest.approx(expected, abs=1e-9)
                break
        else:
            pytest.fail("2022-01 unmet row missing")


class TestMainEntry:
    def test_fixture_and_stage_commands(self, tmp_path, capsys) -> None:
        fixture = tmp_path / "fx"
        assert main(["fixture", "--out", str(fixture), "--seed", "5"]) == 0
        assert _tree_digests(fixture) == SEED_5_SHA256
        assert main(
            ["ingest", "--config", str(fixture / "fixture.conf"), "--out", str(tmp_path / "o")]
        ) == 0
        out = capsys.readouterr().out
        assert "ingest: wrote" in out

    def test_unknown_command_usage_error(self) -> None:
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate", "--config", "x"])
        assert exc_info.value.code == 2

    def test_seed_is_only_a_fixture_flag(self) -> None:
        with pytest.raises(SystemExit) as exc_info:
            main(["all", "--config", "x", "--seed", "1"])
        assert exc_info.value.code == 2

    def test_runtime_error_returns_one(self, tmp_path, capsys) -> None:
        missing = tmp_path / "none.conf"
        assert main(["all", "--config", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


# The config keys of fixture copies with one bad line (the last field of line
# 3; of the grid, its last line, which a split read leaves to the forked
# reader), and the stderr of `all` on each, as the pipeline gave it when it
# parsed every input in process.
BAD_LINE_ERRORS = {
    ("load_csv",): "error: line 3: bad load_mw value 'oops'\n",
    ("fuel_mix_csv",): "error: line 3: bad other_mw value 'oops'\n",
    ("outage_csv",): "error: line 3: bad telemetered_output_mw value 'oops'\n",
    ("mask_csv",): "error: line 3: in_region must be 0 or 1, got 'oops'\n",
    ("population_csv",): "error: line 3: bad persons value 'oops'\n",
    ("ensemble_csv",): "error: line 3: bad t2m_c value 'oops'\n",
    ("temperature_grid",): "error: line 92044: bad t2m_c value 'oops'\n",
    # The earliest stage's error wins.
    ("fuel_mix_csv", "outage_csv"): "error: line 3: bad other_mw value 'oops'\n",
}


def _hourly(line: str) -> str:
    """The grid row at midnight of its day, as an hourly row."""
    lat, lon, day, value = line.split(",")
    return f"{lat},{lon},{day}T00:00,{value}"


# Rewrites of the fixture grid's lines whose outcome depends on both parts of
# a split read, and the stderr of `all` on each as the whole-file read gave it
# (None: the fixture's tree). Of a CR-only file, no part follows a line feed.
SPLIT_GRIDS = {
    "duplicate-across-the-split": (
        lambda lines: lines + lines[1:2],
        "error: duplicate grid entry for (30.0, -98.0, 1995-01-01)\n",
    ),
    "hourly-row-in-the-tail": (
        lambda lines: lines[:-1] + [_hourly(lines[-1])],
        "error: grid file mixes daily and hourly rows\n",
    ),
    "only-row-past-the-middle": (
        lambda lines: lines[:1] + ["\n"] * 40 + lines[1:2],
        "error: region mask is not co-registered with the temperature grid\n",
    ),
    "header-only": (lambda lines: lines[:1], "error: grid file has no data rows\n"),
    "cr-only": (lambda lines: [line.replace("\n", "\r") for line in lines], None),
}


class TestForkedReaders:
    """`all` with the CSV inputs shared out between the process and forked readers."""

    @pytest.mark.parametrize("bad", list(BAD_LINE_ERRORS), ids="+".join)
    def test_bad_line_gives_the_in_process_error(
        self, fixture_dir, tmp_path, fake_cpus, capsys, bad
    ) -> None:
        forks = fake_cpus(2)
        cfg = load_config(fixture_dir / "fixture.conf")
        copies = {}
        for key in bad:
            lines = Path(getattr(cfg, key)).read_text(encoding="utf-8").splitlines(keepends=True)
            row = -1 if key == "temperature_grid" else 2
            lines[row] = lines[row].rpartition(",")[0] + ",oops\n"
            copies[key] = tmp_path / f"{key}.csv"
            copies[key].write_text("".join(lines), encoding="utf-8")
        conf = _config_variant(fixture_dir, tmp_path / "bad.conf", **copies)
        assert main(["all", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == BAD_LINE_ERRORS[bad]
        assert len(forks) == 1

    @pytest.mark.parametrize("case", SPLIT_GRIDS)
    def test_split_grid_gives_the_whole_read_outcome(
        self, fixture_dir, full_run, tmp_path, fake_cpus, capsys, case
    ) -> None:
        forks = fake_cpus(2)
        rewrite, error = SPLIT_GRIDS[case]
        text = (fixture_dir / "fixture_temperature.csv").read_text(encoding="utf-8")
        grid = tmp_path / "grid.csv"
        grid.write_text("".join(rewrite(text.splitlines(keepends=True))), encoding="utf-8")
        conf = _config_variant(fixture_dir, tmp_path / "x.conf", temperature_grid=str(grid))
        out = tmp_path / "out"
        code = main(["all", "--config", str(conf), "--out", str(out)])
        assert (code, capsys.readouterr().err) == ((0, "") if error is None else (1, error))
        if error is None:
            assert _tree_bytes(out) == _tree_bytes(full_run)
        assert len(forks) == 1

    @pytest.mark.parametrize("n_cpus, n_forks", [(1, 0), (3, 1)])
    def test_tree_does_not_depend_on_the_cpus(
        self, fixture_dir, full_run, tmp_path, fake_cpus, n_cpus, n_forks
    ) -> None:
        forks = fake_cpus(n_cpus)
        cfg = load_config(fixture_dir / "fixture.conf")
        cfg.out_dir = tmp_path
        run_pipeline(cfg, _stages_for_all(cfg))
        assert len(forks) == n_forks
        assert _tree_bytes(tmp_path) == _tree_bytes(full_run)

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_variant_tree_does_not_depend_on_the_cpus(
        self, fixture_dir, tmp_path, monkeypatch, fake_cpus, variant_run, name
    ) -> None:
        # variant_run reads every input whole, on one CPU; two CPUs share the
        # inputs' parts, and three the parts of inputs cut eight times finer.
        cfg = load_config(_config_variant(fixture_dir, tmp_path / "x.conf", **VARIANTS[name]))
        for n_cpus, part_bytes in ((2, ingest.PART_BYTES), (3, 1 << 18)):
            forks = fake_cpus(n_cpus)
            monkeypatch.setattr(ingest, "PART_BYTES", part_bytes)
            cfg.out_dir = tmp_path / f"cpus{n_cpus}"
            run_pipeline(cfg, _stages_for_all(cfg))
            assert len(forks) == 1
            assert _tree_bytes(cfg.out_dir) == variant_run(name), n_cpus

    def test_reader_that_exits_without_a_result_is_named(
        self, fixture_dir, tmp_path, monkeypatch, fake_cpus, wait_for, capsys
    ) -> None:
        # The outage feed, the last input used, is read by the forked reader
        # from its back part, on which it dies; the project stage waits for that.
        fake_cpus(2)
        parent, claimed = os.getpid(), tmp_path / "claimed"

        def dies(source, _parse=ingest.parse_outages):
            if os.getpid() == parent:
                return _parse(source)  # the part the process claims
            claimed.touch()
            os._exit(3)

        def project(cfg, tables, _run=STAGES["project"].run):
            wait_for(claimed)
            return _run(cfg, tables)

        monkeypatch.setattr(ingest, "parse_outages", dies)
        monkeypatch.setitem(STAGES, "project", STAGES["project"]._replace(run=project))
        conf = str(fixture_dir / "fixture.conf")
        assert main(["all", "--config", conf, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: outage_csv: its reader process exited without a result (exit code 3)\n"
        )

    def test_reader_that_exits_holding_grid_parts_is_named(
        self, fixture_dir, tmp_path, monkeypatch, fake_cpus, wait_for, capsys
    ) -> None:
        # Run alone, thermal uses the grid first: the process holds its first
        # part, and the forked reader claims the second.
        fake_cpus(2)
        parent, claimed = os.getpid(), tmp_path / "claimed"

        def read_grid_part(source, _read=thermal.read_grid_part):
            if os.getpid() != parent:
                claimed.touch()
                os._exit(3)
            wait_for(claimed)
            return _read(source)

        monkeypatch.setattr(thermal, "read_grid_part", read_grid_part)
        conf, out = str(fixture_dir / "fixture.conf"), str(tmp_path / "out")
        assert main(["ingest", "--config", conf, "--out", out]) == 0
        assert main(["thermal", "--config", conf, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: temperature_grid: its reader process exited without a result (exit code 3)\n"
        )


class TestEmitReport:
    def test_empty_results(self) -> None:
        text = emit_report({})
        assert "no stages run" in text

    def test_trends_only_digest(self) -> None:
        text = emit_report(
            {
                "region": "demo",
                # metric, season, slope_days_per_decade, stderr,
                # shift_probability, n, excluded
                "trends": [("degree_days", "spring", -2.4, 0.8, 0.99, 64, "")],
            }
        )
        assert "-2.40 d/decade" in text
        assert "P(earlier) = 0.99" in text
        assert "no stages run" not in text

    def test_full_digest_lists_key_sections(self, full_run) -> None:
        text = (full_run / F["report"]).read_text()
        assert "[shoulder windows]" in text
        assert "[onset trends]" in text
        assert "[projection]" in text
        assert "[maintenance adequacy]" in text
        assert "merge year:" in text

    def test_shoulder_only_digest(self) -> None:
        rows = [
            ShoulderWindow(2020, "spring", "degree_days", date(2020, 3, 5), 1.5, 45),
            ShoulderWindow(2021, "spring", "degree_days", date(2021, 2, 27), 1.2, 45),
        ]
        text = emit_report({"shoulder": rows})
        assert "degree_days spring: 2 years" in text
