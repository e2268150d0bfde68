"""Tests of the benchmark itself, on a world small enough for the test suite."""

from __future__ import annotations

import json
from datetime import date, timedelta
from pathlib import Path

import pytest

import run
import tracing
import world
from shoulderseason.config import load_config
from verify import Expectation

TINY = world.WorldSpec(3, 3, range(2015, 2023), range(2018, 2023), range(2022, 2023), raster=True)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory) -> Path:
    return world.generate_world(TINY, tmp_path_factory.mktemp("tiny"), seed=5)


def _session(config: Path) -> run.Session:
    cfg = load_config(config)
    exp = Expectation(
        load_years=TINY.load_years,
        outage_years=TINY.feed_years,
        window_len=cfg.window_len,
        max_missing=cfg.max_missing_days,
        allow_year_wrap=cfg.allow_year_wrap,
        min_hours=cfg.min_hours,
        golden=False,
    )
    return run.Session("tiny", [config], {config: exp}, True, 1000, [0.5, 0.7])


@pytest.mark.parametrize("raster", [True, False])
def test_world_is_byte_identical_per_seed_and_differs_across_seeds(tmp_path, raster) -> None:
    spec = world.WorldSpec(2, 3, range(2019, 2023), range(2020, 2023), range(2022, 2023), raster)
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        world.generate_world(spec, tmp_path / name, seed)
    a, b, c = (_tree_bytes(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a if k.endswith((".npy", "load.csv", "outages.csv")))


def test_clean_ops_pass_and_traced_tree_matches(tiny_config, tmp_path) -> None:
    session = _session(tiny_config)
    plain = run.measure(session, tmp_path, 0.0, 0, traced=False)
    traced = run.measure(session, tmp_path, 0.0, 1, traced=True)
    assert [op.errors for op in plain + traced] == [[], []]
    layers = traced[0].layers
    assert set(layers) == set(run.per_layer_units()) - {"proc.cpu_s", "trace.overhead"}
    staged = sum(layers[f"cli.stage_{s}.s"] for s in run.STAGES)
    assert 0.0 < staged <= traced[0].wall
    assert layers["cli.unstaged_s"] == pytest.approx(traced[0].wall - staged)
    assert layers["adequacy.average_outages.calls"] > 0
    assert layers["windows.min_window.calls"] > 0
    assert set(run.SPANS) == {name for _, _, name, _ in tracing.PATCHES}


def test_shifted_onset_counts_as_failed_op(tiny_config, tmp_path, monkeypatch) -> None:
    real_run_all = run.run_all

    def corrupting_run_all(config, out):
        errors = real_run_all(config, out)
        path = out / "shoulder_windows.csv"
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        onset = date.fromisoformat(fields[3]) + timedelta(days=1)
        fields[3], fields[4] = onset.isoformat(), str(onset.timetuple().tm_yday)
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        return errors

    monkeypatch.setattr(run, "run_all", corrupting_run_all)
    lines, result = run.run_workload(_session(tiny_config), tmp_path, 0.0, False, {})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert any("shoulder_windows.csv: row" in line for line in lines)


def test_every_e2e_metric_prints_with_unit_and_sample_count(tiny_config, tmp_path) -> None:
    lines, result = run.run_workload(_session(tiny_config), tmp_path, 0.0, False, {})
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.E2E)
    for name, (unit, _, _) in [*run.E2E.items(), ("fail_ratio", ("ratio", None, None))]:
        line = next(line for line in lines if line.strip().startswith(name + " "))
        assert f" {unit} " in line and "n=" in line, line
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.6)


def test_benchmark_json_matches_the_harness() -> None:
    committed = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert committed == run.spec()
