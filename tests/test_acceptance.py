"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 1-8 and 10 run self-contained. Criterion 9 reproduces the
headline statistics from the real regional extracts and runs only when
SHOULDERSEASON_REAL_DATA points at a directory holding a `real.conf`
config for those files (see README); it is skipped otherwise.
"""

from __future__ import annotations

import json
import os
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from golden_cubics import GOLDEN_CUBIC_ROWS
from oracles import exhaustive_min_window
from shoulderseason.adequacy import incremental_maintenance_delta, unmet_demand_fraction
from shoulderseason.cli import F, _stages_for_all, run_pipeline
from shoulderseason.config import load_config
from shoulderseason.ingest import DailySeries
from shoulderseason.projection import OnsetProjection, fit_bias_correction, merge_year
from shoulderseason.projection import EnsembleAnnualStats
from shoulderseason.thermal import (
    CubicDemandFit,
    degree_day_series,
    fit_demand_temperature_cubic,
    reference_temperature,
)
from shoulderseason.trends import linear_trend, shift_probability
from shoulderseason.windows import min_window


def test_criterion_01_reference_temperature_golden_suite() -> None:
    started = time.perf_counter()
    for year, a1, a2, a3, a4, expected_t0 in GOLDEN_CUBIC_ROWS:
        fit = CubicDemandFit(year, a1, a2, a3, a4, fit_range=(-10.0, 40.0))
        assert reference_temperature(fit) == pytest.approx(expected_t0, abs=0.05), year
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden suite took {elapsed:.3f}s"


def test_criterion_02_cubic_fit_round_trip() -> None:
    ts = np.arange(-2.0, 38.0, 0.5)
    for year, a1, a2, a3, a4, _ in GOLDEN_CUBIC_ROWS:
        demand = ((a1 * ts + a2) * ts + a3) * ts + a4
        fit = fit_demand_temperature_cubic(zip(ts, demand), year=year)
        for got, want in zip((fit.a1, fit.a2, fit.a3, fit.a4), (a1, a2, a3, a4)):
            assert abs(got - want) <= 1e-6 * abs(want), (year, got, want)


def test_criterion_03_window_oracle_equivalence() -> None:
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    for trial in range(1000):
        year = 2000 + trial % 10
        start = date(year, 1, 1)
        n_days = (date(year + 1, 1, 1) - start).days
        values = rng.uniform(0.0, 100.0, size=n_days)
        series = {start + timedelta(days=i): float(v) for i, v in enumerate(values)}
        half = "first" if trial % 2 == 0 else "second"
        for window_len in (1, 7, 45):
            got = min_window(series, year, half, window_len=window_len)
            want = exhaustive_min_window(series, year, half, window_len=window_len)
            assert got.onset == want[0], (trial, half, window_len)
            assert got.window_mean == pytest.approx(want[1], rel=1e-12)
            assert got.days_used == want[2]
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 3000
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_04_degree_day_properties() -> None:
    rng = np.random.default_rng(99)
    for _ in range(2000):
        t0 = float(rng.uniform(-30.0, 45.0))
        x = float(rng.uniform(0.0, 40.0))
        temps = DailySeries(date(2000, 1, 1), np.array([t0, t0 + x, t0 - x]))
        at, above, below = degree_day_series(temps, t0).values
        assert at == 0.0
        assert above == pytest.approx(below, abs=1e-9)
        assert above >= 0.0
        assert below >= 0.0


def test_criterion_05_regression_probability_suite() -> None:
    # Zero slope: even odds within 0.01.
    xs = np.arange(10, dtype=float)
    noise = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    noise -= noise.mean()
    xc = xs - xs.mean()
    noise -= (noise * xc).sum() / (xc * xc).sum() * xc
    flat = linear_trend(list(zip(xs, 40.0 + noise)))
    assert abs(flat.slope) < 1e-12
    assert flat.shift_probability == pytest.approx(0.5, abs=0.01)

    # slope/stderr of -2.326 lands on the 0.99 normal quantile.
    assert shift_probability(-2.326, 1.0, "earlier") == pytest.approx(0.99, abs=0.005)
    assert shift_probability(-2.326e-3, 1.0e-3, "earlier") == pytest.approx(0.99, abs=0.005)

    # y-scaling leaves the probability unchanged.
    rng = np.random.default_rng(7)
    points = [(float(x), float(rng.normal(100 - 0.3 * x, 2.0))) for x in range(24)]
    base = linear_trend(points, direction="earlier")
    for k in (0.1, 3.0, 1e4):
        scaled = linear_trend([(x, k * y) for x, y in points], direction="earlier")
        assert scaled.shift_probability == pytest.approx(base.shift_probability, abs=1e-9)


def test_criterion_06_bias_correction_recovery() -> None:
    rng = np.random.default_rng(11)
    ens_means = {1959 + i: float(rng.uniform(14.0, 21.0)) for i in range(64)}
    ensemble = [EnsembleAnnualStats(y, t, 0.4) for y, t in ens_means.items()]
    observed = {y: 0.92 * t + 1.0 for y, t in ens_means.items()}
    correction = fit_bias_correction(observed, ensemble)
    assert abs(correction.gain - 0.92) <= 1e-9
    assert abs(correction.offset - 1.0) <= 1e-9


def test_criterion_07_merge_detection() -> None:
    def band(year: int, lo: float, hi: float) -> OnsetProjection:
        return OnsetProjection(year, (lo + hi) / 2.0, lo, hi)

    years = list(range(2000, 2070))
    # fall interval [300+d, 310+d]; next spring (shifted +365) [400-d, 410-d].
    # First overlap at d = 45 -> year 2045, persisting afterwards.
    fall = [band(y, 300.0 + (y - 2000), 310.0 + (y - 2000)) for y in years]
    spring = [
        band(y, 400.0 - (y - 2000 - 1) - 365.0, 410.0 - (y - 2000 - 1) - 365.0)
        for y in years
    ]
    for persistence in (1, 3, 5):
        assert merge_year(spring, fall, persistence=persistence) == 2045

    parallel_spring = [band(y, 35.0, 45.0) for y in years]
    parallel_fall = [band(y, 330.0, 340.0) for y in years]
    assert merge_year(parallel_spring, parallel_fall) is None


def test_criterion_08_adequacy_arithmetic() -> None:
    assert incremental_maintenance_delta(22.1, 16.6) == pytest.approx(5.5, abs=1e-9)
    demand = [50.0] * 8 + [990.0, 995.0]
    assert unmet_demand_fraction(demand, 1000.0, 100.0) == 20.0


def test_criterion_09_real_data_reproduction(tmp_path) -> None:
    root = os.environ.get("SHOULDERSEASON_REAL_DATA")
    if not root:
        pytest.skip(
            "real regional extracts not bundled; set SHOULDERSEASON_REAL_DATA to a "
            "directory containing real.conf to run the headline reproduction"
        )
    cfg = load_config(Path(root) / "real.conf")
    cfg.out_dir = tmp_path / "real_out"
    cfg.outlier_policy = "auto"
    run_pipeline(cfg, _stages_for_all(cfg))

    trend = {}
    for line in (cfg.out_dir / F["trends"]).read_text().splitlines()[1:]:
        metric, season, slope, _stderr, prob, _n, _excl = line.split(",")
        trend[(metric, season)] = (float(slope), float(prob))
    slope, prob = trend[("degree_days", "spring")]
    assert slope == pytest.approx(-2.4, abs=0.3)
    assert prob == pytest.approx(0.99, abs=0.03)
    slope, prob = trend[("degree_days", "fall")]
    assert slope == pytest.approx(1.1, abs=0.3)
    assert prob == pytest.approx(0.91, abs=0.03)

    corr = {}
    for line in (cfg.out_dir / F["corr"]).read_text().splitlines()[1:]:
        season, _x, y_metric, r, *_ = line.split(",")
        corr[(season, y_metric)] = float(r)
    assert corr[("spring", "total_energy")] == pytest.approx(0.80, abs=0.05)
    assert corr[("spring", "peak_demand")] == pytest.approx(0.76, abs=0.05)
    assert corr[("fall", "total_energy")] == pytest.approx(0.71, abs=0.05)
    assert corr[("fall", "peak_demand")] == pytest.approx(0.74, abs=0.05)

    summary = json.loads((cfg.out_dir / F["proj_summary"]).read_text())
    assert summary["merge_year"] is not None
    assert 2040 <= summary["merge_year"] <= 2050

    expected_unmet = {
        "2020-01": 10.2,
        "2020-12": 1.75,
        "2021-01": 2.02,
        "2021-12": 23.1,
        "2022-01": 2.02,
        "2022-12": 2.42,
    }
    unmet = {}
    for line in (cfg.out_dir / F["unmet"]).read_text().splitlines()[1:]:
        month, _max_out, _extra, pct = line.split(",")
        unmet[month] = float(pct)
    for month, expected in expected_unmet.items():
        assert unmet[month] == pytest.approx(expected, abs=0.5), month


def test_criterion_10_pipeline_determinism(fixture_dir, full_run, tmp_path) -> None:
    cfg = load_config(fixture_dir / "fixture.conf")
    cfg.out_dir = tmp_path / "again"
    run_pipeline(cfg, _stages_for_all(cfg))
    first = {p.name: p.read_bytes() for p in sorted(full_run.iterdir())}
    second = {p.name: p.read_bytes() for p in sorted(cfg.out_dir.iterdir())}
    assert first == second
