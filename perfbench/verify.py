"""Checks on one `all` output tree, run outside the timed region.

A tree passes when it holds exactly the files every configured stage
writes, no stage skipped a year, and every shoulder window agrees with
an independent reference: the committed golden table for the seed-42
fixture at the default 45-day window, and otherwise the exhaustive-scan
oracle in `tests/oracles.py`. Trees are compared across runs through
`tree_digest`, so a byte change anywhere shows.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "data" / "golden_shoulder_windows.csv"
SHOULDER_HEADER = "year,season,metric,onset_date,onset_doy,window_mean,days_used"
HALVES = {"first": ("spring", (1, 1), (6, 30)), "second": ("fall", (7, 1), (12, 31))}
MEAN_REL_TOL = 1e-9  # the oracle and the golden sum in another order

BASE_FILES = {
    "daily_load.csv",
    "region_temp_daily.csv",
    "annual_temp_unweighted.csv",
    "cubic_fits.csv",
    "degree_days.csv",
    "thermal_summary.json",
    "shoulder_windows.csv",
    "onset_trends.csv",
    "onset_moving_avg.csv",
    "trend_fit_lines.csv",
    "onset_correlations.csv",
    "correlation_points.csv",
    "temperature_path.csv",
    "onset_vs_temp_points.csv",
    "onset_projection.csv",
    "projection_summary.json",
    "merge_summary.txt",
    "report.txt",
}
FUEL_MIX_FILES = {
    "daily_load_net.csv",
    "shoulder_windows_net.csv",
    "onset_trends_net.csv",
    "onset_correlations_net.csv",
}
OUTAGE_FILES = {
    "outage_periods.csv",
    "unmet_demand.csv",
    "adequacy_summary.json",
    *(
        f"generation_hist_{label}.csv"
        for label in (
            "january",
            "december",
            "operator_spring",
            "operator_fall",
            "min_peak_spring",
            "min_peak_fall",
        )
    ),
}


def _load_oracle():
    spec = importlib.util.spec_from_file_location("oracles", REPO / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exhaustive_min_window


@dataclass(frozen=True)
class Expectation:
    """What a correct tree for one world and config must contain."""

    load_years: range
    outage_years: range | None  # None when the world has no fuel-mix or outage feed
    window_len: int
    max_missing: int
    allow_year_wrap: bool
    min_hours: int
    golden: bool  # seed-42 fixture at window_len 45: compare with the golden


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file in the output directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def tree_sha256(digest: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name, file_hash in sorted(digest.items()):
        h.update(f"{name}\0{file_hash}\n".encode())
    return h.hexdigest()


def _rows(path: Path) -> tuple[str, list[list[str]]]:
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header, [line.split(",") for line in lines]


def _series(path: Path, column: int, min_hours: int | None = None) -> dict[date, float]:
    _, rows = _rows(path)
    return {
        date.fromisoformat(r[0]): float(r[column])
        for r in rows
        if min_hours is None or int(r[3]) >= min_hours
    }


def _load_series(path: Path, exp: Expectation) -> dict[str, dict[date, float]]:
    return {
        "total_energy": _series(path, 1, exp.min_hours),
        "peak_demand": _series(path, 2, exp.min_hours),
    }


def _oracle_rows(series_by_metric: dict[str, dict[date, float]], exp: Expectation) -> dict:
    oracle = _load_oracle()
    rows = {}
    for metric, series in series_by_metric.items():
        for year in sorted({d.year for d in series}):
            for half, (season, (m0, d0), (m1, d1)) in HALVES.items():
                lo, hi = date(year, m0, d0), date(year, m1, d1)
                if not any(lo <= d <= hi for d in series):
                    continue
                got = oracle(
                    series,
                    year,
                    half,
                    window_len=exp.window_len,
                    max_missing=exp.max_missing,
                    allow_year_wrap=exp.allow_year_wrap,
                )
                if got is None:
                    continue  # no admissible window: the tree must not have a row
                onset, mean, used = got
                rows[(str(year), season, metric)] = [
                    str(year),
                    season,
                    metric,
                    onset.isoformat(),
                    str(onset.timetuple().tm_yday),
                    repr(mean),
                    str(used),
                ]
    return rows


def _compare_shoulder(path: Path, want: dict, label: str) -> list[str]:
    """Onset, day of year and day count exactly; the mean to MEAN_REL_TOL."""
    header, rows = _rows(path)
    if header != SHOULDER_HEADER:
        return [f"{label}: header {header!r}"]
    got = {tuple(r[:3]): r for r in rows}
    errors = []
    if len(got) != len(rows):
        errors.append(f"{label}: duplicate (year, season, metric) rows")
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if g is None or w is None:
            errors.append(f"{label}: row {key} is {'missing' if g is None else 'unexpected'}")
        elif (
            g[:5] != w[:5]
            or g[6] != w[6]
            or not math.isclose(float(g[5]), float(w[5]), rel_tol=MEAN_REL_TOL)
        ):
            errors.append(f"{label}: row {key} is {g}, reference {w}")
    return errors


def check_tree(out: Path, exp: Expectation) -> list[str]:
    """Return every problem found in the output tree `out` (empty if none)."""
    wanted = set(BASE_FILES)
    if exp.outage_years is not None:
        wanted |= FUEL_MIX_FILES | OUTAGE_FILES
    present = {p.name for p in out.iterdir() if p.is_file()}
    errors = [f"missing output {name}" for name in sorted(wanted - present)]
    errors += [f"unexpected output {name}" for name in sorted(present - wanted)]
    if errors:
        return errors

    summary = json.loads((out / "thermal_summary.json").read_text(encoding="utf-8"))
    if summary["fit_years"] != list(exp.load_years) or summary["skipped_fit_years"]:
        errors.append(
            f"cubic fits for {summary['fit_years']}, skipped {summary['skipped_fit_years']}; "
            f"expected every load year {exp.load_years.start}-{exp.load_years.stop - 1}"
        )
    if exp.outage_years is not None:
        _, unmet = _rows(out / "unmet_demand.csv")
        months = [r[0] for r in unmet]
        want_months = [f"{y}-{m:02d}" for y in exp.outage_years for m in (1, 12)]
        if months != want_months:
            errors.append(f"unmet-demand rows {months}, expected {want_months}")

    if exp.golden:
        _, golden_rows = _rows(GOLDEN)
        want = {tuple(r[:3]): r for r in golden_rows}
    else:
        series = {"degree_days": _series(out / "degree_days.csv", 1), **_load_series(out / "daily_load.csv", exp)}
        want = _oracle_rows(series, exp)
    errors += _compare_shoulder(out / "shoulder_windows.csv", want, "shoulder_windows.csv")
    if exp.outage_years is not None:
        want = _oracle_rows(_load_series(out / "daily_load_net.csv", exp), exp)
        errors += _compare_shoulder(out / "shoulder_windows_net.csv", want, "shoulder_windows_net.csv")
    return errors
