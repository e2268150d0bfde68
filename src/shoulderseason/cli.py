"""Pipeline orchestration and command-line entry point.

Stages read raw inputs and each other's cached outputs from the output
directory, in the fixed order ingest -> thermal -> shoulder ->
trends/project/adequacy -> report. Every file is written atomically and
byte-stable: rerunning with identical inputs and config reproduces
identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import adequacy as adq
from . import ingest, projection, thermal, trends, windows
from .config import RunConfig, load_config
from .fixtures import generate_fixture

STAGES = ("ingest", "thermal", "shoulder", "trends", "project", "adequacy", "report")

SPRING_CUTOFF = date(2000, 2, 14)
FALL_CUTOFF = date(2000, 11, 25)
MOVING_AVERAGE_YEARS = 5

F = {
    "daily": "daily_load.csv",
    "daily_net": "daily_load_net.csv",
    "temp_daily": "region_temp_daily.csv",
    "temp_annual": "annual_temp_unweighted.csv",
    "cubic": "cubic_fits.csv",
    "dd": "degree_days.csv",
    "thermal_summary": "thermal_summary.json",
    "shoulder": "shoulder_windows.csv",
    "shoulder_net": "shoulder_windows_net.csv",
    "trends": "onset_trends.csv",
    "trends_net": "onset_trends_net.csv",
    "movavg": "onset_moving_avg.csv",
    "fitlines": "trend_fit_lines.csv",
    "corr": "onset_correlations.csv",
    "corr_net": "onset_correlations_net.csv",
    "corr_points": "correlation_points.csv",
    "temp_path": "temperature_path.csv",
    "onset_temp": "onset_vs_temp_points.csv",
    "proj": "onset_projection.csv",
    "proj_summary": "projection_summary.json",
    "merge": "merge_summary.txt",
    "periods": "outage_periods.csv",
    "unmet": "unmet_demand.csv",
    "adequacy_summary": "adequacy_summary.json",
    "report": "report.txt",
}

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _monthday(d: date) -> str:
    return f"{_MONTHS[d.month - 1]} {d.day:02d}"


def _write_atomic(path: Path, text: str) -> Path:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


def _write_rows(path: Path, header: str, rows: Iterable[str]) -> Path:
    return _write_atomic(path, "\n".join([header, *rows]) + "\n")


def _write_json(path: Path, obj) -> Path:
    return _write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _r(value: float) -> str:
    return repr(float(value))


def _need_config(cfg: RunConfig, key: str, stage: str) -> Path:
    value = getattr(cfg, key)
    if value is None:
        raise ValueError(f"config key {key}: required for the {stage} stage")
    return Path(value)


def _need_cached(out: Path, name: str, producer: str) -> Path:
    path = out / name
    if not path.is_file():
        raise ValueError(f"missing {name}; run the {producer} stage first")
    return path


def _read_csv(path: Path, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [fields for _, fields in ingest._split_rows(fh, header)]


# -- stages -------------------------------------------------------------------


def stage_ingest(cfg: RunConfig, out: Path) -> list[Path]:
    load_path = _need_config(cfg, "load_csv", "ingest")
    with open(load_path, encoding="utf-8") as fh:
        hourly = ingest.parse_hourly_load(fh)
    daily = ingest.aggregate_daily(hourly)
    outputs = [_write_atomic(out / F["daily"], _daily_text(daily))]

    mix = None
    if cfg.fuel_mix_csv is not None:
        with open(cfg.fuel_mix_csv, encoding="utf-8") as fh:
            mix = ingest.parse_fuel_mix(fh)
    if mix is not None and len(mix):
        # Netting applies to the span the fuel-mix feed covers.
        lo, hi = mix.timestamps[[0, -1]].astype("datetime64[D]")
        days = hourly.hours.astype("datetime64[D]")
        netted = ingest.net_non_thermal(hourly[(days >= lo) & (days <= hi)], mix)
        outputs.append(
            _write_atomic(out / F["daily_net"], _daily_text(ingest.aggregate_daily(netted)))
        )
    else:  # an optional output this run does not write must not survive it
        (out / F["daily_net"]).unlink(missing_ok=True)
    return outputs


def _daily_text(summaries: Sequence[ingest.DailyLoadSummary]) -> str:
    import io

    buf = io.StringIO()
    ingest.write_daily_summaries(summaries, buf)
    return buf.getvalue()


def stage_thermal(cfg: RunConfig, out: Path) -> list[Path]:
    grid_path = _need_config(cfg, "temperature_grid", "thermal")
    mask_path = _need_config(cfg, "mask_csv", "thermal")
    daily_path = _need_cached(out, F["daily"], "ingest")

    grid = thermal.load_temperature_grid(grid_path)
    with open(mask_path, encoding="utf-8") as fh:
        grid = thermal.attach_mask(grid, thermal.read_mask_csv(fh))
    pop = None
    if cfg.population_csv is not None:
        with open(cfg.population_csv, encoding="utf-8") as fh:
            pop = thermal.read_population_csv(fh)

    temps_weighted = thermal.population_weighted_daily_temp(grid, pop)
    temps_unweighted = thermal.population_weighted_daily_temp(grid, None)
    with open(daily_path, encoding="utf-8") as fh:
        daily = ingest.read_daily_summaries(fh)

    temp_by_day = {t.day: t.t_avg_c for t in temps_weighted}
    pairs_by_year: dict[int, list[tuple[float, float]]] = {}
    for s in daily:
        if s.hours_present < cfg.min_hours or s.day not in temp_by_day:
            continue
        pairs_by_year.setdefault(s.day.year, []).append(
            (temp_by_day[s.day], s.peak_demand_mw)
        )

    fits: list[thermal.CubicDemandFit] = []
    skipped: list[int] = []
    for year in sorted(pairs_by_year):
        pairs = pairs_by_year[year]
        if len({t for t, _ in pairs}) < 4:
            skipped.append(year)
            continue
        fit = thermal.fit_demand_temperature_cubic(pairs, year=year)
        try:
            t0 = thermal.reference_temperature(fit)
        except ValueError:
            skipped.append(year)
            continue
        fits.append(
            thermal.CubicDemandFit(
                fit.year, fit.a1, fit.a2, fit.a3, fit.a4, fit.fit_range, t0
            )
        )
    if not fits:
        raise ValueError(
            "no year produced a demand-temperature cubic with an interior "
            f"minimum (years considered: {sorted(pairs_by_year)})"
        )
    t0_global = thermal.global_t0([f.t0 for f in fits])
    dd = thermal.degree_day_series(temps_weighted, t0_global)
    spatial_std = thermal.spatial_temp_stddev(grid)

    outputs = [
        _write_rows(
            out / F["temp_daily"],
            "date,t_avg_c",
            (f"{t.day.isoformat()},{_r(t.t_avg_c)}" for t in temps_weighted),
        ),
        _write_rows(
            out / F["temp_annual"],
            "year,t_mean_c",
            (
                f"{year},{_r(mean)}"
                for year, mean in thermal.annual_means(temps_unweighted).items()
            ),
        ),
        _write_rows(
            out / F["cubic"],
            "year,a1,a2,a3,a4,t0,t_min,t_max",
            (
                f"{f.year},{_r(f.a1)},{_r(f.a2)},{_r(f.a3)},{_r(f.a4)},"
                f"{_r(f.t0)},{_r(f.fit_range[0])},{_r(f.fit_range[1])}"
                for f in fits
            ),
        ),
        _write_rows(
            out / F["dd"],
            "date,dd_c",
            (f"{v.day.isoformat()},{_r(v.dd_c)}" for v in dd),
        ),
        _write_json(
            out / F["thermal_summary"],
            {
                "region": cfg.region_label,
                "t0_global_c": t0_global,
                "spatial_std_c": spatial_std,
                "fit_years": [f.year for f in fits],
                "skipped_fit_years": skipped,
                "population_weighted": pop is not None,
            },
        ),
    ]
    return outputs


def _read_dd(out: Path) -> dict[date, float]:
    rows = _read_csv(out / F["dd"], "date,dd_c")
    return {date.fromisoformat(d): float(v) for d, v in rows}


def _read_daily_cached(path: Path) -> list[ingest.DailyLoadSummary]:
    with open(path, encoding="utf-8") as fh:
        return ingest.read_daily_summaries(fh)


def _shoulder_rows_text(rows: Sequence[windows.ShoulderWindow]) -> list[str]:
    return [
        f"{w.year},{w.season},{w.metric},{w.onset.isoformat()},{w.onset_doy},"
        f"{_r(w.window_mean)},{w.days_used}"
        for w in rows
    ]


SHOULDER_HEADER = "year,season,metric,onset_date,onset_doy,window_mean,days_used"


def stage_shoulder(cfg: RunConfig, out: Path) -> list[Path]:
    dd: dict[date, float] | None = None
    summaries: list[ingest.DailyLoadSummary] | None = None
    if cfg.temperature_grid is not None:
        _need_cached(out, F["dd"], "thermal")
        dd = _read_dd(out)
    if cfg.load_csv is not None:
        summaries = _read_daily_cached(_need_cached(out, F["daily"], "ingest"))
    if dd is None and summaries is None:
        raise ValueError(
            "shoulder stage needs a temperature grid or load data; "
            "configure temperature_grid and/or load_csv"
        )
    rows = windows.shoulder_table(
        degree_day_series=dd,
        load_summaries=summaries,
        window_len=cfg.window_len,
        max_missing=cfg.max_missing_days,
        allow_year_wrap=cfg.allow_year_wrap,
        min_hours=cfg.min_hours,
    )
    outputs = [_write_rows(out / F["shoulder"], SHOULDER_HEADER, _shoulder_rows_text(rows))]

    net_path = out / F["daily_net"]
    if net_path.is_file():
        net_rows = windows.shoulder_table(
            load_summaries=_read_daily_cached(net_path),
            window_len=cfg.window_len,
            max_missing=cfg.max_missing_days,
            allow_year_wrap=cfg.allow_year_wrap,
            min_hours=cfg.min_hours,
        )
        outputs.append(
            _write_rows(out / F["shoulder_net"], SHOULDER_HEADER, _shoulder_rows_text(net_rows))
        )
    else:
        (out / F["shoulder_net"]).unlink(missing_ok=True)
    return outputs


def _read_shoulder(path: Path) -> list[windows.ShoulderWindow]:
    rows = []
    for year, season, metric, onset, _doy, mean, used in _read_csv(path, SHOULDER_HEADER):
        rows.append(
            windows.ShoulderWindow(
                int(year), season, metric, date.fromisoformat(onset), float(mean), int(used)
            )
        )
    return rows


def _onsets_by_year(
    rows: Sequence[windows.ShoulderWindow], metric: str, season: str
) -> dict[int, date]:
    return {w.year: w.onset for w in rows if w.metric == metric and w.season == season}


def _trend_rows(
    cfg: RunConfig, rows: Sequence[windows.ShoulderWindow]
) -> tuple[list[str], list[dict]]:
    lines = []
    records = []
    metrics = sorted({w.metric for w in rows})
    for metric in metrics:
        for season in ("spring", "fall"):
            onsets = _onsets_by_year(rows, metric, season)
            if len(onsets) < 3:
                continue
            points = {y: float(d.timetuple().tm_yday) for y, d in onsets.items()}
            auto = (
                cfg.outlier_policy == "auto"
                and metric == "degree_days"
                and season == "fall"
            )
            direction = "earlier" if season == "spring" else "later"
            result = trends.linear_trend(points, direction=direction, auto_exclude=auto)
            excluded = ";".join(str(int(x)) for x, _ in result.excluded_points)
            lines.append(
                f"{metric},{season},{_r(result.slope_per_decade)},"
                f"{_r(result.stderr_per_decade)},{_r(result.shift_probability)},"
                f"{result.n},{excluded}"
            )
            records.append(
                {
                    "metric": metric,
                    "season": season,
                    "direction": direction,
                    "result": result,
                    "points": points,
                }
            )
    return lines, records


TRENDS_HEADER = "metric,season,slope_days_per_decade,stderr,shift_probability,n,excluded"
CORR_HEADER = "season,x_metric,y_metric,r,n_used,excluded_count,cutoff"


def _correlation_rows(
    dd_rows: Sequence[windows.ShoulderWindow],
    load_rows: Sequence[windows.ShoulderWindow],
) -> tuple[list[str], list[str]]:
    corr_lines = []
    point_lines = []
    for season, cutoff in (("spring", SPRING_CUTOFF), ("fall", FALL_CUTOFF)):
        x = _onsets_by_year(dd_rows, "degree_days", season)
        for y_metric in ("total_energy", "peak_demand"):
            y = _onsets_by_year(load_rows, y_metric, season)
            common = sorted(set(x) & set(y))
            for year in common:
                cmp = trends._compare_to_cutoff(x[year], cutoff)
                included = not ((cmp < 0) if season == "spring" else (cmp > 0))
                point_lines.append(
                    f"{season},{y_metric},{year},{x[year].timetuple().tm_yday},"
                    f"{y[year].timetuple().tm_yday},{int(included)}"
                )
            try:
                result = trends.pearson_with_cutoff(x, y, season, cutoff)
            except ValueError:
                continue  # too few pairs; points are still emitted
            corr_lines.append(
                f"{season},degree_days,{y_metric},{_r(result.r)},{result.n_used},"
                f"{result.excluded_count},{_monthday(cutoff)}"
            )
    return corr_lines, point_lines


def stage_trends(cfg: RunConfig, out: Path) -> list[Path]:
    rows = _read_shoulder(_need_cached(out, F["shoulder"], "shoulder"))
    trend_lines, records = _trend_rows(cfg, rows)
    outputs = [_write_rows(out / F["trends"], TRENDS_HEADER, trend_lines)]

    movavg_lines = []
    fit_lines = []
    for rec in records:
        points, result = rec["points"], rec["result"]
        smoothed = dict(trends.moving_average(points, k=MOVING_AVERAGE_YEARS))
        for year in sorted(points):
            movavg_lines.append(
                f"{rec['metric']},{rec['season']},{year},{_r(points[year])},"
                f"{_r(smoothed[year])}"
            )
        for year, fit, lo, hi in trends.confidence_band(result, sorted(points)):
            fit_lines.append(
                f"{rec['metric']},{rec['season']},{int(year)},{_r(fit)},{_r(lo)},{_r(hi)}"
            )
    outputs.append(
        _write_rows(out / F["movavg"], "metric,season,year,onset_doy,smoothed_doy", movavg_lines)
    )
    outputs.append(
        _write_rows(out / F["fitlines"], "metric,season,year,fit_doy,ci_low,ci_high", fit_lines)
    )

    dd_rows = [w for w in rows if w.metric == "degree_days"]
    load_rows = [w for w in rows if w.metric != "degree_days"]
    if dd_rows and load_rows:
        corr_lines, point_lines = _correlation_rows(dd_rows, load_rows)
        outputs.append(_write_rows(out / F["corr"], CORR_HEADER, corr_lines))
        outputs.append(
            _write_rows(
                out / F["corr_points"],
                "season,y_metric,year,x_onset_doy,y_onset_doy,included",
                point_lines,
            )
        )

    net_path = out / F["shoulder_net"]
    net_rows = _read_shoulder(net_path) if net_path.is_file() else None
    if net_rows is not None:
        net_lines, _ = _trend_rows(cfg, net_rows)
        outputs.append(_write_rows(out / F["trends_net"], TRENDS_HEADER, net_lines))
    else:
        (out / F["trends_net"]).unlink(missing_ok=True)
    if net_rows is not None and dd_rows:
        corr_lines, _ = _correlation_rows(dd_rows, net_rows)
        outputs.append(_write_rows(out / F["corr_net"], CORR_HEADER, corr_lines))
    else:
        (out / F["corr_net"]).unlink(missing_ok=True)
    return outputs


def stage_project(cfg: RunConfig, out: Path) -> list[Path]:
    ensemble_path = _need_config(cfg, "ensemble_csv", "project")
    annual_path = _need_cached(out, F["temp_annual"], "thermal")
    shoulder_path = _need_cached(out, F["shoulder"], "shoulder")

    annual = {
        int(y): float(t) for y, t in _read_csv(annual_path, "year,t_mean_c")
    }
    rows = _read_shoulder(shoulder_path)
    spring_onsets = _onsets_by_year(rows, "degree_days", "spring")
    fall_onsets = _onsets_by_year(rows, "degree_days", "fall")
    if not spring_onsets or not fall_onsets:
        raise ValueError(
            "project stage needs degree-day shoulder windows; "
            "run thermal and shoulder with a temperature grid"
        )

    with open(ensemble_path, encoding="utf-8") as fh:
        stats = projection.ensemble_annual_stats(projection.parse_ensemble_csv(fh))
    correction = projection.fit_bias_correction(annual, stats)
    path = [
        (e.year, correction.apply(e.ensemble_mean_c), abs(correction.gain) * e.ensemble_std_c)
        for e in stats
    ]

    spring_line = projection.onset_vs_temperature(annual, spring_onsets, "spring")
    fall_line = projection.onset_vs_temperature(annual, fall_onsets, "fall")
    spring_proj, fall_proj = projection.project_onsets(spring_line, fall_line, path)
    merged = projection.merge_year(spring_proj, fall_proj, persistence=cfg.persistence)

    path_lines = [f"{year},observed,{_r(t)},," for year, t in sorted(annual.items())]
    for e, (_, corrected, sigma) in zip(stats, path):
        path_lines.append(f"{e.year},ensemble_raw,{_r(e.ensemble_mean_c)},,")
        path_lines.append(
            f"{e.year},ensemble_corrected,{_r(corrected)},"
            f"{_r(corrected - 2 * sigma)},{_r(corrected + 2 * sigma)}"
        )

    onset_temp_lines = []
    for season, onsets in (("spring", spring_onsets), ("fall", fall_onsets)):
        for year in sorted(set(onsets) & set(annual)):
            onset_temp_lines.append(
                f"{season},{year},{_r(annual[year])},{onsets[year].timetuple().tm_yday}"
            )

    proj_lines = []
    for season, seq in (("spring", spring_proj), ("fall", fall_proj)):
        for p in seq:
            proj_lines.append(
                f"{p.year},{season},{_r(p.predicted_onset)},{_r(p.ci_low)},{_r(p.ci_high)}"
            )

    merge_text = f"merge_year,{merged if merged is not None else 'none'}\n"
    summary = {
        "bias_gain": correction.gain,
        "bias_offset": correction.offset,
        "merge_year": merged,
        "persistence": cfg.persistence,
        "n_ensemble_years": len(stats),
        "spring_slope_days_per_c": spring_line.slope,
        "fall_slope_days_per_c": fall_line.slope,
    }
    return [
        _write_rows(out / F["temp_path"], "year,source,t_c,lo,hi", path_lines),
        _write_rows(out / F["onset_temp"], "season,year,t_c,onset_doy", onset_temp_lines),
        _write_rows(
            out / F["proj"], "year,season,predicted_onset_doy,ci_low,ci_high", proj_lines
        ),
        _write_atomic(out / F["merge"], merge_text),
        _write_json(out / F["proj_summary"], summary),
    ]


def _month_range(year: int, month: int) -> tuple[date, date]:
    import calendar

    return date(year, month, 1), date(year, month, calendar.monthrange(year, month)[1])


def stage_adequacy(cfg: RunConfig, out: Path) -> list[Path]:
    outage_path = _need_config(cfg, "outage_csv", "adequacy")
    load_path = _need_config(cfg, "load_csv", "adequacy")
    shoulder_path = _need_cached(out, F["shoulder"], "shoulder")

    with open(outage_path, encoding="utf-8") as fh:
        outages = ingest.parse_outages(fh)
    if not len(outages):
        raise ValueError(f"outage file {outage_path} has no data rows")
    with open(load_path, encoding="utf-8") as fh:
        hourly = ingest.parse_hourly_load(fh)
    shoulder_rows = _read_shoulder(shoulder_path)

    years = outages.timestamps.astype("datetime64[Y]").astype(int) + 1970
    outage_years = np.unique(years).tolist()
    focus_year = cfg.adequacy_year if cfg.adequacy_year is not None else outage_years[-1]

    named_periods = [
        ("january", [_month_range(focus_year, 1)]),
        ("march2_april15", [(date(focus_year, 3, 2), date(focus_year, 4, 15))]),
        ("operator_spring", [(date(focus_year, 3, 15), date(focus_year, 5, 1))]),
        ("operator_fall", [(date(focus_year, 10, 15), date(focus_year, 11, 30))]),
        ("december", [_month_range(focus_year, 12)]),
        (
            "winter_span",
            [(date(focus_year, 12, 31), date(focus_year + 1, 2, 13))],
        ),
        (
            "shoulder_combined",
            [
                (date(focus_year, 3, 15), date(focus_year, 5, 1)),
                (date(focus_year, 10, 15), date(focus_year, 11, 30)),
            ],
        ),
        ("winter_combined", [_month_range(focus_year, 1), _month_range(focus_year, 12)]),
    ]
    period_lines = []
    period_stats: dict[str, adq.PeriodOutageStat] = {}
    for label, ranges in named_periods:
        try:
            stat = adq.average_outages(outages, ranges, label=label)
        except ValueError:
            continue
        period_stats[label] = stat
        period_lines.append(
            f"{label},{stat.start.isoformat()},{stat.end.isoformat()},"
            f"{_r(stat.mean_outage_gw)},{stat.n_records}"
        )

    summary: dict[str, object] = {"focus_year": focus_year}
    if "shoulder_combined" in period_stats and "winter_combined" in period_stats:
        delta = adq.incremental_maintenance_delta(
            period_stats["shoulder_combined"].mean_outage_gw,
            period_stats["winter_combined"].mean_outage_gw,
        )
        summary["shoulder_mean_gw"] = period_stats["shoulder_combined"].mean_outage_gw
        summary["winter_mean_gw"] = period_stats["winter_combined"].mean_outage_gw
        summary["incremental_delta_gw"] = delta

    # Winter unmet-demand table: December and January of each covered year.
    load_months = hourly.hours.astype("datetime64[M]")
    outage_months = outages.timestamps.astype("datetime64[M]")
    telemetered = ~np.isnan(outages.telemetered_output_mw)
    extra_mw = cfg.extra_outage_gw * adq.MW_PER_GW
    unmet_lines = []
    for year in outage_years:
        for month in (1, 12):
            key = np.datetime64(date(year, month, 1), "M")
            telem = outages.telemetered_output_mw[(outage_months == key) & telemetered]
            demand = hourly.load_mw[load_months == key]
            if not len(telem) or not len(demand):
                continue
            # The running maximum starts at 0.0; adding 0.0 turns -0.0 into it.
            max_output = float(telem.max()) + 0.0
            if max_output < extra_mw:
                continue
            row = adq.AdequacyResult(
                label=f"{year}-{month:02d}",
                max_output_gw=max_output / adq.MW_PER_GW,
                extra_outage_gw=cfg.extra_outage_gw,
                pct_unmet=adq.unmet_demand_fraction(demand, max_output, extra_mw),
            )
            unmet_lines.append(
                f"{row.label},{_r(row.max_output_gw)},"
                f"{_r(row.extra_outage_gw)},{_r(row.pct_unmet)}"
            )

    # Pooled generation histograms across all outage years.
    hist_specs: list[tuple[str, list[tuple[date, date]]]] = [
        ("january", [_month_range(y, 1) for y in outage_years]),
        ("december", [_month_range(y, 12) for y in outage_years]),
        (
            "operator_spring",
            [(date(y, 3, 15), date(y, 5, 1)) for y in outage_years],
        ),
        (
            "operator_fall",
            [(date(y, 10, 15), date(y, 11, 30)) for y in outage_years],
        ),
    ]
    for season in ("spring", "fall"):
        ranges = [
            (w.onset, w.onset + timedelta(days=cfg.window_len - 1))
            for w in shoulder_rows
            if w.metric == "peak_demand" and w.season == season and w.year in outage_years
        ]
        if ranges:
            hist_specs.append((f"min_peak_{season}", ranges))

    bin_mw = cfg.adequacy_bin_gw * adq.MW_PER_GW
    outputs = [
        _write_rows(
            out / F["periods"], "label,start,end,mean_outage_gw,n_records", period_lines
        ),
        _write_rows(
            out / F["unmet"], "month,max_output_gw,extra_outage_gw,pct_unmet", unmet_lines
        ),
    ]
    hist_files = []
    for label, ranges in hist_specs:
        demand = hourly.load_mw[adq.period_mask(hourly.hours, ranges)]
        if not len(demand):
            continue
        # The first maximum in file order, as max() picks among 0.0 and -0.0.
        peak = float(demand[demand.argmax()])
        try:
            hist = adq.generation_histogram(
                outages, ranges, bin_mw, peak_demand_mw=peak, label=label
            )
        except ValueError:
            continue
        lines = [
            f"# peak_demand_gw={adq.format_gw(hist.peak_demand_mw / adq.MW_PER_GW)} "
            f"max_output_gw={adq.format_gw(hist.max_output_mw / adq.MW_PER_GW)} "
            f"headroom_gw={adq.format_gw(hist.headroom_mw / adq.MW_PER_GW)} "
            f"balanced={int(hist.balanced)}",
            "bin_low,bin_high,count",
        ]
        for i, count in enumerate(hist.counts):
            lines.append(f"{_r(hist.bin_edges[i])},{_r(hist.bin_edges[i + 1])},{count}")
        hist_files.append(
            _write_atomic(out / f"generation_hist_{label}.csv", "\n".join(lines) + "\n")
        )
    outputs.extend(hist_files)
    outputs.append(_write_json(out / F["adequacy_summary"], summary))
    return outputs


# -- report -------------------------------------------------------------------


def emit_report(results: Mapping[str, object]) -> str:
    """Render a plain-text digest of whichever stage results are present."""
    lines: list[str] = ["shoulder-season analysis report"]
    region = results.get("region")
    if region:
        lines.append(f"region: {region}")
    lines.append("")

    has_content = False

    shoulder_rows = results.get("shoulder") or []
    if shoulder_rows:
        has_content = True
        lines.append("[shoulder windows]")
        metrics = sorted({w.metric for w in shoulder_rows})
        for metric in metrics:
            for season in ("spring", "fall"):
                rows = [w for w in shoulder_rows if w.metric == metric and w.season == season]
                if not rows:
                    continue
                earliest = min(rows, key=lambda w: (w.onset.month, w.onset.day, w.year))
                latest = max(rows, key=lambda w: (w.onset.month, w.onset.day, w.year))
                lines.append(
                    f"{metric} {season}: {len(rows)} years, onsets from "
                    f"{_monthday(earliest.onset)} ({earliest.year}) to "
                    f"{_monthday(latest.onset)} ({latest.year})"
                )
        lines.append("")

    trend_rows = results.get("trends") or []
    if trend_rows:
        has_content = True
        lines.append("[onset trends]")
        for row in trend_rows:
            direction = "earlier" if row["season"] == "spring" else "later"
            excluded = row.get("excluded") or "none"
            lines.append(
                f"{row['metric']} {row['season']}: "
                f"{float(row['slope_days_per_decade']):+.2f} d/decade "
                f"(se {float(row['stderr']):.2f}), "
                f"P({direction}) = {float(row['shift_probability']):.2f}, "
                f"n = {row['n']}, excluded: {excluded}"
            )
        lines.append("")

    corr_rows = results.get("correlations") or []
    if corr_rows:
        has_content = True
        lines.append("[onset correlations, cutoff-filtered]")
        for row in corr_rows:
            lines.append(
                f"{row['season']} {row['x_metric']} vs {row['y_metric']}: "
                f"r = {float(row['r']):.2f} (n = {row['n_used']}, "
                f"excluded {row['excluded_count']}, cutoff {row['cutoff']})"
            )
        lines.append("")

    proj = results.get("projection")
    if proj:
        has_content = True
        lines.append("[projection]")
        lines.append(
            f"bias correction: gain {proj['bias_gain']:.3f}, "
            f"offset {proj['bias_offset']:.3f}"
        )
        lines.append(
            f"onset sensitivity: spring {proj['spring_slope_days_per_c']:+.2f} d/C, "
            f"fall {proj['fall_slope_days_per_c']:+.2f} d/C"
        )
        merged = proj.get("merge_year")
        if merged is None:
            lines.append(
                f"merge year: none within horizon (persistence {proj['persistence']})"
            )
        else:
            lines.append(f"merge year: {merged} (persistence {proj['persistence']})")
        lines.append("")

    adequacy_data = results.get("adequacy")
    if adequacy_data:
        has_content = True
        lines.append("[maintenance adequacy]")
        for row in adequacy_data.get("periods", []):
            lines.append(
                f"{row['label']}: mean outages {adq.format_gw(float(row['mean_outage_gw']))} GW"
            )
        summary = adequacy_data.get("summary", {})
        if "incremental_delta_gw" in summary:
            lines.append(
                "incremental shoulder maintenance: "
                f"{adq.format_gw(float(summary['incremental_delta_gw']))} GW "
                f"(shoulder {adq.format_gw(float(summary['shoulder_mean_gw']))} GW "
                f"vs winter {adq.format_gw(float(summary['winter_mean_gw']))} GW)"
            )
        for row in adequacy_data.get("unmet", []):
            lines.append(
                f"unmet demand {row['month']}: {float(row['pct_unmet']):.2f}% "
                f"(max output {adq.format_gw(float(row['max_output_gw']))} GW, "
                f"extra outages {adq.format_gw(float(row['extra_outage_gw']))} GW)"
            )
        lines.append("")

    if not has_content:
        lines.append("no stages run")
        lines.append("")
    return "\n".join(lines)


def _collect_report_inputs(cfg: RunConfig, out: Path) -> dict[str, object]:
    results: dict[str, object] = {"region": cfg.region_label}
    shoulder_path = out / F["shoulder"]
    if shoulder_path.is_file():
        results["shoulder"] = _read_shoulder(shoulder_path)
    trends_path = out / F["trends"]
    if trends_path.is_file():
        rows = []
        for fields in _read_csv(trends_path, TRENDS_HEADER):
            rows.append(
                dict(
                    zip(
                        (
                            "metric",
                            "season",
                            "slope_days_per_decade",
                            "stderr",
                            "shift_probability",
                            "n",
                            "excluded",
                        ),
                        fields,
                    )
                )
            )
        results["trends"] = rows
    corr_path = out / F["corr"]
    if corr_path.is_file():
        rows = []
        for fields in _read_csv(corr_path, CORR_HEADER):
            rows.append(
                dict(
                    zip(
                        ("season", "x_metric", "y_metric", "r", "n_used", "excluded_count", "cutoff"),
                        fields,
                    )
                )
            )
        results["correlations"] = rows
    proj_path = out / F["proj_summary"]
    if proj_path.is_file():
        results["projection"] = json.loads(proj_path.read_text(encoding="utf-8"))
    periods_path = out / F["periods"]
    if periods_path.is_file():
        periods = [
            dict(zip(("label", "start", "end", "mean_outage_gw", "n_records"), fields))
            for fields in _read_csv(periods_path, "label,start,end,mean_outage_gw,n_records")
        ]
        unmet = []
        unmet_path = out / F["unmet"]
        if unmet_path.is_file():
            unmet = [
                dict(zip(("month", "max_output_gw", "extra_outage_gw", "pct_unmet"), fields))
                for fields in _read_csv(
                    unmet_path, "month,max_output_gw,extra_outage_gw,pct_unmet"
                )
            ]
        summary = {}
        summary_path = out / F["adequacy_summary"]
        if summary_path.is_file():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
        results["adequacy"] = {"periods": periods, "unmet": unmet, "summary": summary}
    return results


def stage_report(cfg: RunConfig, out: Path) -> list[Path]:
    results = _collect_report_inputs(cfg, out)
    return [_write_atomic(out / F["report"], emit_report(results))]


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "thermal": stage_thermal,
    "shoulder": stage_shoulder,
    "trends": stage_trends,
    "project": stage_project,
    "adequacy": stage_adequacy,
    "report": stage_report,
}


def _stages_for_all(cfg: RunConfig) -> list[str]:
    selected = []
    if cfg.load_csv is not None:
        selected.append("ingest")
    if cfg.temperature_grid is not None and cfg.mask_csv is not None:
        selected.append("thermal")
    if selected:
        selected.append("shoulder")
        selected.append("trends")
    if cfg.ensemble_csv is not None and "thermal" in selected:
        selected.append("project")
    if cfg.outage_csv is not None and cfg.load_csv is not None:
        selected.append("adequacy")
    selected.append("report")
    return selected


def run_pipeline(cfg: RunConfig, stages: Sequence[str]) -> dict[str, list[Path]]:
    """Run the requested stages in canonical order; returns written files."""
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stage(s): {', '.join(unknown)}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, list[Path]] = {}
    for stage in STAGES:
        if stage in stages:
            written[stage] = _STAGE_FUNCS[stage](cfg, out)
    return written


# -- command line ---------------------------------------------------------------


_CONFIG_HELP = """\
config file keys (one `key = value` per line, # for comments, paths
relative to the config file; defaults in parentheses):
  region_label (region)        label used in summaries
  load_csv                     hourly load: date,hour,load_mw
  fuel_mix_csv                 15-min mix: timestamp,wind_mw,solar_mw,hydro_mw,other_mw
  outage_csv                   15-min outages: timestamp,outage_mw,telemetered_output_mw
  temperature_grid             lat,lon,date,t2m_c long CSV or .npy raster + .json sidecar
  population_csv               lat,lon,epoch,persons (omit for unweighted temperatures)
  mask_csv                     lat,lon,in_region with 0/1 flags
  ensemble_csv                 member,year,month,t2m_c monthly ensemble means
  window_len (45)              shoulder window length in days
  min_hours (20)               days with fewer hours are excluded from window search
  max_missing_days (3)         absent days tolerated inside a candidate window
  allow_year_wrap (true)       let fall windows reach into the next January
  outlier_policy (none)        none | auto (trim fall degree-day outliers)
  persistence (3)              consecutive overlap years defining the merge
  extra_outage_gw (5.5)        planned-outage increment for the winter deficit table
  adequacy_bin_gw (1.0)        histogram bin width
  adequacy_year (latest)       focus year for outage period averages
  out_dir (out)                output directory
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoulderseason",
        description=(
            "Detect lowest-demand shoulder seasons in load and temperature "
            "series, quantify their drift, project their merge under warming, "
            "and size winter maintenance headroom."
        ),
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stage_help = {
        "ingest": "parse raw load/fuel-mix files and cache daily summaries",
        "thermal": "regional temperatures, demand cubics, reference temperature, degree days",
        "shoulder": "lowest-average window onsets per year, season, and metric",
        "trends": "onset drift regressions, moving averages, and correlations",
        "project": "ensemble bias correction and onset projection with merge year",
        "adequacy": "outage averages, unmet-demand table, generation histograms",
        "report": "plain-text digest of available stage outputs",
        "all": "every stage with configured inputs, in order",
    }
    for name, text in stage_help.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides out_dir in the config)")
        p.add_argument("--verbose", action="store_true", help="list every file written")

    fixture = sub.add_parser("fixture", help="generate the bundled synthetic input set")
    fixture.add_argument("--out", required=True, help="directory for the fixture files")
    fixture.add_argument(
        "--seed", type=int, default=42, help="seed for synthetic-fixture generation"
    )
    fixture.add_argument("--verbose", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "fixture":
            paths = generate_fixture(args.out, seed=args.seed)
            if args.verbose:
                for p in paths:
                    print(p)
            print(f"fixture: wrote {len(paths)} files to {args.out}")
            return 0

        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = Path(args.out)
        stages = _stages_for_all(cfg) if args.command == "all" else [args.command]
        written = run_pipeline(cfg, stages)
        for stage in STAGES:
            if stage not in written:
                continue
            if args.verbose:
                for p in written[stage]:
                    print(p)
            print(f"{stage}: wrote {len(written[stage])} files")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
