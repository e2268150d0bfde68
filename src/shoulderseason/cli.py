"""Pipeline orchestration and command-line entry point.

Stages run in the fixed order ingest -> thermal -> shoulder ->
trends/project/adequacy -> report. Each returns its outputs; run_pipeline
writes them, each atomically, and hands later stages the typed tables they
read, which a stage run alone reads from the output directory; readers says
which process parses which CSV input. Rerunning with identical inputs and
config reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import astuple, fields, replace
from datetime import date, timedelta
from pathlib import Path
from typing import IO, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import adequacy as adq
from . import ingest, projection, readers, thermal, trends, windows
from .config import RunConfig, load_config
from .fixtures import generate_fixture
from .tables import (
    format_table,
    parse_date,
    parse_float,
    parse_int,
    parse_text,
    read_rows,
    write_atomic,
)

SPRING_CUTOFF = date(2000, 2, 14)
FALL_CUTOFF = date(2000, 11, 25)

HIST_LABELS = (
    "january", "december", "operator_spring", "operator_fall", "min_peak_spring", "min_peak_fall"
)

# Headers shared by two outputs, and the column converters of their readers.
SHOULDER_HEADER = "year,season,metric,onset_date,onset_doy,window_mean,days_used"
SHOULDER_COLUMNS = (parse_int, parse_text, parse_text, parse_date, parse_int, parse_float, parse_int)
TRENDS_HEADER = "metric,season,slope_days_per_decade,stderr,shift_probability,n,excluded"
TRENDS_COLUMNS = (parse_text, parse_text, parse_float, parse_float, parse_float, parse_int, parse_text)
CORR_HEADER = "season,x_metric,y_metric,r,n_used,excluded_count,cutoff"
CORR_COLUMNS = (parse_text, parse_text, parse_text, parse_float, parse_int, parse_int, parse_text)


class Output(NamedTuple):
    """An output file: its name, the CSV header of a table, read(file, header) if read back."""

    name: str
    header: str | None = None
    read: Callable[[IO[str], str], object] | None = None


# Every output, in the order of the stages that write it. Each reader looks
# its parser up when called.
OUTPUTS: dict[str, Output] = {
    "daily": Output(
        "daily_load.csv", ingest.DAILY_HEADER, lambda fh, _: ingest.read_daily_summaries(fh)
    ),
    "daily_net": Output(
        "daily_load_net.csv", ingest.DAILY_HEADER, lambda fh, _: ingest.read_daily_summaries(fh)
    ),
    "temp_daily": Output("region_temp_daily.csv", "date,t_avg_c"),
    "temp_annual": Output(
        "annual_temp_unweighted.csv",
        "year,t_mean_c",
        lambda fh, h: dict(read_rows(fh, h, parse_int, parse_float)),
    ),
    "cubic": Output("cubic_fits.csv", "year,a1,a2,a3,a4,t0,t_min,t_max"),
    "dd": Output("degree_days.csv", "date,dd_c", lambda fh, h: ingest.read_daily_series(fh, h)),
    "thermal_summary": Output("thermal_summary.json"),
    "shoulder": Output("shoulder_windows.csv", SHOULDER_HEADER, lambda fh, _: _windows(fh)),
    "shoulder_net": Output("shoulder_windows_net.csv", SHOULDER_HEADER, lambda fh, _: _windows(fh)),
    "trends": Output(
        "onset_trends.csv", TRENDS_HEADER, lambda fh, h: read_rows(fh, h, *TRENDS_COLUMNS)
    ),
    "trends_net": Output("onset_trends_net.csv", TRENDS_HEADER),
    "movavg": Output("onset_moving_avg.csv", "metric,season,year,onset_doy,smoothed_doy"),
    "fitlines": Output("trend_fit_lines.csv", "metric,season,year,fit_doy,ci_low,ci_high"),
    "corr": Output(
        "onset_correlations.csv", CORR_HEADER, lambda fh, h: read_rows(fh, h, *CORR_COLUMNS)
    ),
    "corr_net": Output("onset_correlations_net.csv", CORR_HEADER),
    "corr_points": Output(
        "correlation_points.csv", "season,y_metric,year,x_onset_doy,y_onset_doy,included"
    ),
    "temp_path": Output("temperature_path.csv", "year,source,t_c,lo,hi"),
    "onset_temp": Output("onset_vs_temp_points.csv", "season,year,t_c,onset_doy"),
    "proj": Output("onset_projection.csv", "year,season,predicted_onset_doy,ci_low,ci_high"),
    "proj_summary": Output("projection_summary.json", read=lambda fh, _: json.load(fh)),
    "merge": Output("merge_summary.txt"),
    "periods": Output(
        "outage_periods.csv",
        "label,start,end,mean_outage_gw,n_records",
        lambda fh, h: read_rows(fh, h, parse_text, parse_date, parse_date, parse_float, parse_int),
    ),
    "unmet": Output(
        "unmet_demand.csv",
        "month,max_output_gw,extra_outage_gw,pct_unmet",
        lambda fh, h: read_rows(fh, h, parse_text, parse_float, parse_float, parse_float),
    ),
    "adequacy_summary": Output("adequacy_summary.json", read=lambda fh, _: json.load(fh)),
    "report": Output("report.txt"),
    **{f"hist_{label}": Output(f"generation_hist_{label}.csv") for label in HIST_LABELS},
}
F = {key: output.name for key, output in OUTPUTS.items()}

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _monthday(d: date) -> str:
    return f"{_MONTHS[d.month - 1]} {d.day:02d}"


# -- stages -------------------------------------------------------------------
#
# Each stage takes the config and the run's Tables, which hold its inputs
# (checked by run_pipeline against STAGES), and returns its outputs by key of
# OUTPUTS, in the order run_pipeline writes them.


def stage_ingest(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    hourly = tables["load_csv"]
    outputs = {"daily": ingest.aggregate_daily(hourly)}  # while a reader may parse the fuel mix
    if cfg.fuel_mix_csv is not None and len(mix := tables["fuel_mix_csv"]):
        # Netting applies to the days the fuel-mix feed spans: a slice
        # of the sorted load hours, which copies nothing.
        first, last = mix.hours[[0, -1]].astype("datetime64[D]")
        span = np.array([first, last + 1], "datetime64[h]")
        lo, hi = np.searchsorted(hourly.hours, span)
        outputs["daily_net"] = ingest.aggregate_daily(ingest.net_non_thermal(hourly[lo:hi], mix))
    return outputs


def stage_thermal(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    grid = tables["temperature_grid"]
    # An hourly grid collapses to daily cell means once, for every reduction below.
    times, values = thermal.daily_cell_means(grid)
    grid = thermal.attach_mask(replace(grid, times=times, values=values), tables["mask_csv"])
    pop = tables["population_csv"] if cfg.population_csv is not None else None

    temps_weighted = thermal.population_weighted_daily_temp(grid, pop)
    temps_unweighted = thermal.population_weighted_daily_temp(grid, None)
    peaks = tables["daily"].series("peak_demand", cfg.min_hours)

    # (temperature, peak demand) of each load day with a regional temperature
    temps = temps_weighted.window(peaks.first, len(peaks))
    paired = ~np.isnan(peaks.values) & ~np.isnan(temps)
    years = ingest.to_years(peaks.days[paired])
    temps, peak_mw = temps[paired], peaks.values[paired]

    fits: list[thermal.CubicDemandFit] = []
    skipped: list[int] = []
    for year in np.unique(years).tolist():
        t, d = temps[years == year], peak_mw[years == year]
        # A year is skipped when its cubic cannot be fitted (fewer than 4
        # distinct temperatures) or has no minimum inside its range.
        try:
            fit = thermal.fit_demand_temperature_cubic(zip(t.tolist(), d.tolist()), year=year)
            fits.append(replace(fit, t0=thermal.reference_temperature(fit)))
        except ValueError:
            skipped.append(year)
    if not fits:
        raise ValueError(
            "no year produced a demand-temperature cubic with an interior "
            f"minimum (years considered: {np.unique(years).tolist()})"
        )
    t0_global = thermal.global_t0([f.t0 for f in fits])
    dd = thermal.degree_day_series(temps_weighted, t0_global)
    return {
        "temp_daily": temps_weighted,
        "temp_annual": thermal.annual_means(temps_unweighted),
        "cubic": ((f.year, f.a1, f.a2, f.a3, f.a4, f.t0, *f.fit_range) for f in fits),
        "dd": dd,
        "thermal_summary": {
            "region": cfg.region_label,
            "t0_global_c": t0_global,
            "spatial_std_c": thermal.spatial_temp_stddev(grid),
            "fit_years": [f.year for f in fits],
            "skipped_fit_years": skipped,
            "population_weighted": pop is not None,
        },
    }


def stage_shoulder(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    searches = {"shoulder": (tables.get("dd"), tables.get("daily"))}
    if "daily_net" in tables:
        searches["shoulder_net"] = (None, tables["daily_net"])
    return {
        key: windows.shoulder_table(
            degree_day_series=series,
            load_summaries=load,
            window_len=cfg.window_len,
            max_missing=cfg.max_missing_days,
            allow_year_wrap=cfg.allow_year_wrap,
            min_hours=cfg.min_hours,
        )
        for key, (series, load) in searches.items()
    }


def _onsets_by_year(
    rows: Sequence[windows.ShoulderWindow], metric: str, season: str
) -> dict[int, date]:
    return {w.year: w.onset for w in rows if w.metric == metric and w.season == season}


def _trend_rows(
    cfg: RunConfig, rows: Sequence[windows.ShoulderWindow]
) -> tuple[list[tuple], list[tuple]]:
    """Trend table rows, and (metric, season, onset day by year, trend) per row."""
    table = []
    fits = []
    for metric in sorted({w.metric for w in rows}):
        for season in ("spring", "fall"):
            onsets = _onsets_by_year(rows, metric, season)
            if len(onsets) < 3:
                continue
            points = {year: float(trends.day_of_year(d)) for year, d in onsets.items()}
            auto = cfg.outlier_policy == "auto" and (metric, season) == ("degree_days", "fall")
            direction = trends.SHIFT_DIRECTION[season]
            result = trends.linear_trend(points.items(), direction=direction, auto_exclude=auto)
            excluded = ";".join(str(int(x)) for x, _ in result.excluded_points)
            table.append(
                (
                    metric,
                    season,
                    result.slope_per_decade,
                    result.stderr_per_decade,
                    result.shift_probability,
                    result.n,
                    excluded,
                )
            )
            fits.append((metric, season, points, result))
    return table, fits


def _correlation_rows(
    dd_rows: Sequence[windows.ShoulderWindow],
    load_rows: Sequence[windows.ShoulderWindow],
) -> tuple[list[tuple], list[tuple]]:
    corr_rows = []
    point_rows = []
    for season, cutoff in (("spring", SPRING_CUTOFF), ("fall", FALL_CUTOFF)):
        x = _onsets_by_year(dd_rows, "degree_days", season)
        for y_metric in ("total_energy", "peak_demand"):
            y = _onsets_by_year(load_rows, y_metric, season)
            years = sorted(set(x) & set(y))
            kept_x, kept_y = [], []
            for year in years:
                x_doy, y_doy = trends.day_of_year(x[year]), trends.day_of_year(y[year])
                included = trends.within_cutoff(x[year], season, cutoff)
                point_rows.append((season, y_metric, year, x_doy, y_doy, int(included)))
                if included:
                    kept_x.append(x_doy)
                    kept_y.append(y_doy)
            try:
                r = trends.pearson(kept_x, kept_y)
            except ValueError:
                continue  # too few kept pairs or no variance; points are still emitted
            excluded = len(years) - len(kept_x)
            corr_rows.append(
                (season, "degree_days", y_metric, r, len(kept_x), excluded, _monthday(cutoff))
            )
    return corr_rows, point_rows


def stage_trends(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    rows = tables["shoulder"]
    trend_rows, fits = _trend_rows(cfg, rows)
    movavg_rows = []
    fit_rows = []
    for metric, season, points, result in fits:
        smoothed = dict(trends.moving_average(points.items()))
        for year in sorted(points):
            movavg_rows.append((metric, season, year, points[year], smoothed[year]))
        for year, fit, lo, hi in trends.confidence_band(result, sorted(points)):
            fit_rows.append((metric, season, int(year), fit, lo, hi))
    outputs: dict[str, object] = {"trends": trend_rows, "movavg": movavg_rows, "fitlines": fit_rows}

    dd_rows = [w for w in rows if w.metric == "degree_days"]
    load_rows = [w for w in rows if w.metric != "degree_days"]
    if dd_rows and load_rows:
        outputs["corr"], outputs["corr_points"] = _correlation_rows(dd_rows, load_rows)

    if "shoulder_net" in tables:
        net_rows = tables["shoulder_net"]
        outputs["trends_net"] = _trend_rows(cfg, net_rows)[0]
        if dd_rows:
            outputs["corr_net"] = _correlation_rows(dd_rows, net_rows)[0]
    return outputs


def stage_project(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    annual, rows = tables["temp_annual"], tables["shoulder"]
    onsets = {s: _onsets_by_year(rows, "degree_days", s) for s in ("spring", "fall")}
    if not onsets["spring"] or not onsets["fall"]:
        raise ValueError(
            "project stage needs degree-day shoulder windows; "
            "run thermal and shoulder with a temperature grid"
        )

    stats = projection.ensemble_annual_stats(tables["ensemble_csv"])
    correction = projection.fit_bias_correction(annual, stats)
    path = [
        (e.year, correction.apply(e.ensemble_mean_c), abs(correction.gain) * e.ensemble_std_c)
        for e in stats
    ]

    # The (season, year, temperature, onset day) rows of the points file,
    # which both onset-temperature lines are fitted from.
    onset_temp_rows = [
        (season, year, annual[year], trends.day_of_year(by_year[year]))
        for season, by_year in onsets.items()
        for year in sorted(set(by_year) & set(annual))
    ]
    pairs = {s: [(t, doy) for season, _, t, doy in onset_temp_rows if season == s] for s in onsets}
    lines = {s: projection.onset_vs_temperature(pairs[s], s) for s in onsets}
    spring_proj, fall_proj = projection.project_onsets(lines["spring"], lines["fall"], path)
    merged = projection.merge_year(spring_proj, fall_proj, persistence=cfg.persistence)

    path_rows = [(year, "observed", t, None, None) for year, t in sorted(annual.items())]
    for e, (_, corrected, sigma) in zip(stats, path):
        path_rows.append((e.year, "ensemble_raw", e.ensemble_mean_c, None, None))
        path_rows.append(
            (e.year, "ensemble_corrected", corrected, corrected - 2 * sigma, corrected + 2 * sigma)
        )
    proj_rows = [
        (p.year, season, p.predicted_onset, p.ci_low, p.ci_high)
        for season, seq in (("spring", spring_proj), ("fall", fall_proj))
        for p in seq
    ]
    return {
        "temp_path": path_rows,
        "onset_temp": onset_temp_rows,
        "proj": proj_rows,
        "merge": f"merge_year,{merged if merged is not None else 'none'}\n",
        "proj_summary": {
            "bias_gain": correction.gain,
            "bias_offset": correction.offset,
            "merge_year": merged,
            "persistence": cfg.persistence,
            "n_ensemble_years": len(stats),
            "spring_slope_days_per_c": lines["spring"].slope,
            "fall_slope_days_per_c": lines["fall"].slope,
        },
    }


def _periods(year: int) -> dict[str, list[tuple[date, date]]]:
    """The named date ranges of one year that outages are averaged over."""
    january = (date(year, 1, 1), date(year, 1, 31))
    spring = (date(year, 3, 15), date(year, 5, 1))
    fall = (date(year, 10, 15), date(year, 11, 30))
    december = (date(year, 12, 1), date(year, 12, 31))
    return {
        "january": [january],
        "march2_april15": [(date(year, 3, 2), date(year, 4, 15))],
        "operator_spring": [spring],
        "operator_fall": [fall],
        "december": [december],
        "winter_span": [(date(year, 12, 31), date(year + 1, 2, 13))],
        "shoulder_combined": [spring, fall],
        "winter_combined": [january, december],
    }


def stage_adequacy(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    outages = tables["outage_csv"]
    if not len(outages):
        raise ValueError(f"outage file {cfg.outage_csv} has no data rows")
    hourly, shoulder_rows = tables["load_csv"], tables["shoulder"]

    years = ingest.to_years(outages.timestamps)
    outage_years = np.unique(years).tolist()
    focus_year = cfg.adequacy_year if cfg.adequacy_year is not None else outage_years[-1]

    # A period, month or histogram whose kernel refuses its records is left out.
    period_stats: dict[str, adq.PeriodOutageStat] = {}
    for label, ranges in _periods(focus_year).items():
        with suppress(ValueError):
            period_stats[label] = adq.average_outages(outages, ranges, label=label)

    summary: dict[str, object] = {"focus_year": focus_year}
    if "shoulder_combined" in period_stats and "winter_combined" in period_stats:
        shoulder = summary["shoulder_mean_gw"] = period_stats["shoulder_combined"].mean_outage_gw
        winter = summary["winter_mean_gw"] = period_stats["winter_combined"].mean_outage_gw
        summary["incremental_delta_gw"] = adq.incremental_maintenance_delta(shoulder, winter)

    # Winter unmet-demand table: December and January of each covered year.
    extra_gw = float(cfg.extra_outage_gw)
    extra_mw = extra_gw * adq.MW_PER_GW
    unmet_rows = []
    for year in outage_years:
        for label in ("january", "december"):
            days = _periods(year)[label]
            telem = outages.telemetered_output_mw[adq.period_mask(outages.timestamps, days)]
            telem = telem[~np.isnan(telem)]
            demand = hourly.load_mw[adq.period_mask(hourly.hours, days)]
            with suppress(ValueError):
                # The running maximum starts at 0.0; adding 0.0 turns -0.0 into it.
                max_output = float(telem.max()) + 0.0
                pct_unmet = adq.unmet_demand_fraction(demand, max_output, extra_mw)
                month = f"{year}-{days[0][0].month:02d}"
                unmet_rows.append((month, max_output / adq.MW_PER_GW, extra_gw, pct_unmet))

    # Pooled generation histograms across all outage years.
    hist_specs = [
        (label, [r for y in outage_years for r in _periods(y)[label]])
        for label in HIST_LABELS[:4]
    ]
    for season in ("spring", "fall"):
        ranges = [
            (w.onset, w.onset + timedelta(days=cfg.window_len - 1))
            for w in shoulder_rows
            if w.metric == "peak_demand" and w.season == season and w.year in outage_years
        ]
        hist_specs.append((f"min_peak_{season}", ranges))

    bin_mw = cfg.adequacy_bin_gw * adq.MW_PER_GW
    periods = [astuple(stat) for stat in period_stats.values()]
    outputs: dict[str, object] = {"periods": periods, "unmet": unmet_rows}
    for label, ranges in hist_specs:
        try:
            demand = hourly.load_mw[adq.period_mask(hourly.hours, ranges)]
            # The first maximum in file order, as max() picks among 0.0 and -0.0.
            peak = float(demand[demand.argmax()])
            hist = adq.generation_histogram(outages, ranges, bin_mw, peak_demand_mw=peak)
        except ValueError:
            continue
        header = (
            f"# peak_demand_gw={adq.format_gw(hist.peak_demand_mw / adq.MW_PER_GW)} "
            f"max_output_gw={adq.format_gw(hist.max_output_mw / adq.MW_PER_GW)} "
            f"headroom_gw={adq.format_gw(hist.headroom_mw / adq.MW_PER_GW)} "
            f"balanced={int(hist.balanced)}\nbin_low,bin_high,count"
        )
        rows = zip(hist.bin_edges, hist.bin_edges[1:], hist.counts)
        outputs[f"hist_{label}"] = format_table(header, rows)
    outputs["adequacy_summary"] = summary
    return outputs


# -- report -------------------------------------------------------------------


def emit_report(results: Mapping[str, object]) -> str:
    """Render a plain-text digest of the stage results present, keyed as in OUTPUTS.

    A table is its typed rows in file column order; a summary, its JSON object.
    """
    lines: list[str] = ["shoulder-season analysis report"]
    region = results.get("region")
    if region:
        lines.append(f"region: {region}")
    lines.append("")
    n_header = len(lines)

    shoulder_rows = results.get("shoulder") or []
    if shoulder_rows:
        lines.append("[shoulder windows]")
        for metric in sorted({w.metric for w in shoulder_rows}):
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
        lines.append("[onset trends]")
        for metric, season, slope, stderr, probability, n, excluded in trend_rows:
            direction = trends.SHIFT_DIRECTION[season]
            lines.append(
                f"{metric} {season}: {slope:+.2f} d/decade (se {stderr:.2f}), "
                f"P({direction}) = {probability:.2f}, n = {n}, excluded: {excluded or 'none'}"
            )
        lines.append("")

    corr_rows = results.get("corr") or []
    if corr_rows:
        lines.append("[onset correlations, cutoff-filtered]")
        for season, x_metric, y_metric, r, n_used, excluded_count, cutoff in corr_rows:
            lines.append(
                f"{season} {x_metric} vs {y_metric}: r = {r:.2f} (n = {n_used}, "
                f"excluded {excluded_count}, cutoff {cutoff})"
            )
        lines.append("")

    proj = results.get("proj_summary")
    if proj:
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
        merged_text = "none within horizon" if merged is None else merged
        lines.append(f"merge year: {merged_text} (persistence {proj['persistence']})")
        lines.append("")

    if "periods" in results:  # the adequacy stage writes its three files together
        lines.append("[maintenance adequacy]")
        for label, _, _, mean_outage_gw, _ in results["periods"]:
            lines.append(f"{label}: mean outages {adq.format_gw(mean_outage_gw)} GW")
        summary = results.get("adequacy_summary", {})
        if "incremental_delta_gw" in summary:
            lines.append(
                "incremental shoulder maintenance: "
                f"{adq.format_gw(summary['incremental_delta_gw'])} GW "
                f"(shoulder {adq.format_gw(summary['shoulder_mean_gw'])} GW "
                f"vs winter {adq.format_gw(summary['winter_mean_gw'])} GW)"
            )
        for month, max_output_gw, extra_outage_gw, pct_unmet in results.get("unmet", []):
            lines.append(
                f"unmet demand {month}: {pct_unmet:.2f}% "
                f"(max output {adq.format_gw(max_output_gw)} GW, "
                f"extra outages {adq.format_gw(extra_outage_gw)} GW)"
            )
        lines.append("")

    if len(lines) == n_header:
        lines.append("no stages run")
        lines.append("")
    return "\n".join(lines)


def stage_report(cfg: RunConfig, tables: Tables) -> dict[str, object]:
    # The tables it digests that a stage wrote, in this run or an earlier one.
    reported = ("shoulder", "trends", "corr", "proj_summary", "periods", "unmet", "adequacy_summary")
    results = {key: tables[key] for key in reported if tables.cached(key)}
    return {"report": emit_report({"region": cfg.region_label, **results})}


def _windows(source: IO[str]) -> list[windows.ShoulderWindow]:
    """The shoulder windows of a shoulder table (all but its onset_doy column)."""
    rows = read_rows(source, SHOULDER_HEADER, *SHOULDER_COLUMNS)
    return [windows.ShoulderWindow(*row[:4], *row[5:]) for row in rows]


class Tables(dict):
    """The typed tables of one run_pipeline call: each parsed CSV input by its
    config key, and each output with a reader that a stage returned. One not held
    is taken on first use from the run's readers, or read from its file (which
    round-trips every value)."""

    def __init__(self, out: Path, inputs: readers.Readers) -> None:
        super().__init__()
        self.out, self.inputs = out, inputs

    def __missing__(self, key: str):
        if key in self.inputs:
            value = self[key] = self.inputs.get(key)
        elif self.cached(key):
            with open(self.out / F[key], encoding="utf-8") as fh:
                value = self[key] = OUTPUTS[key].read(fh, OUTPUTS[key].header)
        else:
            raise ValueError(f"missing {F[key]}; run the {_PRODUCER[key]} stage first")
        return value

    def cached(self, key: str) -> bool:
        """Whether the output's file exists, written in this run or an earlier one."""
        return (self.out / F[key]).is_file()


def _format(key: str, value: object) -> str:
    """The text of an output: text as is, a value without a header as JSON,
    a day table through its format, and a dict's items or typed rows as a table."""
    header = OUTPUTS[key].header
    if isinstance(value, str):
        return value
    if header is None:
        return json.dumps(value, sort_keys=True, indent=1) + "\n"
    if isinstance(value, (ingest.DailySeries, ingest.DailyLoad)):
        return value.format(header)
    if header == SHOULDER_HEADER:  # each window with its onset's day of year after the onset
        value = (
            (w.year, w.season, w.metric, w.onset, trends.day_of_year(w.onset))
            + (w.window_mean, w.days_used)
            for w in value
        )
    return format_table(header, value.items() if isinstance(value, dict) else value)


# -- the stage table -----------------------------------------------------------


class Stage(NamedTuple):
    """What a stage runs, what it needs from the config and the cache, and what it writes."""

    help: str
    run: Callable[[RunConfig, Tables], dict[str, object]]
    needs: tuple[str, ...] = ()  # config keys it requires
    reads: tuple[str, ...] = ()  # optional config keys it reads
    # Keys of OUTPUTS it reads, from the stages that own them. The tables the report
    # finds are not listed.
    inputs: tuple[str, ...] = ()
    netted: tuple[str, ...] = ()  # keys of OUTPUTS it reads when fuel_mix_csv is set, if written
    # Keys of OUTPUTS it writes. A stage deletes the owned files it did not write
    # this time, and `all` deletes those of the stages it does not run, so no
    # output of an earlier configuration outlives a rerun.
    owns: tuple[str, ...] = ()


# The pipeline, in run order.
STAGES: dict[str, Stage] = {
    "ingest": Stage(
        "parse raw load/fuel-mix files and cache daily summaries",
        stage_ingest,
        needs=("load_csv",),
        reads=("fuel_mix_csv",),
        owns=("daily", "daily_net"),
    ),
    "thermal": Stage(
        "regional temperatures, demand cubics, reference temperature, degree days",
        stage_thermal,
        needs=("temperature_grid", "mask_csv"),
        reads=("population_csv",),
        inputs=("daily",),
        owns=("temp_daily", "temp_annual", "cubic", "dd", "thermal_summary"),
    ),
    "shoulder": Stage(
        "lowest-average window onsets per year, season, and metric",
        stage_shoulder,
        inputs=("daily", "dd"),
        netted=("daily_net",),
        owns=("shoulder", "shoulder_net"),
    ),
    "trends": Stage(
        "onset drift regressions, moving averages, and correlations",
        stage_trends,
        inputs=("shoulder",),
        netted=("shoulder_net",),
        owns=("trends", "trends_net", "movavg", "fitlines", "corr", "corr_net", "corr_points"),
    ),
    "project": Stage(
        "ensemble bias correction and onset projection with merge year",
        stage_project,
        needs=("ensemble_csv",),
        inputs=("temp_annual", "shoulder"),
        owns=("temp_path", "onset_temp", "proj", "proj_summary", "merge"),
    ),
    "adequacy": Stage(
        "outage averages, unmet-demand table, generation histograms",
        stage_adequacy,
        needs=("outage_csv", "load_csv"),
        inputs=("shoulder",),
        owns=("periods", "unmet", "adequacy_summary", *(f"hist_{x}" for x in HIST_LABELS)),
    ),
    "report": Stage("plain-text digest of available stage outputs", stage_report, owns=("report",)),
}


# The stage that owns each output.
_PRODUCER = {key: name for name, stage in STAGES.items() for key in stage.owns}


def _selection(cfg: RunConfig) -> dict[str, str | None]:
    """Per stage in run order: None if the config selects it, else a key that would.

    A stage with required keys is selected when one of its own keys is
    set: a key it needs or reads that no earlier stage declares (adequacy
    needs load_csv, but that key selects ingest). A stage without keys is
    selected when a stage it reads is, and the report always is.
    """
    selection: dict[str, str | None] = {}
    declared: set[str] = set()
    for name, stage in STAGES.items():
        own = {*stage.needs, *stage.reads} - declared
        declared |= own
        if stage.needs:
            selected = any(getattr(cfg, key) is not None for key in own)
            selection[name] = None if selected else stage.needs[0]
        else:
            upstream = [selection[_PRODUCER[key]] for key in stage.inputs]
            selected = not upstream or None in upstream
            selection[name] = None if selected else " or ".join(dict.fromkeys(upstream))
    return selection


def _check_config(cfg: RunConfig, name: str, selection: Mapping[str, str | None]) -> None:
    """Raise unless the config gives the stage its keys and the stages it reads."""
    stage = STAGES[name]
    unset = [key for key in stage.needs if getattr(cfg, key) is None]
    # A stage with required keys reads every stage it lists; one without
    # reads those of them that are selected, and needs one.
    unset += [selection[_PRODUCER[k]] for k in stage.inputs] if stage.needs else [selection[name]]
    key = next(filter(None, unset), None)
    if key is not None:
        raise ValueError(f"config key {key}: required for the {name} stage")


def _stages_for_all(cfg: RunConfig) -> list[str]:
    """The stages `all` runs; raises, before any runs, if one of them cannot."""
    selection = _selection(cfg)
    selected = [name for name, key in selection.items() if key is None]
    for name in selected:
        _check_config(cfg, name, selection)
    return selected


def _remove_outputs(out: Path, stages: Sequence[str], keep: Sequence[Path] = ()) -> None:
    """Delete the files the stages own, except those in keep."""
    for stage in stages:
        for key in STAGES[stage].owns:
            if out / F[key] not in keep:
                (out / F[key]).unlink(missing_ok=True)


def run_pipeline(cfg: RunConfig, stages: Sequence[str]) -> dict[str, list[Path]]:
    """Run the requested stages in run order, checking each against STAGES first."""
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stage(s): {', '.join(unknown)}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    selection = _selection(cfg)
    # Each config key the stages read, in order of first use, to its last reader.
    last_use = {
        key: name
        for name, stage in STAGES.items()
        if name in stages
        for key in (*stage.needs, *stage.reads)
    }
    jobs = readers.input_jobs(cfg, last_use)
    written: dict[str, list[Path]] = {}
    with readers.share_out(jobs) as inputs:
        tables = Tables(out, inputs)
        for name, stage in STAGES.items():
            if name not in stages:
                continue
            _check_config(cfg, name, selection)
            needed = [key for key in stage.inputs if selection[_PRODUCER[key]] is None]
            if cfg.fuel_mix_csv is not None:
                needed += [key for key in stage.netted if tables.cached(key)]
            # Read before the stage runs: it finds an input it may lack with get().
            tables.update({key: tables[key] for key in needed})
            outputs = stage.run(cfg, tables)
            for key in [key for key in jobs if last_use[key] == name]:
                tables.pop(key, None)
            paths = written[name] = []
            for key, value in outputs.items():  # formatted and written one at a time
                paths.append(write_atomic(out / F[key], _format(key, value)))
                if OUTPUTS[key].read is not None:  # a later stage may read it
                    tables[key] = value
            _remove_outputs(out, [name], keep=paths)
    return written


# -- command line ---------------------------------------------------------------


def _config_help() -> str:
    """The config key reference of `--help`, one line per RunConfig field."""
    lines = [
        "config file keys (one `key = value` per line, # for comments, paths",
        "relative to the config file; defaults in parentheses):",
    ]
    for f in fields(RunConfig):
        # The default as a config file spells it: `true`, `45`, `out`.
        default = str(f.default).lower() if isinstance(f.default, bool) else f.default
        key = f.name if f.default is None else f"{f.name} ({default})"
        lines.append(f"  {key:<28} {f.metadata['help']}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoulderseason",
        description=(
            "Detect lowest-demand shoulder seasons in load and temperature "
            "series, quantify their drift, project their merge under warming, "
            "and size winter maintenance headroom."
        ),
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stage_help = {name: stage.help for name, stage in STAGES.items()}
    stage_help["all"] = "every stage with configured inputs, in order"
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
        stages = [args.command]
        if args.command == "all":
            stages = _stages_for_all(cfg)
            _remove_outputs(Path(cfg.out_dir), [s for s in STAGES if s not in stages])
        for stage, paths in run_pipeline(cfg, stages).items():
            if args.verbose:
                for p in paths:
                    print(p)
            print(f"{stage}: wrote {len(paths)} files")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
