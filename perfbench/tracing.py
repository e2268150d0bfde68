"""Spans around the calls into each layer of the package, from outside it.

`Tracer.patched()` replaces module attributes with timing wrappers and
restores them on exit; nothing under `src/` changes. A wrapper records a
span (name, start, end, parent) and any counts its layer reports. The
stage spans come from splitting `cli.run_pipeline` into one call per
stage in canonical order, which writes the same tree as one call with
every stage (the package's stage-isolation test checks this).

Which end-to-end metric each span should move, per workload:
  cli.stage_adequacy self time, adequacy.*: run_s on paper-scale and
    fixture42-rerun; zero on grid-csv, which has no outage feed.
  ingest.*: run_s and rows_per_s on paper-scale and fixture42-rerun.
  thermal.load_temperature_grid: run_s and peak_rss_mb on grid-csv; on
    paper-scale it loads a raster and a CSV-parser change leaves it alone.
  thermal.* reductions and fits: run_s on paper-scale and grid-csv.
  windows.*: run_s on paper-scale and fixture42-rerun.
  trends.*, projection.*: under 1% of every op; measured so a slowdown shows.
  cli.stage_ingest, cli.stage_thermal: fall only on fixture42-rerun once
    up-to-date stages can be skipped.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Callable

from shoulderseason import adequacy, cli, ingest, projection, thermal, trends, windows


def _rows(args, kwargs, result) -> dict[str, int]:
    return {"rows": len(result)}


def _grid_rows(args, kwargs, result) -> dict[str, int]:
    return {"rows": int(result.values.size)}


def _records_offered(args, kwargs, result) -> dict[str, int]:
    outages = args[0] if args else kwargs["outages"]
    return {"records_offered": len(outages)}


# (module, attribute, span name, counter); one span name may cover
# several bindings of the same function.
PATCHES: list[tuple[object, str, str, Callable | None]] = [
    (ingest, "parse_hourly_load", "ingest.parse_hourly_load", _rows),
    (ingest, "parse_fuel_mix", "ingest.parse_fuel_mix", _rows),
    (ingest, "parse_outages", "ingest.parse_outages", _rows),
    (ingest, "net_non_thermal", "ingest.net_non_thermal", None),
    (ingest, "aggregate_daily", "ingest.aggregate_daily", None),
    (ingest, "read_daily_summaries", "ingest.read_daily_summaries", None),
    (thermal, "load_temperature_grid", "thermal.load_temperature_grid", _grid_rows),
    (thermal, "population_weighted_daily_temp", "thermal.population_weighted_daily_temp", None),
    (thermal, "spatial_temp_stddev", "thermal.spatial_temp_stddev", None),
    (thermal, "fit_demand_temperature_cubic", "thermal.fit_demand_temperature_cubic", None),
    (windows, "shoulder_table", "windows.shoulder_table", None),
    # shoulder_table looks min_window up in its module globals.
    (windows, "min_window", "windows.min_window", None),
    (trends, "linear_trend", "trends.linear_trend", None),
    # projection imported its own binding of linear_trend.
    (projection, "linear_trend", "trends.linear_trend", None),
    (projection, "parse_ensemble_csv", "projection.parse_ensemble_csv", None),
    (projection, "ensemble_annual_stats", "projection.ensemble_annual_stats", None),
    (projection, "project_onsets", "projection.project_onsets", None),
    (adequacy, "average_outages", "adequacy.average_outages", _records_offered),
    (adequacy, "generation_histogram", "adequacy.generation_histogram", _records_offered),
    (adequacy, "unmet_demand_fraction", "adequacy.unmet_demand_fraction", None),
    (cli, "load_config", "config.load_config", None),
]


class Tracer:
    """In-memory spans and counts for one or more traced ops."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, name: str, counter: Callable | None, fn: Callable, args, kwargs):
        """Call fn(*args, **kwargs) inside a span; counter adds counts from the call."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
        if counter is not None:
            for key, n in counter(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += n
        return result

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, counter, fn, args, kwargs)

        return traced

    def _staged_run_pipeline(self, run_pipeline: Callable) -> Callable:
        @functools.wraps(run_pipeline)
        def staged(cfg, stages):
            written = {}
            for stage in cli.STAGES:
                if stage in stages:
                    written.update(
                        self.span(f"cli.stage_{stage}", None, run_pipeline, (cfg, [stage]), {})
                    )
            return written

        return staged

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
        saved.append((cli, "run_pipeline", cli.run_pipeline))
        try:
            for module, attr, name, counter in PATCHES:
                setattr(module, attr, self._wrap(name, getattr(module, attr), counter))
            cli.run_pipeline = self._staged_run_pipeline(cli.run_pipeline)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += end - start
            agg["self_s"] += end - start - children
            agg["calls"] += 1
        return out
