"""Benchmark of `shoulderseason all`, end to end and layer by layer.

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py            # every workload, one after another

One closed-loop client runs `all` in-process through `cli.main`, op
after op, until the timed ops add up to `--seconds`. Inputs come from
`--seed` and are written by a separate process, so the measuring
process's peak RSS belongs to the pipeline alone. Every op's output tree
is checked outside the timed region (see verify.py); an op that raises,
returns nonzero or fails a check counts as failed.

With `--trace 0` the result holds the end-to-end metrics. With
`--trace 1` the first half of the time runs untraced ops and the second
half traced ones (see tracing.py), and the result holds the per-layer
metrics, each the median over traced ops. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import verify
import world

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".perfbench-work"

WORKLOADS = {
    "paper-scale": (
        "20x20 daily raster 1959-2022, 27 load years, 5 years of 15-min feeds: "
        "adequacy and ingest do most of the work; the grid CSV parser is bypassed"
    ),
    "grid-csv": (
        "10x10 long-format grid CSV 1990-2022 (1.2M rows), 8 load years, no feeds: "
        "thermal grid loading dominates; adequacy does not run"
    ),
    "fixture42-rerun": (
        "bundled fixture rerun into a populated output directory, window_len 45/30/60: "
        "a sensitivity sweep over cached outputs"
    ),
}
RERUN_WINDOWS = (45, 30, 60)
SETUP_REPEATS = 2
RUN_SECONDS = 12

E2E = {
    "run_s": ("s", "lower", 0.25),
    "rows_per_s": ("rows/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

STAGES = ("ingest", "thermal", "shoulder", "trends", "project", "adequacy", "report")
# Span name -> per-layer fields reported for it (besides `s`).
SPANS = {
    "ingest.parse_hourly_load": ("rows_per_s",),
    "ingest.parse_fuel_mix": ("rows_per_s",),
    "ingest.parse_outages": ("rows_per_s",),
    "ingest.net_non_thermal": (),
    "ingest.aggregate_daily": (),
    "ingest.read_daily_summaries": (),
    "thermal.load_temperature_grid": ("rows_per_s",),
    "thermal.population_weighted_daily_temp": ("calls",),
    "thermal.spatial_temp_stddev": (),
    "thermal.fit_demand_temperature_cubic": ("calls",),
    "windows.shoulder_table": (),
    "windows.min_window": ("calls",),
    "trends.linear_trend": ("calls",),
    "projection.parse_ensemble_csv": (),
    "projection.ensemble_annual_stats": (),
    "projection.project_onsets": (),
    "adequacy.average_outages": ("calls", "records_offered"),
    "adequacy.generation_histogram": ("calls", "records_offered"),
    "adequacy.unmet_demand_fraction": (),
    "config.load_config": (),
}
FIELD_UNITS = {"s": "s", "self_s": "s", "rows_per_s": "rows/s", "calls": "count", "records_offered": "count"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for stage in STAGES:
        units[f"cli.stage_{stage}.s"] = "s"
        units[f"cli.stage_{stage}.self_s"] = "s"
    units["cli.unstaged_s"] = "s"
    units["cli.out_bytes"] = "bytes"
    for span, fields in SPANS.items():
        for name in ("s", *fields):
            units[f"{span}.{name}"] = FIELD_UNITS[name]
    units["proc.cpu_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound) in E2E.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": "higher" if unit == "rows/s" else "lower"}
            for n, unit in per_layer_units().items()
        ],
    }


# -- environment --------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str | None:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None  # benchmark checkouts are not git repositories
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = REPO / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "loadavg_start": _loadavg(),
    }


# -- set-up -------------------------------------------------------------------


def _count_rows(path: Path) -> int:
    """Data rows of an input file: CSV lines after the header, raster cell-days."""
    if path.suffix == ".npy":
        import numpy as np

        return int(np.prod(np.load(path, mmap_mode="r").shape))
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines - 1


@dataclass
class Session:
    """One workload's prepared inputs and what its outputs must be."""

    name: str
    configs: list[Path]
    expect: dict  # config -> verify.Expectation
    fresh: bool  # a new output directory per op, or reruns into one
    input_rows: int
    setup_times: list[float]
    reference_s: float = 0.0
    refs: dict = field(default_factory=dict)  # config -> tree digest
    verdicts: dict = field(default_factory=dict)  # tree sha256 -> errors
    errors: list[str] = field(default_factory=list)  # set-up failures
    primed: Path | None = None


def run_all(config: Path, out: Path) -> list[str]:
    """One `all` op through the command-line entry point; returns failures."""
    from shoulderseason import cli

    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(["all", "--config", str(config), "--out", str(out)])
    except Exception:
        return [f"raised: {traceback.format_exc(limit=3)}"]
    return [] if code == 0 else [f"exit code {code}: {captured.getvalue()[-500:]}"]


def _window_config(base: Path, window_len: int) -> Path:
    text = base.read_text(encoding="utf-8")
    line = "window_len = 45"
    if line not in text.splitlines():
        raise ValueError(f"{base} has no '{line}' line to vary")
    path = base.with_name(f"window{window_len}.conf")
    path.write_text(text.replace(line, f"window_len = {window_len}"), encoding="utf-8")
    return path


def prepare(name: str, seed: int, work: Path) -> Session:
    from shoulderseason import fixtures
    from shoulderseason.config import load_config

    world_dir = work / "world"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "world.py"), "--workload", name, "--seed", str(seed),
             "--out", str(world_dir)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        times.append(time.perf_counter() - start)
    config = Path(proc.stdout.strip().splitlines()[-1])
    inputs = [p for p in world_dir.iterdir() if p.suffix in (".csv", ".npy")]

    fresh = name in world.SPECS
    if fresh:
        spec = world.SPECS[name]
        years = (spec.load_years, spec.feed_years)
        configs = [config]
    else:
        years = (fixtures.LOAD_YEARS, fixtures.OUTAGE_YEARS)
        configs = [_window_config(config, w) for w in RERUN_WINDOWS]
    expect = {}
    for c in configs:
        cfg = load_config(c)
        expect[c] = verify.Expectation(
            load_years=years[0],
            outage_years=years[1],
            window_len=cfg.window_len,
            max_missing=cfg.max_missing_days,
            allow_year_wrap=cfg.allow_year_wrap,
            min_hours=cfg.min_hours,
            golden=not fresh and seed == 42 and cfg.window_len == 45,
        )
    session = Session(name, configs, expect, fresh, sum(map(_count_rows, inputs)), times)
    if not fresh:
        # Fresh-directory runs give each config's reference tree; the first
        # of them primes the directory that timed ops rerun into.
        session.primed = work / "out"
        for i, c in enumerate(configs):
            out = session.primed if i == 0 else work / f"reference{i}"
            start = time.perf_counter()
            session.errors += run_all(c, out)
            session.reference_s += time.perf_counter() - start
            session.errors += check(session, c, out)[0]
    return session


def check(session: Session, config: Path, out: Path) -> tuple[list[str], str]:
    """Verify one output tree; returns its failures and its sha256.

    A tree seen before reuses its verdict. Every tree made with a config
    must equal the first one made with it: for fixture42-rerun that is
    the fresh-directory reference run.
    """
    if not out.is_dir():
        return ["no output directory"], "none"
    digest = verify.tree_digest(out)
    key = verify.tree_sha256(digest)
    if key not in session.verdicts:
        session.verdicts[key] = verify.check_tree(out, session.expect[config])
    errors = list(session.verdicts[key])
    ref = session.refs.setdefault(config, digest)
    if digest != ref:
        changed = sorted(n for n in set(digest) | set(ref) if digest.get(n) != ref.get(n))
        errors.append(f"tree differs from the fresh run with {config.name}: {changed}")
    return errors, key


# -- measurement --------------------------------------------------------------


@dataclass
class Op:
    wall: float
    cpu: float
    errors: list[str]
    tree: str
    layers: dict | None = None


def measure(session: Session, work: Path, budget_s: float, first: int, traced: bool) -> list[Op]:
    """Run ops back to back until their timed walls add up to budget_s."""
    from tracing import Tracer

    ops: list[Op] = []
    spent = 0.0
    while spent < budget_s or not ops:
        n = first + len(ops)
        config = session.configs[n % len(session.configs)]
        out = work / f"op{n}" if session.fresh else session.primed
        tracer = Tracer() if traced else None
        gc.collect()  # start every op from the same heap state
        with tracer.patched() if traced else contextlib.nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            errors = run_all(config, out)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        spent += wall
        failures, tree = check(session, config, out)
        errors += failures
        sizes = sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0
        layers = layer_values(tracer, wall, sizes) if traced else None
        ops.append(Op(wall, cpu, errors, tree, layers))
        if session.fresh:
            shutil.rmtree(out, ignore_errors=True)
    return ops


def layer_values(tracer, wall: float, out_bytes: int) -> dict[str, float]:
    totals = tracer.totals()
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    values: dict[str, float] = {}
    staged = 0.0
    for stage in STAGES:
        t = totals.get(f"cli.stage_{stage}", zero)
        values[f"cli.stage_{stage}.s"] = t["s"]
        values[f"cli.stage_{stage}.self_s"] = t["self_s"]
        staged += t["s"]
    values["cli.unstaged_s"] = wall - staged
    values["cli.out_bytes"] = out_bytes
    for span, fields in SPANS.items():
        t = totals.get(span, zero)
        values[f"{span}.s"] = t["s"]
        for f in fields:
            if f == "rows_per_s":
                rows = tracer.counts[f"{span}.rows"]
                values[f"{span}.rows_per_s"] = rows / t["s"] if t["s"] else 0.0
            elif f == "calls":
                values[f"{span}.calls"] = t["calls"]
            else:
                values[f"{span}.{f}"] = tracer.counts[f"{span}.{f}"]
    return values


def _median_with_tail(values: list[float]) -> tuple[float, str]:
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    pct = int(100 * (1 - 10 / n)) if n >= 20 else None
    if pct is None:
        return med, f"median of n={n}"
    tail = statistics.quantiles(values, n=100)[pct - 1]
    return med, f"median of n={n}, p{pct}={tail:.4f}"


def run_workload(
    session: Session, work: Path, seconds: float, trace: bool, env: dict
) -> tuple[list[str], dict]:
    """Measure a prepared workload; returns report lines and the result object."""
    setup_s = statistics.median(session.setup_times) + session.reference_s

    budget = seconds / 2 if trace else seconds
    plain = measure(session, work, budget, 0, traced=False)
    traced = measure(session, work, budget, len(plain), traced=True) if trace else []
    ops = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env["loadavg_end"] = _loadavg()

    failed = sum(1 for op in ops if op.errors)
    run_s, run_note = _median_with_tail([op.wall for op in plain])
    setup_note = f"median of n={len(session.setup_times)} input generations"
    if session.reference_s:
        setup_note += f" + {session.reference_s:.4f} s of priming and reference runs"
    lines = [
        f"workload {session.name}: {len(ops)} ops, {len(session.configs)} config(s)",
        f"env {json.dumps(env, sort_keys=True)}",
        f"  run_s       = {run_s:.4f} s ({run_note} untraced ops)",
        f"  rows_per_s  = {session.input_rows / run_s:.1f} rows/s "
        f"(n={len(plain)} ops; input {session.input_rows} rows)",
        f"  peak_rss_mb = {peak_rss_mb:.1f} MB (n=1 measuring process)",
        f"  setup_s     = {setup_s:.4f} s ({setup_note})",
        f"  fail_ratio  = {failed / len(ops):.4f} ratio (n={len(ops)} ops, {failed} failed)",
    ]
    for tree in sorted({op.tree for op in ops}):
        lines.append(f"  tree_sha256 = {tree}")
    for error in session.errors:
        lines.append(f"  SETUP FAILURE: {error}")
    for i, op in enumerate(ops):
        for error in op.errors:
            lines.append(f"  OP {i} FAILURE: {error}")

    if trace:
        units = per_layer_units()
        layers = {
            k: statistics.median(op.layers[k] for op in traced) for k in units if k in traced[0].layers
        }
        layers["proc.cpu_s"] = statistics.median(op.cpu for op in plain)
        layers["trace.overhead"] = statistics.median(op.wall for op in traced) / run_s
        lines.append(f"  per-layer: median of n={len(traced)} traced ops")
        for k, unit in units.items():
            lines.append(f"    {k:<50} {layers[k]:>16.6f} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        values = {
            "run_s": run_s,
            "rows_per_s": session.input_rows / run_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": values[k], "unit": E2E[k][0]} for k in E2E}
    return lines, {
        "correct": failed == 0 and not session.errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of shoulderseason all")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "shoulderseason").is_dir():
        print(f"error: no package source under {REPO / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        worst = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd).returncode)
        return worst

    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        env = environment()
        session = prepare(args.workload, args.seed, WORK)
        lines, result = run_workload(session, WORK, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"seed {args.seed}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
