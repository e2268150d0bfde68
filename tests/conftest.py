from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from shoulderseason.cli import _stages_for_all, run_pipeline
from shoulderseason.config import load_config
from shoulderseason.fixtures import generate_fixture


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    the pipeline's forked readers must all be gone when run_pipeline returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    state = "still running" if pid == 0 else f"pid {pid}, exited but not reaped"
    pytest.fail(f"the test left a child process behind ({state})")


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fixture")
    generate_fixture(root, seed=42)
    return root


@pytest.fixture(scope="session")
def full_run(fixture_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("full_run")
    cfg = load_config(fixture_dir / "fixture.conf")
    cfg.out_dir = out
    run_pipeline(cfg, _stages_for_all(cfg))
    return out


_CRITERION = re.compile(r"test_criterion_(\d+)_?(\w*)")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines: dict[int, str] = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("skipped", "SKIP")):
        for report in terminalreporter.stats.get(outcome, ""):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            if outcome == "passed" and report.when != "call":
                continue
            match = _CRITERION.search(nodeid)
            if not match:
                continue
            number = int(match.group(1))
            name = match.group(2).replace("_", " ")
            lines[number] = f"criterion {number:2d} [{label}] {name}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
