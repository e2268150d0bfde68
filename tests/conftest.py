from __future__ import annotations

import os
import re
import time
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


@pytest.fixture
def fake_cpus(monkeypatch):
    """fake_cpus(n) makes the host look like n CPUs to the readers, and
    returns a list that grows by one per fork."""

    def fake(n: int) -> list[int]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks: list[int] = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    return fake


@pytest.fixture
def wait_for():
    """wait_for(path) waits until path exists, ten seconds at most: a reader
    touches a file to say how far it got."""

    def wait(path: Path) -> None:
        deadline = time.perf_counter() + 10.0
        while not path.exists() and time.perf_counter() < deadline:
            time.sleep(0.005)

    return wait


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
