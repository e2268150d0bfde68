"""The share-out of jobs between the process and forked readers."""

from __future__ import annotations

import contextlib
import errno
import os
import pickle
import time
from collections import Counter

import numpy as np
import pytest

from shoulderseason import readers


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pid_jobs(n: int) -> dict[str, readers.Job]:
    return {f"job{i}": os.getpid for i in range(n)}


@pytest.mark.parametrize("n_cpus", [2, 3, 8])
def test_jobs_are_dealt_round_robin_over_two_readers(monkeypatch, n_cpus) -> None:
    _cpus(monkeypatch, n_cpus)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with readers.share_out(_pid_jobs(5)) as inputs:
        pids = [inputs.get(f"job{i}") for i in range(5)]
    # This process takes the first, third and fifth job; one forked child the others.
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1] == pids[3] != os.getpid()
    assert len(forks) == 1


def test_one_job_forks_nothing(monkeypatch) -> None:
    _cpus(monkeypatch, 8)

    def no_fork():
        raise AssertionError("forked for one job")

    monkeypatch.setattr(os, "fork", no_fork)
    with readers.share_out(_pid_jobs(1)) as inputs:
        assert inputs.get("job0") == os.getpid()


def test_results_come_back_whole(monkeypatch) -> None:
    _cpus(monkeypatch, 2)
    table = {"hours": np.arange(100_000).astype("datetime64[h]"), "mw": np.linspace(0.0, 1.0, 7)}
    jobs = {"first": lambda: None, "table": lambda: table}
    with readers.share_out(jobs) as inputs:
        got = inputs.get("table")
    assert got.keys() == table.keys()
    for key in table:
        assert (got[key].dtype, got[key].tobytes()) == (table[key].dtype, table[key].tobytes())


def test_an_error_keeps_its_type_and_text(monkeypatch, tmp_path) -> None:
    _cpus(monkeypatch, 2)

    def bad_value():
        raise ValueError("line 3: bad load_mw value 'oops'")

    def missing():
        return open(tmp_path / "missing.csv", encoding="utf-8")

    jobs = {"in_process": bad_value, "forked": bad_value, "in_process2": missing, "forked2": missing}
    with readers.share_out(jobs) as inputs:
        for key in ("in_process", "forked"):
            with pytest.raises(ValueError, match=r"^line 3: bad load_mw value 'oops'$"):
                inputs.get(key)
        errors = []
        for key in ("in_process2", "forked2"):
            with pytest.raises(FileNotFoundError) as info:
                inputs.get(key)
            errors.append((info.value.errno, info.value.filename, str(info.value)))
    assert errors[0] == errors[1]


def test_a_reader_that_dies_names_its_job(monkeypatch) -> None:
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies():
        if os.getpid() == parent:
            raise AssertionError("run in process")
        os._exit(3)

    with readers.share_out({"mine": os.getpid, "outage_csv": dies}) as inputs:
        message = r"^outage_csv: its reader process exited without a result \(exit code 3\)$"
        with pytest.raises(ChildProcessError, match=message):
            inputs.get("outage_csv")


def test_a_result_the_reader_cannot_write_is_parsed_in_process(monkeypatch, tmp_path) -> None:
    _cpus(monkeypatch, 2)
    runs = tmp_path / "runs"

    def job():
        with open(runs, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return os.getpid()

    def no_room(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pickle, "dump", no_room)  # the reader inherits the patch
    jobs = {"mine": os.getpid, "forked": job, "mine2": os.getpid, "forked2": job}
    with readers.share_out(jobs) as inputs:
        assert inputs.get("forked") == os.getpid()
        assert inputs.get("forked2") == os.getpid()
    # Each forked job ran in the reader, was not written, and ran again here.
    pids = Counter(runs.read_text(encoding="utf-8").split())
    assert pids.pop(str(os.getpid())) == 2
    assert list(pids.values()) == [2]


def test_a_forked_result_is_handed_out_once(monkeypatch) -> None:
    _cpus(monkeypatch, 2)
    with readers.share_out(_pid_jobs(2)) as inputs:
        assert inputs.get("job1") != os.getpid()
        # Asked for again, the job runs in process.
        assert inputs.get("job1") == os.getpid()


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_a_reader_still_running_is_killed(monkeypatch, fail) -> None:
    # The autouse guard in conftest checks that it is reaped too.
    _cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with readers.share_out({"mine": os.getpid, "slow": lambda: time.sleep(60)}):
            if fail:
                raise RuntimeError("a stage failed")
    assert time.perf_counter() - start < 30


def test_one_cpu_forks_nothing(monkeypatch) -> None:
    _cpus(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    with readers.share_out(_pid_jobs(3)) as inputs:
        assert [inputs.get(f"job{i}") for i in range(3)] == [os.getpid()] * 3


def test_jobs_run_in_process_when_no_reader_can_be_forked(monkeypatch) -> None:
    _cpus(monkeypatch, 2)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with readers.share_out(_pid_jobs(3)) as inputs:
        assert [inputs.get(f"job{i}") for i in range(3)] == [os.getpid()] * 3


def _claimed(claim) -> list[int]:
    indices = []
    while (i := claim()) is not None:
        indices.append(i)
    return indices


def _wait_for(path, seconds: float = 10.0) -> None:
    deadline = time.perf_counter() + seconds
    while not path.exists() and time.perf_counter() < deadline:
        time.sleep(0.005)


def test_a_reader_that_reaches_a_shared_job_first_claims_every_part(monkeypatch, tmp_path) -> None:
    _cpus(monkeypatch, 2)
    done = tmp_path / "claimed"

    def tail(claim):
        indices = _claimed(claim)
        done.touch()
        return os.getpid(), indices

    def run(claim, take):
        _wait_for(done)  # the reader has claimed every part
        return _claimed(claim), take()

    jobs = {"job0": os.getpid, "shared": readers.Shared(run, tail, 5), "job1": os.getpid}
    with readers.share_out(jobs) as inputs:
        mine, (pid, theirs) = inputs.get("shared")
        pids = [inputs.get("job0"), inputs.get("job1")]
    assert (mine, theirs) == ([], [4, 3, 2, 1, 0])
    # The shared job is not dealt: the others are, round-robin, as if it were not there.
    assert pids == [os.getpid(), pid] and pid != os.getpid()


def test_a_shared_job_does_not_wait_for_a_reader_that_claimed_no_part(
    monkeypatch, tmp_path
) -> None:
    _cpus(monkeypatch, 2)
    go = tmp_path / "go"

    def tail(claim):
        return os.getpid(), _claimed(claim)

    # The reader reaches the shared job only once the process has asked for it.
    shared = readers.Shared(lambda claim, take: (_claimed(claim), take()), tail, 3)
    jobs = {"job0": os.getpid, "job1": lambda: _wait_for(go), "shared": shared}
    with readers.share_out(jobs) as inputs:
        start = time.perf_counter()
        mine, (pid, theirs) = inputs.get("shared")
        waited = time.perf_counter() - start
        go.touch()
        inputs.get("job1")
    assert (mine, pid, theirs) == ([0, 1, 2], os.getpid(), [])
    assert waited < 5


def test_shared_parts_are_each_claimed_once_from_both_ends(monkeypatch) -> None:
    _cpus(monkeypatch, 2)

    def tail(claim):
        indices = []
        while (i := claim()) is not None:
            indices.append(i)
            time.sleep(0.001)
        return indices

    def run(claim, take):
        time.sleep(0.01)
        return tail(claim), take()

    for _ in range(5):
        with readers.share_out({"shared": readers.Shared(run, tail, 40)}) as inputs:
            mine, theirs = inputs.get("shared")
        # The process's from the front, the reader's from the back.
        assert mine + theirs[::-1] == list(range(40))


@pytest.mark.parametrize("n_cpus, tail", [(1, _claimed), (8, None)], ids=["one-cpu", "no-tail"])
def test_a_shared_job_without_a_reader_runs_whole(monkeypatch, n_cpus, tail) -> None:
    _cpus(monkeypatch, n_cpus)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    shared = readers.Shared(lambda claim, take: (claim, take), tail, 3)
    with readers.share_out({"shared": shared}) as inputs:
        assert inputs.get("shared") == (None, None)


def test_a_shared_side_the_reader_cannot_write_is_read_in_process(monkeypatch, tmp_path) -> None:
    _cpus(monkeypatch, 2)
    done = tmp_path / "claimed"

    def tail(claim):
        indices = _claimed(claim)
        done.touch()
        return os.getpid(), indices

    def run(claim, take):
        _wait_for(done)
        return _claimed(claim), take()

    def no_room(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pickle, "dump", no_room)  # the reader inherits the patch
    with readers.share_out({"shared": readers.Shared(run, tail, 4)}) as inputs:
        # The reader's parts are read again here, from the back.
        assert inputs.get("shared") == ([], (os.getpid(), [3, 2, 1, 0]))
