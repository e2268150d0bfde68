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
from shoulderseason.readers import Job, whole


def _pid_jobs(n: int) -> dict[str, Job]:
    return {f"job{i}": whole(os.getpid) for i in range(n)}


def _claimed(claim) -> list[int]:
    indices = []
    while (i := claim()) is not None:
        indices.append(i)
    return indices


@contextlib.contextmanager
def _after_the_reader(jobs: dict[str, Job], tmp_path, wait_for):
    """share_out(jobs), entered once the reader has gone through every job."""
    done = tmp_path / "reader-done"
    with readers.share_out({**jobs, "done": whole(done.touch)}) as inputs:
        wait_for(done)
        yield inputs


@pytest.mark.parametrize("n_cpus", [2, 3, 8])
def test_a_reader_claims_every_job_it_reaches_first(
    fake_cpus, tmp_path, wait_for, n_cpus
) -> None:
    forks = fake_cpus(n_cpus)
    with _after_the_reader(_pid_jobs(5), tmp_path, wait_for) as inputs:
        pids = [inputs.get(f"job{i}") for i in range(5)]
    # The process holds the first job; one forked reader took the others.
    assert pids[0] == os.getpid()
    assert pids[1:] == [pids[1]] * 4 and pids[1] != os.getpid()
    assert len(forks) == 1


def test_a_job_the_reader_has_not_begun_is_read_in_process_at_once(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    started, go = tmp_path / "started", tmp_path / "go"

    def blocked():
        started.touch()
        wait_for(go)
        return os.getpid()

    jobs = {**_pid_jobs(4), "job1": whole(blocked)}
    with readers.share_out(jobs) as inputs:
        wait_for(started)  # the reader is in the second job
        start = time.perf_counter()
        assert inputs.get("job3") == os.getpid()
        waited = time.perf_counter() - start
        go.touch()
        assert inputs.get("job1") != os.getpid()
    assert waited < 5


def test_one_job_forks_nothing(fake_cpus) -> None:
    forks = fake_cpus(8)
    with readers.share_out(_pid_jobs(1)) as inputs:
        assert inputs.get("job0") == os.getpid()
    assert forks == []


def test_results_come_back_whole(fake_cpus, tmp_path, wait_for) -> None:
    fake_cpus(2)
    table = {"hours": np.arange(100_000).astype("datetime64[h]"), "mw": np.linspace(0.0, 1.0, 7)}
    jobs = {"first": whole(lambda: None), "table": whole(lambda: table)}
    with _after_the_reader(jobs, tmp_path, wait_for) as inputs:
        got = inputs.get("table")
    assert got is not table  # it came through the reader's file
    assert got.keys() == table.keys()
    for key in table:
        assert (got[key].dtype, got[key].tobytes()) == (table[key].dtype, table[key].tobytes())


def test_an_error_keeps_its_type_and_text(fake_cpus, tmp_path, wait_for) -> None:
    fake_cpus(2)

    def bad_value():
        raise ValueError("line 3: bad load_mw value 'oops'")

    def missing():
        return open(tmp_path / "missing.csv", encoding="utf-8")

    jobs = {"in_process": whole(bad_value), "forked": whole(bad_value), "forked2": whole(missing)}
    with _after_the_reader(jobs, tmp_path, wait_for) as inputs:
        for key in ("in_process", "forked"):
            with pytest.raises(ValueError, match=r"^line 3: bad load_mw value 'oops'$"):
                inputs.get(key)
        errors = []
        for _ in range(2):  # from the reader, then, asked for again, in process
            with pytest.raises(FileNotFoundError) as info:
                inputs.get("forked2")
            errors.append((info.value.errno, info.value.filename, str(info.value)))
    assert errors[0] == errors[1]


def test_a_reader_that_dies_names_its_job(fake_cpus, tmp_path, wait_for) -> None:
    fake_cpus(2)
    parent = os.getpid()
    claimed = tmp_path / "claimed"

    def dies():
        if os.getpid() == parent:
            raise AssertionError("run in process")
        claimed.touch()
        os._exit(3)

    with readers.share_out({"mine": whole(os.getpid), "outage_csv": whole(dies)}) as inputs:
        wait_for(claimed)
        message = r"^outage_csv: its reader process exited without a result \(exit code 3\)$"
        with pytest.raises(ChildProcessError, match=message):
            inputs.get("outage_csv")


def test_a_result_the_reader_cannot_write_is_parsed_in_process(
    fake_cpus, monkeypatch, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    runs = tmp_path / "runs"

    def job():
        with open(runs, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return os.getpid()

    def no_room(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pickle, "dump", no_room)  # the reader inherits the patch
    jobs = {"mine": whole(os.getpid), "forked": whole(job), "forked2": whole(job)}
    with _after_the_reader(jobs, tmp_path, wait_for) as inputs:
        assert inputs.get("forked") == os.getpid()
        assert inputs.get("forked2") == os.getpid()
    # Each forked job ran in the reader, was not written, and ran again here.
    pids = Counter(runs.read_text(encoding="utf-8").split())
    assert pids.pop(str(os.getpid())) == 2
    assert list(pids.values()) == [2]


def test_a_forked_result_is_handed_out_once(fake_cpus, tmp_path, wait_for) -> None:
    fake_cpus(2)
    with _after_the_reader(_pid_jobs(2), tmp_path, wait_for) as inputs:
        assert inputs.get("job1") != os.getpid()
        # Asked for again, the job runs in process.
        assert inputs.get("job1") == os.getpid()


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_a_reader_still_running_is_killed(fake_cpus, fail) -> None:
    # The autouse guard in conftest checks that it is reaped too.
    fake_cpus(2)
    start = time.perf_counter()
    jobs = {"mine": whole(os.getpid), "slow": whole(lambda: time.sleep(60))}
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with readers.share_out(jobs):
            if fail:
                raise RuntimeError("a stage failed")
    assert time.perf_counter() - start < 30


def test_one_cpu_forks_nothing(fake_cpus) -> None:
    forks = fake_cpus(1)
    with readers.share_out(_pid_jobs(3)) as inputs:
        assert [inputs.get(f"job{i}") for i in range(3)] == [os.getpid()] * 3
    assert forks == []


def test_jobs_run_in_process_when_no_reader_can_be_forked(fake_cpus, monkeypatch) -> None:
    fake_cpus(2)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with readers.share_out(_pid_jobs(3)) as inputs:
        assert [inputs.get(f"job{i}") for i in range(3)] == [os.getpid()] * 3


def _tail_then_touch(done, wait_for):
    """A job's tail that claims every part it can, then touches done, and a
    run that waits for done before it claims."""

    def tail(claim):
        indices = _claimed(claim)
        done.touch()
        return os.getpid(), indices

    def run(claim, take):
        wait_for(done)
        return _claimed(claim), take()

    return run, tail


def test_a_reader_that_reaches_a_shared_job_first_claims_every_part(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    run, tail = _tail_then_touch(tmp_path / "claimed", wait_for)
    with readers.share_out({"job0": whole(os.getpid), "shared": Job(run, tail, 5)}) as inputs:
        mine, (pid, theirs) = inputs.get("shared")
        first = inputs.get("job0")
    assert (mine, theirs) == ([], [4, 3, 2, 1, 0])
    # The process holds the first job: the reader went past it.
    assert first == os.getpid() != pid


def test_a_first_job_of_several_parts_is_shared_but_its_first_part(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    run, tail = _tail_then_touch(tmp_path / "claimed", wait_for)
    with readers.share_out({"shared": Job(run, tail, 5)}) as inputs:
        mine, (pid, theirs) = inputs.get("shared")
    assert (mine, theirs) == ([0], [4, 3, 2, 1])
    assert pid != os.getpid()


def test_a_shared_job_does_not_wait_for_a_reader_that_claimed_no_part(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    go = tmp_path / "go"

    # The reader reaches the shared job only once the process has asked for it.
    shared = Job(lambda claim, take: (_claimed(claim), take()), _claimed, 3)
    jobs = {"job0": whole(os.getpid), "job1": whole(lambda: wait_for(go)), "shared": shared}
    with readers.share_out(jobs) as inputs:
        start = time.perf_counter()
        got = inputs.get("shared")
        waited = time.perf_counter() - start
        go.touch()
        inputs.get("job1")
    assert got == ([0, 1, 2], None)
    assert waited < 5


def test_shared_parts_are_each_claimed_once_from_both_ends(fake_cpus) -> None:
    fake_cpus(2)

    def tail(claim):
        indices = []
        while (i := claim()) is not None:
            indices.append(i)
            time.sleep(0.001)
        return indices

    def run(claim, take):
        time.sleep(0.01)
        return tail(claim), take() or []

    for _ in range(5):
        with readers.share_out({"shared": Job(run, tail, 40)}) as inputs:
            mine, theirs = inputs.get("shared")
        # The process's from the front, the reader's from the back.
        assert mine + theirs[::-1] == list(range(40))


@pytest.mark.parametrize("n_cpus, parts", [(1, 3), (8, 1)], ids=["one-cpu", "one-part"])
def test_a_shared_job_without_a_reader_runs_whole(fake_cpus, n_cpus, parts) -> None:
    forks = fake_cpus(n_cpus)
    shared = Job(lambda claim, take: (claim, take), _claimed, parts)
    with readers.share_out({"shared": shared}) as inputs:
        assert inputs.get("shared") == (None, None)
    assert forks == []


def test_a_shared_side_the_reader_cannot_write_is_read_in_process(
    fake_cpus, monkeypatch, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    run, tail = _tail_then_touch(tmp_path / "claimed", wait_for)

    def no_room(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pickle, "dump", no_room)  # the reader inherits the patch
    with readers.share_out({"shared": Job(run, tail, 4)}) as inputs:
        # The reader's parts are read again here, from the back.
        assert inputs.get("shared") == ([0], (os.getpid(), [3, 2, 1]))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_share_out_leaves_no_pipe_or_file_open(fake_cpus) -> None:
    forks = fake_cpus(2)
    shared = Job(lambda claim, take: (_claimed(claim), take()), _claimed, 4)
    jobs = {**_pid_jobs(3), "shared": shared}
    before = set(os.listdir("/proc/self/fd"))
    for asked in ([], ["job0", "job2"], list(jobs)):
        with readers.share_out(jobs) as inputs:
            for key in asked:
                inputs.get(key)
    with pytest.raises(RuntimeError), readers.share_out(jobs):
        raise RuntimeError("a stage failed")
    assert set(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 4
