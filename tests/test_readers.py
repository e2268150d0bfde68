"""The share-out of jobs between the process and forked readers."""

from __future__ import annotations

import contextlib
import errno
import os
import pickle
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from shoulderseason import readers
from shoulderseason.readers import Job


def _pid_jobs(n: int) -> dict[str, Job]:
    return {f"job{i}": Job(os.getpid) for i in range(n)}


def _log(path: Path, what: object) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {what}\n")


def _reads(path: Path) -> dict[int, list[int]]:
    """The parts each process logged, by pid, in the order it read them."""
    reads: dict[int, list[int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines() if path.exists() else []:
        pid, part = map(int, line.split())
        reads.setdefault(pid, []).append(part)
    return reads


def _cut(log: Path, parts: int, whole=None, delay: float = 0.0) -> Job:
    """A job of this many parts, each read as [its index] and logged with
    the pid of the process that read it; joined, the indices in file order."""

    def part(i: int) -> list[int]:
        _log(log, i)
        time.sleep(delay)
        return [i]

    return Job(whole or (lambda: list(range(parts))), part, parts)


@contextlib.contextmanager
def _after_the_reader(jobs: dict[str, Job], tmp_path, wait_for):
    """share_out(jobs), entered once the reader has gone through every job."""
    done = tmp_path / "reader-done"
    with readers.share_out({**jobs, "done": Job(done.touch)}) as inputs:
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

    jobs = {**_pid_jobs(4), "job1": Job(blocked)}
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
    jobs = {"first": Job(lambda: None), "table": Job(lambda: table)}
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

    jobs = {"in_process": Job(bad_value), "forked": Job(bad_value), "forked2": Job(missing)}
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

    with readers.share_out({"mine": Job(os.getpid), "outage_csv": Job(dies)}) as inputs:
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
    jobs = {"mine": Job(os.getpid), "forked": Job(job), "forked2": Job(job)}
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
    jobs = {"mine": Job(os.getpid), "slow": Job(lambda: time.sleep(60))}
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


def test_a_reader_that_reaches_a_shared_job_first_claims_every_part(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    log = tmp_path / "reads"
    jobs = {"job0": Job(os.getpid), "shared": _cut(log, 5)}
    with _after_the_reader(jobs, tmp_path, wait_for) as inputs:
        got = inputs.get("shared")
        first = inputs.get("job0")
    [(pid, theirs)] = _reads(log).items()
    assert (got, theirs) == ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])
    # The process holds the first job: the reader went past it.
    assert first == os.getpid() != pid


def test_a_first_job_of_several_parts_is_shared_but_its_first_part(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    log = tmp_path / "reads"
    with _after_the_reader({"shared": _cut(log, 5)}, tmp_path, wait_for) as inputs:
        got = inputs.get("shared")
    reads = _reads(log)
    mine = reads.pop(os.getpid())
    [theirs] = reads.values()
    assert (got, mine, theirs) == ([0, 1, 2, 3, 4], [0], [4, 3, 2, 1])


def test_a_shared_job_does_not_wait_for_a_reader_that_claimed_no_part(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    go, log = tmp_path / "go", tmp_path / "reads"

    # The reader reaches the shared job only once the process has asked for it.
    jobs = {"job0": Job(os.getpid), "job1": Job(lambda: wait_for(go)), "shared": _cut(log, 3)}
    with readers.share_out(jobs) as inputs:
        start = time.perf_counter()
        got = inputs.get("shared")
        waited = time.perf_counter() - start
        go.touch()
        inputs.get("job1")
    assert (got, _reads(log)) == ([0, 1, 2], {os.getpid(): [0, 1, 2]})
    assert waited < 5


def test_shared_parts_are_each_claimed_once_from_both_ends(fake_cpus, tmp_path) -> None:
    fake_cpus(2)
    for _ in range(5):
        log = tmp_path / "reads"
        log.unlink(missing_ok=True)
        with readers.share_out({"shared": _cut(log, 40, delay=0.001)}) as inputs:
            time.sleep(0.01)
            assert inputs.get("shared") == list(range(40))
        reads = _reads(log)
        mine, theirs = reads.pop(os.getpid()), [i for part in reads.values() for i in part]
        # The process's from the front, the reader's from the back.
        assert mine + theirs[::-1] == list(range(40))


@pytest.mark.parametrize("n_cpus, parts", [(1, 3), (8, 1)], ids=["one-cpu", "one-part"])
def test_a_shared_job_without_a_reader_runs_whole(fake_cpus, tmp_path, n_cpus, parts) -> None:
    forks = fake_cpus(n_cpus)
    log = tmp_path / "reads"
    with readers.share_out({"shared": _cut(log, parts, whole=lambda: "whole")}) as inputs:
        assert inputs.get("shared") == "whole"
    assert (forks, _reads(log)) == ([], {})


def test_a_shared_side_the_reader_cannot_write_is_read_in_process(
    fake_cpus, monkeypatch, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    log = tmp_path / "reads"

    def no_room(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pickle, "dump", no_room)  # the reader inherits the patch
    with _after_the_reader({"shared": _cut(log, 4)}, tmp_path, wait_for) as inputs:
        assert inputs.get("shared") == [0, 1, 2, 3]
    # The reader's parts are read again here, from the back.
    reads = _reads(log)
    mine = reads.pop(os.getpid())
    [theirs] = reads.values()
    assert (mine, theirs) == ([0, 3, 2, 1], [3, 2, 1])


def test_a_one_part_job_that_raises_in_the_reader_is_not_read_again(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    log = tmp_path / "reads"

    def bad_value():
        _log(log, 0)
        raise ValueError("line 3: bad load_mw value 'oops'")

    jobs = {"mine": Job(os.getpid), "bad": Job(bad_value)}
    with _after_the_reader(jobs, tmp_path, wait_for) as inputs:
        with pytest.raises(ValueError, match=r"^line 3: bad load_mw value 'oops'$"):
            inputs.get("bad")
    # Read once, by the reader; its error is raised here as it is.
    [(pid, reads)] = _reads(log).items()
    assert pid != os.getpid() and reads == [0]


def test_a_cut_job_whose_part_raises_in_the_reader_is_read_whole_here_once(
    fake_cpus, tmp_path, wait_for
) -> None:
    fake_cpus(2)
    parent, log, wholes = os.getpid(), tmp_path / "reads", tmp_path / "wholes"

    def whole():
        _log(wholes, -1)
        raise ValueError("line 9: bad hour '25'")

    job = _cut(log, 3, whole=whole)

    def part(i: int) -> list[int]:
        if os.getpid() != parent:
            raise ValueError("a part's own error")
        return job.part(i)

    with _after_the_reader({"cut": job._replace(part=part)}, tmp_path, wait_for) as inputs:
        with pytest.raises(ValueError, match=r"^line 9: bad hour '25'$"):
            inputs.get("cut")
    assert _reads(wholes) == {parent: [-1]}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_share_out_leaves_no_pipe_or_file_open(fake_cpus) -> None:
    forks = fake_cpus(2)
    jobs = {**_pid_jobs(3), "shared": Job(lambda: None, lambda i: [i], 4)}
    before = set(os.listdir("/proc/self/fd"))
    for asked in ([], ["job0", "job2"], list(jobs)):
        with readers.share_out(jobs) as inputs:
            for key in asked:
                inputs.get(key)
    with pytest.raises(RuntimeError), readers.share_out(jobs):
        raise RuntimeError("a stage failed")
    assert set(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 4
