"""The parsers of the inputs, and their reading on two CPUs.

PARSERS holds the parser of each CSV input by its config key, and
`input_jobs(cfg, keys)` gives a job reading each that is set. A grid CSV's
job has a part per about 2 MiB of the file (`thermal.grid_cuts`); every
other input's, a raster's included, has one part.

`share_out(jobs)`, given the jobs in the order they will be asked for,
shares their parts between the calling process and a forked reader where
the process may use two CPUs or more: each claims the next part no one
has claimed. The reader goes through the jobs in order, claiming each
one's parts from the back; the process claims a job's parts from the
front when it is asked for, and joins to them what the reader read of it.
The process holds the first part of the first job from the start, so the
reader never takes all of the job asked for first, and a lone job of
several parts is still shared. So the process never waits for a job the
reader has not begun, and a reader slowed by other work on the host costs
it at most the part the reader is reading. Only two CPUs were measured,
so a host with more CPUs forks one reader too.

The reader writes what it read of each job, or the exception it raised,
to an unlinked temporary file, then one byte to its pipe, and exits when
all are done. A result it cannot write (no room in the temporary
directory, or nothing pickle can store) it marks with another byte, and
the process reads those parts again. `Readers.get` waits on the pipe only
for a job of which the reader claimed a part, then loads its result in
the calling thread, or raises its exception there. So a result arrives no
earlier than it is asked for, and an error comes when, and as, it would
in process.

Threads would not help: `np.loadtxt` holds the GIL. Readers are forked,
not spawned: a spawned process would import numpy again on every run.
Run from the command line, the process's only other threads are
numpy's BLAS pool, and no parser calls BLAS. With one CPU, or where the
platform cannot fork, every job is read whole in process, and nothing is
forked. On leaving the block, a reader still running is killed, and it
is reaped.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import tempfile
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import ingest, projection, thermal
from .config import RunConfig

# The byte a reader writes to its pipe per job: its outcome is in its file, or is not.
WRITTEN, UNWRITTEN = b".", b"-"

# Each looks its parser up when called, so a patched parser (a spy, a tracer) is the one run.
PARSERS: dict[str, Callable[[IO[str]], object]] = {
    "load_csv": lambda fh: ingest.parse_hourly_load(fh),
    "fuel_mix_csv": lambda fh: ingest.parse_fuel_mix(fh),
    "mask_csv": lambda fh: thermal.read_mask_csv(fh),
    "population_csv": lambda fh: thermal.read_population_csv(fh),
    "ensemble_csv": lambda fh: projection.parse_ensemble_csv(fh),
    "outage_csv": lambda fh: ingest.parse_outages(fh),
}


def parse_input(path: Path, key: str) -> object:
    """The table of the CSV input at path, read by the parser of its config key."""
    with open(path, encoding="utf-8") as fh:
        return PARSERS[key](fh)


Claim = Callable[[], int | None]  # the index of the next part claimed, or None: none is left
Take = Callable[[], object]


class Job(NamedTuple):
    """An input read in `parts` parts, which the process and the forked reader share.

    run(claim, take) runs in process when the job is asked for: it reads
    each part that claim() gives, from the front, then take() hands out
    tail(claim) as the reader ran it, on the parts it claimed from the
    back, or None if it claimed none. With no reader, run(None, None)
    reads the job whole.
    """

    run: Callable[[Claim | None, Take | None], object]
    tail: Callable[[Claim], object]
    parts: int


def _read_whole(read: Take, claim: Claim | None, take: Take | None) -> object:
    """read(), without claim or where claim() gives the part; else take()."""
    return take() if claim is not None and claim() is None else read()


def whole(read: Take) -> Job:
    """A job of one part, read() in whichever process claims it."""
    return Job(partial(_read_whole, read), partial(_read_whole, read, take=lambda: None), 1)


class _Claims:
    """The parts of a job, one byte each in a pipe whose write end is
    closed, but for the parts the process holds from the start: a read of
    a byte claims a part, and a read at the end finds none left. Each
    process counts its own claims, the calling process numbering them from
    the front, its held parts first, and the forked reader from the back."""

    def __init__(self, parts: int, held: int) -> None:
        self.parts, self.held, self.taken = parts, held, 0
        self.fd, write_fd = os.pipe()
        try:
            os.write(write_fd, b"." * (parts - held))  # fewer bytes than a pipe holds
        finally:
            os.close(write_fd)

    def _claim(self, held: int) -> bool:
        got = self.taken < held or bool(os.read(self.fd, 1))
        self.taken += got
        return got

    def front(self) -> int | None:
        return self.taken - 1 if self._claim(self.held) else None

    def back(self) -> int | None:
        return self.parts - self.taken if self._claim(0) else None

    def rest(self) -> Claim:
        """The reader's claims, from the back, once none is left here."""
        return partial(next, iter(range(self.parts - 1, self.taken - 1, -1)), None)


def _read_grid(path: Path, cuts: list[int], claim: Claim | None, take: Take | None) -> object:
    """The temperature grid at path: the parts claim() gives, read here into
    one table, joined to the table take() gives; read whole without claim."""
    if claim is None:
        return thermal.load_temperature_grid(path)

    def parts() -> list:
        head = None
        while (i := claim()) is not None:
            head = thermal.read_grid_part(path, cuts[i], cuts[i + 1], head)
        return [part for part in (head, take()) if part is not None]

    return thermal.load_temperature_grid(path, parts)


def _read_grid_tail(path: Path, cuts: list[int], claim: Claim) -> object:
    """The rows of the parts of the grid CSV at path that claim() gives, from
    the back, joined into one table; None if it gives none."""
    parts = []
    while (i := claim()) is not None:
        parts.append(thermal.read_grid_part(path, cuts[i], cuts[i + 1]))
    return thermal.join_grid_parts(*parts[::-1]) if parts else None


def input_jobs(cfg: RunConfig, keys: Iterable[str]) -> dict[str, Job]:
    """A job reading the input of each of these config keys that is set, in
    their order: a part per cut of a grid CSV that `thermal.grid_cuts` cuts,
    one part of any other input."""
    paths = {
        "load_csv": cfg.load_csv,
        "fuel_mix_csv": cfg.fuel_mix_csv,
        "temperature_grid": cfg.temperature_grid,
        "mask_csv": cfg.mask_csv,
        "population_csv": cfg.population_csv,
        "ensemble_csv": cfg.ensemble_csv,
        "outage_csv": cfg.outage_csv,
    }
    jobs: dict[str, Job] = {}
    for key in keys:
        if (path := paths.get(key)) is None:
            continue
        if key != "temperature_grid":
            jobs[key] = whole(partial(parse_input, path, key))
        elif (cuts := thermal.grid_cuts(path)) is None:
            jobs[key] = whole(partial(thermal.load_temperature_grid, path))
        else:
            read, tail = partial(_read_grid, path, cuts), partial(_read_grid_tail, path, cuts)
            jobs[key] = Job(read, tail, len(cuts) - 1)
    return jobs


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(jobs: Mapping[str, Take], files: Mapping[str, IO[bytes]], signal_fd: int) -> None:
    """A forked reader's life: each job's outcome to its file, then a byte; never returns."""
    code = 1
    try:
        for key, file in files.items():
            try:
                outcome = (True, jobs[key]())
            except Exception as exc:
                outcome = (False, exc)
            try:
                pickle.dump(outcome, file, pickle.HIGHEST_PROTOCOL)
                file.flush()
                mark = WRITTEN
            except Exception:  # no room for it, or it cannot be pickled
                mark = UNWRITTEN
            os.write(signal_fd, mark)
        code = 0
    finally:
        os._exit(code)  # no atexit handler or buffered output of the parent runs twice


class _Child:
    """A forked reader: its jobs' files, and the read end of its pipe."""

    def __init__(self, pid: int, fd: int, files: dict[str, IO[bytes]]) -> None:
        self.pid, self.fd, self.files = pid, fd, files
        self.marks = b""  # the bytes read so far, one per job in order
        self.exit_code: int | None = None  # set once reaped

    def reap(self) -> int:
        """Wait for the child to end (killing it if it still runs); its exit code."""
        if self.exit_code is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code

    def close(self) -> None:
        self.reap()
        os.close(self.fd)
        for file in self.files.values():
            file.close()


class Readers:
    """The readers of one share-out; `get(key)` hands out each job's result."""

    def __init__(self, jobs: Mapping[str, Job]) -> None:
        self._jobs = jobs
        self._child: _Child | None = None
        self._claims: dict[str, _Claims] = {}

    def __contains__(self, key: str) -> bool:
        return key in self._jobs

    def _fork(self) -> None:
        """Start a child that claims each job's parts from the back, in turn,
        but the first part of the first job, which the process holds; none
        if that leaves no part. OSError if none can be started."""
        if sum(job.parts for job in self._jobs.values()) < 2:
            return
        first = next(iter(self._jobs))
        for key, job in self._jobs.items():
            self._claims[key] = _Claims(job.parts, held=int(key == first))
        jobs = {key: partial(job.tail, self._claims[key].back) for key, job in self._jobs.items()}
        files = {key: tempfile.TemporaryFile() for key in jobs}
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            for file in files.values():
                file.close()
            raise
        if pid == 0:
            os.close(read_fd)
            _serve(jobs, files, write_fd)
        os.close(write_fd)
        self._child = _Child(pid, read_fd, files)

    def get(self, key: str) -> object:
        """The job's result, or its exception raised: the parts claimed here,
        joined to what the reader read, waited for only if it claimed a part.
        Asked for again, or with no child, the job is read whole here."""
        job, child = self._jobs[key], self._child
        file = None if child is None else child.files.pop(key, None)
        if file is None:
            return job.run(None, None)
        claims = self._claims[key]
        with file:
            return job.run(claims.front, partial(self._take, key, file))

    def _take(self, key: str, file: IO[bytes]) -> object:
        """The child's side of the job of this key, once none is left here:
        None if it claimed no part, without a wait; else its outcome, in its
        file: its result, or its exception raised; or, where the child could
        not write it, tail() on the child's parts, run here."""
        claims = self._claims[key]
        if claims.taken == claims.parts:
            return None
        child = self._child
        index = list(self._jobs).index(key)
        while len(child.marks) <= index:
            signals = os.read(child.fd, 64)
            if not signals:
                raise ChildProcessError(
                    f"{key}: its reader process exited without a result "
                    f"(exit code {child.reap()})"
                )
            child.marks += signals
        if child.marks[index : index + 1] == UNWRITTEN:
            return self._jobs[key].tail(claims.rest())
        file.seek(0)
        ok, value = pickle.load(file)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self._child is not None:
            self._child.close()
            self._child = None
        for claims in self._claims.values():
            os.close(claims.fd)
        self._claims.clear()


@contextlib.contextmanager
def share_out(jobs: Mapping[str, Job]) -> Iterator[Readers]:
    """Readers for the jobs, given in the order they will be asked for."""
    readers = Readers(jobs)
    try:
        if _cpus() > 1:
            with contextlib.suppress(OSError):  # no child to be had: its jobs run in process
                readers._fork()
        yield readers
    finally:
        readers.close()
