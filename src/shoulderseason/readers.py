"""The parsers of the inputs, and their parsing on two CPUs.

PARSERS holds the parser of each CSV input by its config key, and
`input_jobs(cfg, keys)` gives a job reading each that is set. The
temperature grid's job is Shared: a grid CSV is cut into parts of about
2 MiB (`thermal.grid_cuts`), which the process and the forked reader
share. Each claims the next part no one has claimed, the reader from the
back from the time it reaches the job, the process from the front when
the thermal stage asks for the grid, until none is left; the process
then joins the parts (`thermal.load_temperature_grid`). So the one given
more CPU reads more parts, and a reader slowed by other work on the host
costs the process at most the part it is reading, not half the file. A
raster is not cut: it opens lazily, so there is no parse to share.

`share_out(jobs)` deals the other jobs, in the order they will be asked
for, round-robin over two readers where the process may use two CPUs or
more: the calling process, which runs each of its jobs when it is asked
for, and a forked child, which also runs its side of each Shared job at
that job's place in the order. The child runs its jobs in turn, writes
each result, or the exception it raised, to an unlinked temporary file,
then writes one byte to its pipe, and exits when all are done. A result
it cannot write (no room in the temporary directory, or nothing pickle
can store) it marks with another byte, and that job runs in process when
it is asked for. `Readers.get` waits on the pipe only for the job asked
for, then loads its result in the calling thread, or raises its
exception there. So a result arrives no earlier than it is asked for,
and an error comes when, and as, it would in process. Only the two-CPU
deal was measured, so a host with more CPUs forks one child too.

Threads would not help: `np.loadtxt` holds the GIL. Readers are forked,
not spawned: a spawned process would import numpy again on every run.
Run from the command line, the process's only other threads are
numpy's BLAS pool, and no parser calls BLAS. With one CPU, or where the
platform cannot fork, every job runs in process, a Shared job whole,
and nothing is forked. On leaving the block, a child still running is
killed, and it is reaped.
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

Job = Callable[[], object]

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


class Shared(NamedTuple):
    """A job of `parts` parts, which the process and the forked reader share.

    run(claim, take) runs in process when the job is asked for: it reads
    each part that claim() gives, from the front, then take() hands out
    tail(claim) as the reader ran it, on the parts it claimed from the
    back. With no reader, or no tail, run(None, None) reads the job whole.
    """

    run: Callable[[Claim | None, Job | None], object]
    tail: Callable[[Claim], object] | None
    parts: int


class _Claims:
    """The parts of a Shared job, one byte each in a pipe whose write end is
    closed: a read of a byte claims a part, and a read at the end finds none
    left. Each process counts its own claims, the calling process numbering
    them from the front and the forked reader from the back."""

    def __init__(self, parts: int) -> None:
        self.parts, self.taken = parts, 0
        self.fd, write_fd = os.pipe()
        try:
            os.write(write_fd, b"." * parts)  # fewer bytes than a pipe holds
        finally:
            os.close(write_fd)

    def _claim(self) -> bool:
        got = bool(os.read(self.fd, 1))
        self.taken += got
        return got

    def front(self) -> int | None:
        return self.taken - 1 if self._claim() else None

    def back(self) -> int | None:
        return self.parts - self.taken if self._claim() else None

    def rest(self) -> Claim:
        """The other side's claims, from the back, once none is left here."""
        return partial(next, iter(range(self.parts - 1, self.taken - 1, -1)), None)


def _read_grid(path: Path, cuts: list[int] | None, claim: Claim | None, take: Job | None) -> object:
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


def input_jobs(cfg: RunConfig, keys: Iterable[str]) -> dict[str, Job | Shared]:
    """A job reading the input of each of these config keys that is set, in their order.

    The temperature grid's job is Shared: a grid CSV that `thermal.grid_cuts`
    cuts has a part per cut; a raster has no tail.
    """
    paths = {
        "load_csv": cfg.load_csv,
        "fuel_mix_csv": cfg.fuel_mix_csv,
        "temperature_grid": cfg.temperature_grid,
        "mask_csv": cfg.mask_csv,
        "population_csv": cfg.population_csv,
        "ensemble_csv": cfg.ensemble_csv,
        "outage_csv": cfg.outage_csv,
    }
    jobs: dict[str, Job | Shared] = {}
    for key in keys:
        if (path := paths.get(key)) is None:
            continue
        if key != "temperature_grid":
            jobs[key] = partial(parse_input, path, key)
            continue
        cuts = thermal.grid_cuts(path)
        tail = None if cuts is None else partial(_read_grid_tail, path, cuts)
        parts = 0 if cuts is None else len(cuts) - 1
        jobs[key] = Shared(partial(_read_grid, path, cuts), tail, parts)
    return jobs


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(jobs: Mapping[str, Job], files: Mapping[str, IO[bytes]], signal_fd: int) -> None:
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
    """A forked reader: its jobs' files in order, and the read end of its pipe."""

    def __init__(self, pid: int, fd: int, files: dict[str, IO[bytes]]) -> None:
        self.pid, self.fd, self.files = pid, fd, files
        self.keys = list(files)
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

    def __init__(self, jobs: Mapping[str, Job | Shared]) -> None:
        self._jobs = jobs
        self._child: _Child | None = None
        self._claims: dict[str, _Claims] = {}

    def __contains__(self, key: str) -> bool:
        return key in self._jobs

    def _fork(self) -> None:
        """Start a child that runs every other job that is not Shared, and its
        side of each Shared job with a tail; OSError if none can be started."""
        dealt = [key for key, job in self._jobs.items() if not isinstance(job, Shared)][1::2]
        for key, job in self._jobs.items():
            if isinstance(job, Shared) and job.tail is not None:
                self._claims[key] = _Claims(job.parts)
        jobs = {
            key: partial(job.tail, self._claims[key].back) if key in self._claims else job
            for key, job in self._jobs.items()
            if key in dealt or key in self._claims
        }
        if not jobs:
            return
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
        """The job's result, or its exception raised. A forked job's result is
        handed out once; asked for again, the job runs in process. A Shared
        job runs in process, and takes the child's side from the child, or,
        if the child claimed no part, runs it in process without waiting."""
        job, child = self._jobs[key], self._child
        forked = child is not None and key in child.files
        if not isinstance(job, Shared):
            return self._take(key, job) if forked else job()
        if not forked:
            return job.run(None, None)
        claims = self._claims[key]

        def take() -> object:
            rest = partial(job.tail, claims.rest())  # the child's side, run in process
            if claims.taken < claims.parts:
                return self._take(key, rest)
            child.files.pop(key).close()
            return rest()

        return job.run(claims.front, take)

    def _take(self, key: str, job: Job) -> object:
        """The outcome of the child's job of this key: its result, or its
        exception raised; job() where the child could not write it."""
        child = self._child
        index = child.keys.index(key)
        with child.files.pop(key) as file:
            while len(child.marks) <= index:
                signals = os.read(child.fd, 64)
                if not signals:
                    raise ChildProcessError(
                        f"{key}: its reader process exited without a result "
                        f"(exit code {child.reap()})"
                    )
                child.marks += signals
            if child.marks[index : index + 1] == UNWRITTEN:
                return job()
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
def share_out(jobs: Mapping[str, Job | Shared]) -> Iterator[Readers]:
    """Readers for the jobs, given in the order they will be asked for."""
    readers = Readers(jobs)
    try:
        if _cpus() > 1:
            with contextlib.suppress(OSError):  # no child to be had: its jobs run in process
                readers._fork()
        yield readers
    finally:
        readers.close()
