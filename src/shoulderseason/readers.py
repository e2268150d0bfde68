"""The parsers of the inputs, and their reading on two CPUs.

PARSERS holds how the input of each config key is read, and
`input_jobs(cfg, keys)` gives a job reading each that is set. The job of
the load, fuel-mix or outage feed, or of a grid CSV, has a part per about
2 MiB of the file (`ingest.cuts`), and joins the rows of its parts as a
whole read gives them; every other input's, a raster's or a tiny file's
included, has one part, read whole. One loop reads the parts a claim
gives: in the process, in the forked reader, and for a result it could
not write.

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
import operator
import os
import pickle
import signal
import tempfile
from functools import partial, reduce
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import ingest, projection, thermal
from .config import RunConfig

# The byte a reader writes to its pipe per job: its outcome is in its file, or is not.
WRITTEN, UNWRITTEN = b".", b"-"


class Parser(NamedTuple):
    """How the input of a config key is read: read(path) reads its file
    whole. An input with a part reader may be read in parts (see
    `ingest.cuts`): part(p) reads the rows of an `ingest.Part` p of it,
    join(rows, later) adds to rows those of the parts that follow, and
    table(rows) makes the input's table of the rows of all its parts. A
    feed's rows are a list of tables (the fuel mix's, of its parts' chunks),
    joined once at the end."""

    read: Callable[[Path], object]
    part: Callable[[ingest.Part], object] | None = None
    join: Callable[[object, object], object] = operator.add
    table: Callable[[object], object] | None = None

    def job(self, path: Path) -> Job:
        """A job reading the input at path: a part per cut that `ingest.cuts`
        makes of it, given a part reader, or else one part."""
        whole = partial(self.read, path)
        if self.part is None or (cuts := ingest.cuts(path)) is None:
            return Job(whole)
        parts = [ingest.Part(path, a, b) for a, b in zip(cuts, cuts[1:])]
        return Job(whole, lambda i: self.part(parts[i]), len(parts), self.join, self.table)


def _text(parse: Callable[[IO[str]], object], path: Path) -> object:
    """parse(fh) of the text of the file at path."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh)


# Each looks its parser up when called, so a patched parser (a spy, a tracer) is the one run.
PARSERS: dict[str, Parser] = {
    "load_csv": Parser(
        lambda path: _text(ingest.parse_hourly_load, path),
        lambda part: [ingest.parse_hourly_load(part)],
        table=lambda rows: ingest.join_tables(*rows),
    ),
    "fuel_mix_csv": Parser(
        lambda path: _text(ingest.parse_fuel_mix, path),
        lambda part: list(ingest.read_fuel_mix_part(part)),
        table=lambda rows: ingest.join_fuel_mix(rows),
    ),
    # A `.npy` raster or a CSV, as the file's suffix says.
    "temperature_grid": Parser(
        lambda path: thermal.load_temperature_grid(path),
        lambda part: thermal.read_grid_part(part),
        thermal.join_grid_parts,
        lambda rows: rows.grid(),
    ),
    "mask_csv": Parser(lambda path: _text(thermal.read_mask_csv, path)),
    "population_csv": Parser(lambda path: _text(thermal.read_population_csv, path)),
    "ensemble_csv": Parser(lambda path: _text(projection.parse_ensemble_csv, path)),
    "outage_csv": Parser(
        lambda path: _text(ingest.parse_outages, path),
        lambda part: [ingest.parse_outages(part)],
        table=lambda rows: ingest.join_tables(*rows),
    ),
}


class Job(NamedTuple):
    """How an input is read: whole(), or, in `parts` parts that the process
    and the forked reader share, part(i) reads the rows of part i,
    join(rows, later) adds to rows those of the parts after them, and
    table(rows) makes the input's table of the rows of all its parts. A
    job without a part reader has one part, read by whole()."""

    whole: Callable[[], object]
    part: Callable[[int], object] | None = None
    parts: int = 1
    join: Callable[[object, object], object] = operator.add
    table: Callable[[object], object] = lambda rows: rows


Claim = Callable[[], int | None]  # the index of the next part claimed, or None: none is left


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


def _read_claimed(job: Job, claim: Claim, back: bool = False) -> list:
    """The rows of the parts that claim() gives, from the front, or, if
    back, from the back, read here and joined in file order as each is
    read: [rows], or [] if it gives none."""
    rows = []  # [the rows of the parts read so far], once one is read
    for i in iter(claim, None):
        part = job.whole() if job.part is None else job.part(i)
        if rows:
            part = job.join(part, rows[0]) if back else job.join(rows[0], part)
        rows = [part]
    return rows


def input_jobs(cfg: RunConfig, keys: Iterable[str]) -> dict[str, Job]:
    """A job reading the input of each of these config keys that is set, in
    their order: a part per cut that `ingest.cuts` makes of an input with a
    part reader, one part of any other."""
    paths = ((key, getattr(cfg, key)) for key in keys)
    return {key: PARSERS[key].job(path) for key, path in paths if path is not None}


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(read: Callable[[str], list], files: Mapping[str, IO[bytes]], signal_fd: int) -> None:
    """A forked reader's life: read(key) of each job to its file, then a byte; never returns."""
    code = 1
    try:
        for key, file in files.items():
            try:
                outcome = (True, read(key))
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
        files = {key: tempfile.TemporaryFile() for key in self._jobs}
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
            jobs, claims = self._jobs, self._claims
            _serve(lambda key: _read_claimed(jobs[key], claims[key].back, True), files, write_fd)
        os.close(write_fd)
        self._child = _Child(pid, read_fd, files)

    def get(self, key: str) -> object:
        """The job's result, or its exception raised: the parts claimed here,
        joined to what the reader read, waited for only if it claimed a part.
        Asked for again, or with no child, the job is read whole here. A job
        of several parts whose part or join raises ValueError or OSError is
        read whole here, which gives a whole read's error and line number; a
        ChildProcessError (a reader died), or a one-part job's error, is
        raised as it is."""
        job, child = self._jobs[key], self._child
        file = None if child is None else child.files.pop(key, None)
        if file is None:
            return job.whole()
        with file:
            try:
                rows = _read_claimed(job, self._claims[key].front) + self._take(key, file)
                return job.table(reduce(job.join, rows))
            except ChildProcessError:
                raise
            except (ValueError, OSError):
                if job.part is None:
                    raise
        return job.whole()

    def _take(self, key: str, file: IO[bytes]) -> list:
        """The child's side of the job of this key, once none is left here:
        [] if it claimed no part, without a wait; else its outcome, in its
        file: its rows, or its exception raised; or, where the child could
        not write it, the child's parts read here."""
        claims = self._claims[key]
        if claims.taken == claims.parts:
            return []
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
            return _read_claimed(self._jobs[key], claims.rest(), back=True)
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
