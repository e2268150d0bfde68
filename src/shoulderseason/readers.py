"""The parsers of the CSV inputs, and their parsing on two CPUs.

PARSERS holds the parser of each CSV input by its config key, and
`input_jobs(cfg, keys)` gives a job parsing each that is set. The
temperature grid is not one of them: the thermal stage opens it in
process, a raster lazily, and it needs a grid CSV's table as soon as it
starts, so a reader would save no waiting and add a pickle round trip.

`share_out(jobs)` deals the jobs, in the order they will be asked for,
round-robin over two readers where the process may use two CPUs or
more: the calling process, which runs each of its jobs when it is asked
for, and a forked child. The child runs its jobs in turn, writes each
result, or the exception it raised, to an unlinked temporary file, then
writes one byte to its pipe, and exits when all are done. A result it
cannot write (no room in the temporary directory, or nothing pickle can
store) it marks with another byte, and that job runs in process when it
is asked for. `Readers.get` waits on the pipe only for the job asked
for, then loads its result in the calling thread, or raises its
exception there. So a result arrives no earlier than it is asked for,
and an error comes when, and as, it would in process. Only the two-CPU
deal was measured, so a host with more CPUs forks one child too.

Threads would not help: `np.loadtxt` holds the GIL. Readers are forked,
not spawned: a spawned process would import numpy again on every run.
Run from the command line, the process's only other threads are
numpy's BLAS pool, and no parser calls BLAS. With one CPU, or where the
platform cannot fork, every job runs in process and nothing is forked.
On leaving the block, a child still running is killed, and it is reaped.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import tempfile
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

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


def input_jobs(cfg: RunConfig, keys: Iterable[str]) -> dict[str, Job]:
    """A job parsing the CSV input of each of these config keys that is set, in their order."""
    paths = {
        "load_csv": cfg.load_csv,
        "fuel_mix_csv": cfg.fuel_mix_csv,
        "mask_csv": cfg.mask_csv,
        "population_csv": cfg.population_csv,
        "ensemble_csv": cfg.ensemble_csv,
        "outage_csv": cfg.outage_csv,
    }
    return {key: partial(parse_input, paths[key], key) for key in keys if paths.get(key) is not None}


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

    def __init__(self, jobs: Mapping[str, Job]) -> None:
        self._jobs = jobs
        self._child: _Child | None = None

    def _fork(self, keys: list[str]) -> None:
        """Start a child that runs these jobs; OSError if none can be started."""
        files = {key: tempfile.TemporaryFile() for key in keys}
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
            _serve(self._jobs, files, write_fd)
        os.close(write_fd)
        self._child = _Child(pid, read_fd, files)

    def get(self, key: str) -> object:
        """The job's result, or its exception raised. A forked job's result is
        handed out once; asked for again, the job runs in process."""
        child = self._child
        if child is None or key not in child.files:
            return self._jobs[key]()
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
                return self._jobs[key]()
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


@contextlib.contextmanager
def share_out(jobs: Mapping[str, Job]) -> Iterator[Readers]:
    """Readers for the jobs, given in the order they will be asked for."""
    keys = list(jobs)
    readers = Readers(jobs)
    try:
        if min(_cpus(), len(keys)) > 1:
            with contextlib.suppress(OSError):  # no child to be had: its jobs run in process
                readers._fork(keys[1::2])
        yield readers
    finally:
        readers.close()
