"""Shared vocabulary: class labels, the data error, seeded randomness helpers,
and the one map that spreads independent work over the usable CPUs.

Every random draw in the package flows through :func:`make_rng`, a PCG64
generator seeded with an unsigned 64-bit integer.  Independent streams for
different purposes (item memory, level memory, splits, synthetic noise) are
derived from one root seed with :func:`derive_seed`, so a single ``--seed``
reproduces an entire experiment bit for bit.

Annotations that name ``np.random`` are quoted: numpy 2 loads
``numpy.random`` on first use, so commands that draw nothing (eval,
preprocess, inspect-model) never load it.

:func:`map_forked` runs per-patient reads and writes and the sweep's runs
on every CPU the process may use (Linux), in forked workers.  Its results
and errors are those of the serial loop, so every output byte is the same
for any CPU count; ``taskset -c 0`` runs serially.
"""

import hashlib
import os
import pickle
import signal
import warnings
from enum import Enum

import numpy as np

MAX_SEED = 2**64


class DataValidationError(ValueError):
    """Dataset contents violate the format contract."""


class Label(str, Enum):
    """Diagnostic class of a recording. ADHD is the positive class."""

    ADHD = "ADHD"
    CONTROL = "CONTROL"

    def __str__(self) -> str:
        return self.value


def check_seed(seed: int) -> int:
    """Validate that ``seed`` is an unsigned 64-bit integer and return it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)


def make_rng(seed: int) -> "np.random.Generator":
    """PCG64 generator for the given seed.

    PCG64 is the one generator used everywhere; values are drawn in
    C order (for a matrix of vectors: vector by vector, components in
    ascending index order), which pins down every random artifact for a
    given seed.
    """
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def derive_seed(root: int, purpose: str) -> int:
    """Derive an independent 64-bit seed for a named purpose.

    BLAKE2b keyed with the root seed (8 bytes little-endian), hashing the
    purpose string; the first 8 digest bytes, little-endian, become the
    derived seed.  Stable across platforms and Python versions.
    """
    key = check_seed(root).to_bytes(8, "little")
    digest = hashlib.blake2b(purpose.encode("utf-8"), key=key, digest_size=8)
    return int.from_bytes(digest.digest(), "little")


# CPython 3.12+ warns from os.fork() when the process runs more than one
# thread; after ``import numpy`` OpenBLAS's pool is one.  Forking is safe
# here all the same: OpenBLAS shuts its pool down through pthread_atfork
# before the fork and starts it again on use, and the child only runs fn
# and leaves through os._exit.
_FORK_WARNING = (
    r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"
)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def map_forked(fn, items) -> list:
    """``[fn(x) for x in items]``, with contiguous chunks in forked workers.

    One chunk per usable CPU: this process computes the first, and a forked
    child each other, sending back its results or its first exception.
    The earliest exception in item order is raised, as the serial loop
    would raise it; a worker that dies raises ChildProcessError.  Every
    child is killed if this process raises or is interrupted, and reaped
    before this returns.  Serial with one usable CPU or fewer than two
    items.  ``fn`` needs no pickling, its results and exceptions do.
    """
    items = list(items)
    workers = min(_usable_cpus(), len(items))
    if workers < 2:
        return [fn(x) for x in items]
    cuts = [len(items) * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe), in chunk order
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_chunk(fn, items[start:stop], write)
            os.close(write)
            children.append((pid, read))
        results = [fn(x) for x in items[: cuts[1]]]
        outcomes = [_receive(read) for _, read in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, read in children:
            os.close(read)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), code, outcome in zip(children, codes, outcomes):
        if code < 0:
            raise ChildProcessError(f"worker process {pid} was killed by signal {-code}")
        if code or outcome is None:
            raise ChildProcessError(f"worker process {pid} exited with code {code} and no result")
        error, chunk = outcome
        if error is not None:
            raise error
        results.extend(chunk)
    return results


def _receive(fd: int):
    """The (exception, results) a worker pickled to ``fd``; None if unreadable."""
    with open(fd, "rb", closefd=False) as pipe:
        try:
            return pickle.load(pipe)
        except Exception:
            return None


def _run_chunk(fn, chunk, fd: int):
    """In a forked child: pickle (first exception, results) to ``fd``, then exit."""
    try:
        try:
            outcome = (None, [fn(x) for x in chunk])
        except BaseException as exc:
            outcome = (exc, None)
        with open(fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)
