"""Worker processes for independent pieces of work, and the thread cap.

``MCMCCALC_THREADS`` caps the numeric thread pools (see :mod:`mcmccalc.cli`)
and the number of worker processes :func:`run_forked` is given.  This module
imports only the standard library, so the command line driver can read the
cap before numpy loads its BLAS.

:func:`run_forked` runs the first piece in the calling process and every
other piece in a child made by ``os.fork``.  A child inherits the parent's
memory, so the work needs no pickling on the way in; it sends back one
pickled outcome through a pipe and exits.  Every child is waited for on
every path, and an exception raised in a child is raised again in the
parent with its type and message.  On Linux the kernel kills a child whose
parent dies, so no child outlives a caller stopped by a signal either.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from typing import BinaryIO, Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def thread_cap() -> Optional[int]:
    """The positive integer in ``MCMCCALC_THREADS``, or None when it is unset
    or anything else."""
    value = os.environ.get("MCMCCALC_THREADS", "")
    return int(value) if value.isdigit() and int(value) > 0 else None


def worker_count(pieces: int) -> int:
    """Worker processes for ``pieces`` independent pieces: at most one per
    piece and per usable CPU, and at most ``MCMCCALC_THREADS`` when set; one
    outside Linux, and one while this process runs other Python threads."""
    # Elsewhere a fork without exec is either missing or unsafe once the
    # system BLAS has started its threads (macOS's Accelerate and libdispatch).
    # A child forked while another thread holds a lock (a logging or stream
    # lock, say) would hang on it, and its parent with it.
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    cap = thread_cap()
    return min(pieces, cpus, cpus if cap is None else cap)


def _payload(outcome: Tuple[bool, object]) -> bytes:
    """``outcome`` pickled; an exception that would not come back with its
    type and message travels as a RuntimeError naming both."""
    ok, value = outcome
    if ok:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    try:
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(data)[1]
        if type(back) is type(value) and str(back) == str(value):
            return data
    except Exception:  # it does not pickle, or does not rebuild
        pass
    return pickle.dumps((False, RuntimeError("%s: %s" % (type(value).__name__, value))))


def _die_with(parent: int) -> None:
    """In a forked child: have the kernel send SIGKILL when the parent
    (strictly, the thread that forked) ends, and exit now if it has already
    ended."""
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL))
    if os.getppid() != parent:
        os._exit(1)


def _fork(run: Callable[..., T], args: tuple) -> Tuple[int, BinaryIO]:
    """Start ``run(*args)`` in a forked child; returns the child's pid and
    the read end of the pipe that carries its pickled outcome."""
    parent = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:  # the child: it never returns, and os._exit skips the parent's exit handlers
        _die_with(parent)
        os.close(read)
        try:
            outcome = (True, run(*args))
        except Exception as exc:
            outcome = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(_payload(outcome))
        status = 0
    finally:
        os._exit(status)


def run_forked(run: Callable[..., T], pieces: Sequence[tuple]) -> List[T]:
    """``[run(*args) for args in pieces]``, with the pieces after the first
    in forked children while this process runs the first.

    If this process raises (in the first piece, or while it waits), the
    children are killed and waited for, and the exception propagates;
    otherwise the first failed child's exception is raised once every child
    has been waited for.
    """
    children: List[Tuple[int, BinaryIO]] = []
    statuses: List[int] = []
    try:
        for args in pieces[1:]:
            children.append(_fork(run, args))
        results = [run(*pieces[0])]
        received = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), data, status in zip(children, received, statuses):
        if not data:
            raise RuntimeError("worker process %d ended without a result (wait status %d)"
                               % (pid, status))
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results
