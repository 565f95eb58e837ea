"""Map a function over a few items in forked lanes, one per usable CPU.

The package's one parallel mechanism: it runs the cells of the e-BIC
grid, the replications of a Monte Carlo cell, and large CSV reads and
writes, all of which hold the interpreter lock for most of their time.
:func:`map_in_lanes` runs items ``0::L`` in the caller and items ``i::L`` in
each of ``L - 1`` forked children.  A child pickles its outcomes (each
result or the exception it raised) to the caller over a pipe and always
leaves through ``os._exit``, so it runs none of the caller's exit handlers
and flushes none of its buffers.  The caller reaps every child before it
returns, and runs in its own lane the items of a child that could not be
started or that ended without sending its outcomes.  With ``L = 1`` nothing
is forked and the items run one after another in the caller: the same loop.

:func:`lane_count` picks ``L`` from what the process can observe: fork
exists, the caller is the main thread and the only Python thread (a fork
copies only the calling thread, and a lock another thread holds stays held
in the child), no multi-lane map is running (in the caller's lane or in a
child), so lanes never nest, and the work is above the caller's break-even
size.  It is ``min(items, usable_cpus())``, so ``taskset -c 0`` gives one
lane.

Callers whose items make BLAS calls fork inside
:func:`multiggm._blas.single_threaded`, so every child inherits one
OpenBLAS thread.  On Python 3.12 and later, ``os.fork`` warns with a
``DeprecationWarning`` when the process has other OS threads, such as
OpenBLAS's; the warning is not silenced.
"""

from __future__ import annotations

import os
import pickle
import threading

# True while a map with more than one lane runs: in its caller, and in the
# children, which inherit it.
_mapping = False


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def lane_count(n_items: int, work: float = 0.0, min_work: float = 0.0) -> int:
    """Lanes for ``n_items`` items holding ``work`` units; one below ``min_work``."""
    if (
        _mapping
        or not hasattr(os, "fork")
        or threading.current_thread() is not threading.main_thread()
        or threading.active_count() > 1
        or work < min_work
    ):
        return 1
    return max(1, min(n_items, usable_cpus()))


def _outcomes(fn, items) -> list:
    """``(True, fn(item))`` for each item, up to ``(False, exception)`` for the first that raises.

    The items after it are not run: the caller stops at that exception
    before it reaches them.
    """
    outcomes = []
    for item in items:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def _fork_lane(fn, items):
    """Start a child that sends ``_outcomes(fn, items)``; its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(_outcomes(fn, items), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(pid: int, pipe):
    """The outcomes a child sent, or None when it did not exit cleanly after sending them."""
    try:
        with pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
        return None
    try:
        return pickle.loads(payload)
    except Exception:  # an exception that pickles but does not unpickle
        return None


def map_in_lanes(fn, items, lanes: int = 1):
    """``fn`` over ``items`` in ``lanes`` lanes; an iterator over the results.

    All the work is done, and every child reaped, before this returns.  The
    iterator then yields each item's result in item order, and raises an
    item's exception when it reaches that item, as the serial loop would.
    A lane whose fork fails runs in the caller.  While more than one lane
    runs, :func:`lane_count` gives one lane, in the caller and the children.
    """
    global _mapping
    items = list(items)
    lanes = max(1, min(lanes, len(items)))
    children = {}
    outer, _mapping = _mapping, _mapping or lanes > 1
    try:
        for lane in range(1, lanes):
            try:
                children[lane] = _fork_lane(fn, items[lane::lanes])
            except OSError:  # no process to spare
                pass
        by_lane = [_outcomes(fn, items[::lanes])]
        for lane in range(1, lanes):
            sent = _collect(*children.pop(lane)) if lane in children else None
            by_lane.append(_outcomes(fn, items[lane::lanes]) if sent is None else sent)
    finally:
        _mapping = outer
        for pid, pipe in children.values():
            pipe.close()
            os.waitpid(pid, 0)
    return (_unwrap(by_lane[i % lanes][i // lanes]) for i in range(len(items)))


def _unwrap(outcome):
    ok, value = outcome
    if not ok:
        raise value
    return value
