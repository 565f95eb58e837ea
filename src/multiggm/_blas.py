"""One OpenBLAS thread per solve.

numpy bundles its own OpenBLAS, which starts one worker thread per core.
The solver's matrices (p <= a few hundred) are too small for that: on 2
cores an ADMM iteration at p=50 took 8.2 ms with two threads and 1.6 ms
with one.  :func:`single_threaded` sets that OpenBLAS to one thread while at
least one caller is inside it, and restores the count it found when the
last caller leaves.  Parallelism comes from running solves side by side in
forked lanes (:mod:`multiggm._lanes`), not from inside BLAS; the grid and
the replications fork inside :func:`single_threaded`, so each child starts
at one thread.

The package runs on numpy alone, so numpy's OpenBLAS is the only one it
loads.  It is bound once, on first use and never at import (``dlopen`` with
``RTLD_NOLOAD``, which never loads a library).  The thread count is a
property of the whole process, so the entry count, the bound library and
the saved count are module state, guarded by one lock.  Without a library
or a symbol the manager does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy

# (prefix, suffix) of the exported names: the 64-bit-integer and the 32-bit
# scipy-openblas builds that numpy wheels bundle, and a plain OpenBLAS.
_SYMBOL_FORMS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


@dataclass(frozen=True)
class OpenBlas:
    """One loaded OpenBLAS: its file name and its thread and config calls."""

    name: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_config: Callable[[], bytes]


_lock = threading.Lock()
# numpy's bound libraries; None until the first call looks them up.
_bound: list[OpenBlas] | None = None
_depth = 0
_saved: list[tuple[OpenBlas, int]] = []


def _bind(path: Path) -> OpenBlas | None:
    """Bind the library at ``path`` if the process has loaded it, else None."""
    try:
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix, suffix in _SYMBOL_FORMS:
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        config = getattr(lib, f"{prefix}get_config{suffix}", None)
        if get is None or set_ is None or config is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        return OpenBlas(path.name, get, set_, config)
    return None


def _libraries() -> list[OpenBlas]:
    """Bind numpy's OpenBLAS on the first call; the caller holds the lock."""
    global _bound
    if _bound is None:
        libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        _bound = [lib for lib in map(_bind, sorted(libdir.glob("*openblas*.so*"))) if lib]
    return _bound


def libraries() -> list[OpenBlas]:
    """numpy's bundled OpenBLAS, as a list that is empty when none was found."""
    with _lock:
        return list(_libraries())


@contextmanager
def single_threaded():
    """Run the body with numpy's OpenBLAS at one thread.

    Re-entrant and thread-safe.  The first caller to enter saves the count
    and sets it to 1; the last caller to leave restores the saved count,
    also when the body raises.
    """
    global _depth
    with _lock:
        if _depth == 0:
            for lib in _libraries():
                _saved.append((lib, lib.get_num_threads()))
                lib.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for lib, count in _saved:
                    lib.set_num_threads(count)
                _saved.clear()


def describe() -> list[dict]:
    """File name, build string and solve-time thread count of each library."""
    with single_threaded():
        return [
            {
                "library": lib.name,
                "config": lib.get_config().decode(),
                "solve_threads": lib.get_num_threads(),
            }
            for lib in libraries()
        ]
