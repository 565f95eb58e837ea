"""One OpenBLAS thread per solve.

numpy and scipy each bundle their own OpenBLAS, and each starts one worker
thread per core.  The solver's matrices (p <= a few hundred) are too small
for that: on 2 cores an ADMM iteration at p=50 took 8.2 ms with two threads
and 1.6 ms with one.  :func:`single_threaded` sets every loaded OpenBLAS to
one thread while at least one caller is inside it, and restores the counts
it found when the last caller leaves.  Parallelism comes from running solves
side by side in forked lanes (:mod:`multiggm._lanes`), not from inside
BLAS; the grid and the replications fork inside :func:`single_threaded`, so
each child starts at one thread.

numpy's OpenBLAS is always loaded.  scipy's is loaded only once a scipy
module that links it (``scipy.linalg``, ``scipy.special``) is imported, and
estimation, tuning and most simulations never import one.  So the manager
binds only libraries that the process has loaded already (``dlopen`` with
``RTLD_NOLOAD``, which never loads one), and looks again on every entry: a
``diagnose`` that loads ``scipy.linalg`` after a solve still runs its
later solves with both libraries at one thread.

The thread count is a property of the whole process, so the entry count,
the bound libraries and the saved counts are module state, guarded by one
lock.  Libraries are looked up on first use, never at import.  Without a
library or a symbol the manager does nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (prefix, suffix) of the exported names: numpy's 64-bit-integer build,
# scipy's build, and a plain OpenBLAS.
_SYMBOL_FORMS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))
_PACKAGES = ("numpy", "scipy")


@dataclass(frozen=True)
class OpenBlas:
    """One loaded OpenBLAS: its file name and its thread and config calls."""

    name: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_config: Callable[[], bytes]


_lock = threading.Lock()
# Package name -> its bundled OpenBLAS files, listed once.
_files: dict[str, list[Path]] = {}
# Package name -> its bound libraries; a package enters once one is loaded.
_bound: dict[str, list[OpenBlas]] = {}
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


def _refresh() -> list[OpenBlas]:
    """Bind what has been loaded since the last call; the caller holds the lock."""
    for name in _PACKAGES:
        package = sys.modules.get(name)
        if name in _bound or package is None:
            continue
        if name not in _files:
            libdir = Path(package.__file__).resolve().parent.parent / f"{name}.libs"
            _files[name] = sorted(libdir.glob("*openblas*.so*"))
        found = [lib for lib in map(_bind, _files[name]) if lib]
        if found:
            _bound[name] = found
    return [lib for libs in _bound.values() for lib in libs]


def libraries() -> list[OpenBlas]:
    """The bundled OpenBLAS libraries loaded in this process, numpy's first."""
    with _lock:
        return _refresh()


@contextmanager
def single_threaded():
    """Run the body with every loaded OpenBLAS at one thread.

    Re-entrant and thread-safe.  Each entry binds the libraries loaded since
    the last one; a library not yet pinned has its count saved and set to
    1.  The last caller to leave restores the saved counts, also when the
    body raises.
    """
    global _depth
    with _lock:
        for lib in _refresh():
            if all(lib is not pinned for pinned, _ in _saved):
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
