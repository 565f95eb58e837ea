"""One OpenBLAS thread per solve.

numpy and scipy each bundle their own OpenBLAS, and each starts one worker
thread per core.  The solver's matrices (p <= a few hundred) are too small
for that: on 2 cores an ADMM iteration at p=50 took 8.2 ms with two threads
and 1.6 ms with one.  :func:`single_threaded` sets every bundled OpenBLAS to
one thread while at least one caller is inside it, and restores the counts
it found when the last caller leaves.  Parallelism comes from running solves
side by side (the experiments' ``threads`` pool), not from inside BLAS.

The thread count is a property of the whole process, so the entry count and
the saved counts are module state, guarded by one lock.  Libraries are
looked up on first use, never at import, so importing the package leaves
numpy alone.  Without a library or a symbol the manager does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (prefix, suffix) of the exported names: numpy's 64-bit-integer build,
# scipy's build, and a plain OpenBLAS.
_SYMBOL_FORMS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


@dataclass(frozen=True)
class OpenBlas:
    """One loaded OpenBLAS: its file name and its thread and config calls."""

    name: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_config: Callable[[], bytes]


_lock = threading.Lock()
_libraries: list[OpenBlas] | None = None
_depth = 0
_saved: list[tuple[OpenBlas, int]] = []


def _bind(path: Path) -> OpenBlas | None:
    lib = ctypes.CDLL(str(path))
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


def _find() -> list[OpenBlas]:
    # The package's own imports (numpy, scipy.linalg) have loaded these
    # libraries already, so CDLL returns the handles in use.
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            try:
                lib = _bind(path)
            except OSError:
                continue
            if lib is not None:
                found.append(lib)
    return found


def libraries() -> list[OpenBlas]:
    """The bundled OpenBLAS libraries, looked up on the first call."""
    global _libraries
    with _lock:
        if _libraries is None:
            _libraries = _find()
        return _libraries


@contextmanager
def single_threaded():
    """Run the body with every bundled OpenBLAS at one thread.

    Re-entrant and thread-safe: the first caller to enter saves each
    library's count and sets it to 1, the last to leave restores the saved
    counts, also when the body raises.
    """
    global _depth, _saved
    libs = libraries()
    with _lock:
        if _depth == 0:
            _saved = [(lib, lib.get_num_threads()) for lib in libs]
            for lib in libs:
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
