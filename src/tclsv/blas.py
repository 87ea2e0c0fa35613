"""OpenBLAS's thread settings: an idle-worker timeout and a one-thread scope.

Importing this module sets ``OPENBLAS_THREAD_TIMEOUT``, unless the
environment already does, so that OpenBLAS's worker threads go to sleep as
soon as a call ends instead of spinning for about 0.13 s waiting for the next.
OpenBLAS reads the variable once, when numpy loads it, so ``tclsv`` imports
this module before anything imports numpy; it has no effect when numpy was
imported first.

Small matrix products still gain nothing from the threads, which only cost
CPU time on them.  ``single_thread()`` runs a block with one BLAS thread and
restores the previous count afterwards.  Where numpy's BLAS is not an
OpenBLAS this process maps (found from /proc/self/maps, so on Linux), it does
nothing.
"""

from __future__ import annotations

import functools
import logging
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager

logger = logging.getLogger(__name__)

# An idle OpenBLAS worker spins for 2**THREAD_TIMEOUT cycles before it sleeps.
# At the library's default, 28 (about 0.13 s at 2 GHz), it burns a core through
# every one-core pass between two products.  4 is the smallest value OpenBLAS
# accepts; train-dnn, whose products now wake a sleeping worker, ran no slower
# with it than with 22 or 28 (2-core x86-64, OpenBLAS 0.3.31).
THREAD_TIMEOUT = 4
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(THREAD_TIMEOUT))

# (getter, setter): the names in numpy's bundled scipy-openblas, then stock OpenBLAS's
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's (get, set) thread-count functions, or None if there are none."""
    import ctypes  # here, so that importing the CLI does not pay for it

    import numpy  # noqa: F401 - loads the library looked for

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    logger.debug("no OpenBLAS thread controls found; BLAS threads are left as they are")
    return None


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the block with one OpenBLAS thread, then restore the previous count."""
    found = controls()
    if found is None:
        yield
        return
    get, set_ = found
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
