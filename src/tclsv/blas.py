"""A one-thread scope for the OpenBLAS that numpy loaded, reached through ctypes.

Small matrix products gain nothing from OpenBLAS's threads, whose idle
workers spin between calls.  ``single_thread()`` runs a block with one BLAS
thread and restores the previous count afterwards.  Where numpy's BLAS is not
an OpenBLAS this process maps (found from /proc/self/maps, so on Linux), it
does nothing.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Callable, Iterator
from contextlib import contextmanager

logger = logging.getLogger(__name__)

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
