"""Run numeric work on one OpenBLAS thread, so results do not depend on the host's core count.

OpenBLAS splits a matrix product's sums over its threads, so the last digits
of ``X.T @ X``, and of all that follows from it, change with the thread
count.  numpy's bundled OpenBLAS exports its thread-count getter and setter;
they are found through ``ctypes`` on the first pin, never at import.  Where
they are absent (another BLAS build) a pin does nothing.  The pin is
process-wide: nested and concurrent pins share it, and the last to close
restores the count from before the first.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_lock = threading.Lock()
_api = None  # numpy's OpenBLAS (get, set) thread-count functions once located; () if it has none
_open = 0  # pins now open
_prior = 0  # the thread count before the first of them


def _locate() -> tuple:
    import ctypes

    import numpy.linalg._umath_linalg as linalg

    try:  # dlsym on a library's handle also searches what it links, numpy's OpenBLAS among them
        lib = ctypes.CDLL(linalg.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return ()


@contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread for the block, then restore the prior count."""
    global _api, _open, _prior
    with _lock:
        if _api is None:
            _api = _locate()
        api = _api
        if api and not _open:
            _prior = api[0]()
            api[1](1)
        _open += bool(api)
    try:
        yield
    finally:
        with _lock:
            _open -= bool(api)
            if api and not _open:
                api[1](_prior)


def blas_threads():
    """What a manifest records: 1 while a pin is open, else "unpinned"."""
    return 1 if _open else "unpinned"
