"""One BLAS thread while the checks run.

OpenBLAS splits a LAPACK call over as many threads as the host offers,
and the split changes the order of floating-point sums, so the last
digits of an eigendecomposition, and with them the report hash, follow
the core count.  The checks therefore run on one thread, set through
the thread setter of the OpenBLAS that numpy bundles, reached with
ctypes as threadpoolctl does (https://github.com/joblib/threadpoolctl),
and the caller's count is put back afterwards.  Where no setter is
found the checks run on numpy's default threads, and `status` says why.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["one_thread", "status"]

_GET, _SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"


@functools.cache
def _thread_control():
    """(get, set, where) for the bundled OpenBLAS's thread count, or the
    reason, a string, that there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))
    if not paths:
        return f"no scipy-openblas library in {libs}"
    try:
        lib = ctypes.CDLL(paths[0])
        get, set_ = getattr(lib, _GET), getattr(lib, _SET)
    except (OSError, AttributeError) as exc:
        return f"no thread setter in {os.path.basename(paths[0])}: {exc}"
    get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
    return get, set_, f"{_SET} in {os.path.basename(paths[0])}"


@contextlib.contextmanager
def one_thread():
    """Run the block on one BLAS thread and restore the caller's count after
    it, or, with no thread setter, on numpy's default threads."""
    control = _thread_control()
    if isinstance(control, str):
        yield
        return
    get, set_, _ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def status() -> str:
    """How the checks' BLAS threads are set, for the report's environment."""
    control = _thread_control()
    if isinstance(control, str):
        return f"numpy's default threads (fallback: {control})"
    return f"1 thread ({control[2]})"
