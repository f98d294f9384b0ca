"""Freed grid-sized arrays stay in the heap while the checks run.

With glibc's default thresholds a freed transform output or pocketfft
scratch buffer goes back to the kernel, so the next transform of a
2^18-point grid faults the same 4 MB in again, about 990 pages a call.
`keep_freed_pages` sets both thresholds once per process through
`mallopt(3)`: M_MMAP_THRESHOLD to 32 MiB, glibc's own ceiling on 64-bit
hosts (DEFAULT_MMAP_THRESHOLD_MAX), and M_TRIM_THRESHOLD to twice that,
which is what glibc's dynamic rule would set.  Arrays above 32 MiB are
still mapped on their own and unmapped when freed, so big allocations
still give their memory back.  The C library is reached with ctypes
through the process's own symbols; where it has no mallopt, or mallopt
refuses, the checks run on the default heap and `status` says why.
"""

from __future__ import annotations

import ctypes
import functools

__all__ = ["keep_freed_pages", "status"]

_SETTINGS = (("M_MMAP_THRESHOLD", -3, 32 << 20), ("M_TRIM_THRESHOLD", -1, 64 << 20))


@functools.cache
def keep_freed_pages() -> str | None:
    """Set the heap thresholds, once per process; None when both took, else
    the reason, a string, that the heap keeps its defaults."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError) as exc:  # TypeError: no CDLL(None) on Windows
        return f"no mallopt in the C library: {exc}"
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for name, param, value in _SETTINGS:
        if mallopt(param, value) == 0:
            return f"mallopt({name}, {value}) returned 0"
    return None


def status() -> str:
    """How the heap's thresholds are set, for the report's environment."""
    reason = keep_freed_pages()
    if reason is not None:
        return f"C library defaults (fallback: {reason})"
    return ", ".join(f"{name} {value >> 20} MiB" for name, _, value in _SETTINGS) + " (mallopt)"
