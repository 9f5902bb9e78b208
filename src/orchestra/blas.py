"""The loaded OpenBLAS, asked through ctypes.

Same config + same seed gives bit-identical runs only under the same BLAS
thread count, and the PPO update runs its two halves at once only when the
BLAS runs one thread; both ask ``openblas_threads``.
"""
from __future__ import annotations

import ctypes
from typing import Optional

_PREFIXES = ("openblas_", "scipy_openblas_")
_SUFFIXES = ("", "64_")


def openblas_function(name: str):
    """The loaded OpenBLAS's ``name`` (say ``"get_num_threads"``) under any
    of its symbol spellings; None where there is no OpenBLAS to ask."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:     # not Linux
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                function = getattr(lib, prefix + name + suffix, None)
                if function is not None:
                    return function
    return None


def openblas_threads() -> Optional[int]:
    """Thread count of the loaded OpenBLAS; None where it cannot be asked."""
    getter = openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())
