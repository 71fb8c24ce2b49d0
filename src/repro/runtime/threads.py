"""The BLAS thread budget of this process.

numpy's wheels bundle scipy-openblas, whose library in ``numpy.libs``
exports ``scipy_openblas_set_num_threads64_`` /
``scipy_openblas_get_num_threads64_``.  They are reached through
:mod:`ctypes`, so no dependency is needed.  Where the library or the
symbols are absent (another BLAS, another platform) every function here
is a recorded no-op: :data:`BLAS_CONTROL` is None,
:func:`blas_threads` changes nothing and :func:`blas_build` is None.

Thread counts never change results here: each BLAS call the code makes
computes the same bits under one or several threads (checked for the
field-map GEMVs under 1 and 2).
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path

import numpy as np


def _openblas():
    """The loaded scipy-openblas library, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        for name in ("config", "corename"):
            fn = getattr(lib, f"scipy_openblas_get_{name}64_", None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
        return lib
    return None


#: The controllable BLAS library; None where it could not be found.
BLAS_CONTROL = _openblas()


def blas_build() -> str | None:
    """The BLAS build and the kernel set it runs on this CPU, or None.

    OpenBLAS picks its kernels per CPU at load time (``DYNAMIC_ARCH``),
    and kernels may round differently, so this belongs in any key that
    caches BLAS-computed floats.  None where the kernel set cannot be
    read (another BLAS, or no ``corename`` symbol): such a key would not
    pin the bits, so a caller should not cache.
    """
    if BLAS_CONTROL is None:
        return None
    parts = []
    for name in ("config", "corename"):
        fn = getattr(BLAS_CONTROL, f"scipy_openblas_get_{name}64_", None)
        if fn is None:
            return None
        parts.append((fn() or b"").decode(errors="replace"))
    return " | ".join(parts)


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block with ``n`` BLAS threads, then restore the count.

    Yields the count that was in force before, or None where the BLAS
    cannot be controlled (the block then runs unchanged).
    """
    if BLAS_CONTROL is None:
        yield None
        return
    before = int(BLAS_CONTROL.scipy_openblas_get_num_threads64_())
    BLAS_CONTROL.scipy_openblas_set_num_threads64_(int(n))
    try:
        yield before
    finally:
        BLAS_CONTROL.scipy_openblas_set_num_threads64_(before)
