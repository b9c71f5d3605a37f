"""The three dense kernels of the subproblem solves, bound through ctypes
from the OpenBLAS that numpy itself loads: syrk forms J J^T, potrf factors
K = I + t c J J^T, and a dtrsv pair solves with the factor; and that
library's thread count, which this module sets to one at import.

numpy's Linux wheels bundle scipy-openblas64, an ILP64 OpenBLAS whose
symbols carry a `scipy_` prefix and a `64_` suffix; numpy's extension
module lists it as a dependency, so dlsym through that module finds them.
Every integer argument of the kernels is a 64-bit int; the thread count is
a C int. Each binding checks dtype, memory order and shape before it
passes a pointer, and raises ValueError otherwise. The routines are called
without ctypes argtypes, each argument wrapped by hand in its C type:
declared argtypes would convert every argument again on every call, in
the ADMM loop too.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
from numpy._core import _multiarray_umath

_lib = ctypes.CDLL(_multiarray_umath.__file__)
try:
    _dsyrk = _lib.scipy_cblas_dsyrk64_
    _dpotrf = _lib.scipy_dpotrf_64_     # Fortran entry: no LAPACKE NaN scan
    _dtrsv = _lib.scipy_cblas_dtrsv64_
    _get_config = _lib.scipy_openblas_get_config64_
    _set_num_threads = _lib.scipy_openblas_set_num_threads64_
    _get_num_threads = _lib.scipy_openblas_get_num_threads64_
except AttributeError as exc:
    raise ImportError(
        "signet needs a numpy that bundles scipy-openblas64, as numpy's Linux "
        f"wheels do; {_multiarray_umath.__file__} lacks {exc}") from None
_dsyrk.restype = _dpotrf.restype = _dtrsv.restype = None
_get_config.restype = ctypes.c_char_p
_set_num_threads.restype = None
_get_num_threads.restype = ctypes.c_int

# CBLAS enumerations, passed as C ints
_COL_MAJOR, _NO_TRANS, _TRANS, _LOWER, _NON_UNIT = 102, 111, 112, 122, 131
_ONE = ctypes.c_int64(1)
_F64 = np.dtype(np.float64)
_LOWER_CHAR = ctypes.c_char_p(b"L")

# numpy's OpenBLAS build and the core type whose kernels it picked, e.g.
# "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX
# MAX_THREADS=64"
BLAS_CONFIG = " ".join(_get_config().decode().split())

# One thread unless OPENBLAS_NUM_THREADS names a count, which OpenBLAS read
# when numpy loaded it. At the subproblem sizes here a second thread makes a
# fit slower and moves its last bits (README.md, "One BLAS thread by
# default"). The setting is process-wide, as the variable's would be.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    _set_num_threads(ctypes.c_int(1))


def num_threads() -> int:
    """The thread count numpy's OpenBLAS runs with, read from the library."""
    return _get_num_threads()


def _pointer(a: np.ndarray):
    """Address of the data of a writeable C-contiguous float64 array, for a
    ctypes call: a third of the time of a.ctypes.data."""
    return ctypes.byref(ctypes.c_double.from_buffer(a))


def _check(name: str, a, shape: tuple, fortran: bool = True):
    """Raise ValueError unless a is a float64 array of this shape and, if
    fortran (an array whose data pointer is passed), writeable and in
    Fortran order."""
    if not isinstance(a, np.ndarray) or a.dtype != _F64:
        raise ValueError(f"{name} must be a float64 array, got "
                         f"{getattr(a, 'dtype', type(a).__name__)}")
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if fortran and not a.flags.f_contiguous:
        raise ValueError(f"{name} must be in Fortran order")
    if fortran and not a.flags.writeable:
        raise ValueError(f"{name} must be writeable")


def _matrix(name: str, a) -> tuple:
    """The shape of a, a writeable float64 matrix in Fortran order, else
    ValueError."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2:
        raise ValueError(f"{name} must be a matrix, got shape {shape}")
    _check(name, a, shape)
    return shape


def syrk(alpha: float, A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """C += alpha A A^T on the lower triangle, in place, and returns C. A
    is (m, k) and C (m, m), both in Fortran order; C's upper triangle is
    left as it was."""
    m, k = _matrix("A", A)
    _check("C", C, (m, m))
    ld = ctypes.c_int64(max(m, 1))
    _dsyrk(_COL_MAJOR, _LOWER, _NO_TRANS, ctypes.c_int64(m), ctypes.c_int64(k),
           ctypes.c_double(alpha), _pointer(A.T), ld, ctypes.c_double(1.0),
           _pointer(C.T), ld)
    return C


def potrf(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive definite K (m x m,
    Fortran order), in place: LAPACK's dpotrf reads only the lower
    triangle, overwrites it with L and leaves the upper one as it was.
    Returns K; raises LinAlgError if K is not positive definite."""
    m = _matrix("K", K)[0]
    _check("K", K, (m, m))
    info = ctypes.c_int64(0)
    _dpotrf(_LOWER_CHAR, ctypes.byref(ctypes.c_int64(m)), _pointer(K.T),
            ctypes.byref(ctypes.c_int64(max(m, 1))), ctypes.byref(info))
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor of the array is not positive definite")
    return K


def trsv_pair(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z = K^{-1} b for K = L L^T, L the lower factor from potrf (m x m,
    Fortran order) and b of length m: one copy of b, then two BLAS dtrsv
    calls on it in place, L y = b and L^T z = y. For one right-hand side
    this is half the time of LAPACK's Cholesky solve at m ~ 300, and equal
    to it to rounding. The checks are one test when they pass, for the
    ADMM loop."""
    if not (isinstance(L, np.ndarray) and isinstance(b, np.ndarray)
            and b.ndim == 1 and L.shape == (b.size, b.size) and L.dtype == _F64
            and b.dtype == _F64 and L.flags.f_contiguous and L.flags.writeable):
        m = _matrix("L", L)[0]
        _check("L", L, (m, m))
        _check("b", b, (m,), fortran=False)
    m = len(b)
    z = b.copy()
    n, ld, a, x = ctypes.c_int64(m), ctypes.c_int64(max(m, 1)), _pointer(L.T), _pointer(z)
    _dtrsv(_COL_MAJOR, _LOWER, _NO_TRANS, _NON_UNIT, n, a, ld, x, _ONE)
    _dtrsv(_COL_MAJOR, _LOWER, _TRANS, _NON_UNIT, n, a, ld, x, _ONE)
    return z
