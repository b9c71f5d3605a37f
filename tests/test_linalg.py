"""signet.linalg's bindings of numpy's OpenBLAS against numpy and scipy:
bitwise where the same routine does the same arithmetic, and a ValueError
before any pointer is passed for an array the routine cannot take."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from signet.linalg import potrf, syrk, trsv_pair

SIZES = pytest.mark.parametrize("m", [6, 252, 289])


def _spd(rng, m):
    """K = I + J J^T / m in C order, exactly symmetric (numpy forms J J^T
    with syrk)."""
    J = rng.normal(size=(m, m + 5))
    K = J @ J.T
    K /= m
    K[np.diag_indices_from(K)] += 1.0
    return K


@SIZES
@pytest.mark.parametrize("k", [1, 5, 73])
def test_syrk_lower_triangle_is_product_scaled_and_added(rng, m, k):
    # alpha a power of two scales exactly, so the kernel's fused
    # C + alpha (A A^T) rounds as numpy's product, scaled, then added
    A = np.asfortranarray(rng.normal(size=(m, k)))
    C0 = np.asfortranarray(rng.normal(size=(m, m)))
    for alpha in (1.0, 0.25, 2.0 ** 20):
        C = C0.copy(order="F")
        assert syrk(alpha, A, C) is C
        expected = A @ A.T
        expected *= alpha
        expected += C0
        assert np.array_equal(np.tril(C), np.tril(expected))
        assert np.array_equal(np.triu(C, 1), np.triu(C0, 1))
    C = syrk(0.37, A, C0.copy(order="F"))
    np.testing.assert_allclose(np.tril(C), np.tril(C0 + 0.37 * (A @ A.T)),
                               rtol=1e-14, atol=1e-14 * k)


@SIZES
def test_potrf_is_numpy_cholesky(rng, m):
    K = _spd(rng, m)
    KF = np.asfortranarray(K)
    L = potrf(KF)
    assert L is KF
    assert np.array_equal(np.tril(L), np.linalg.cholesky(K))
    assert np.array_equal(np.triu(L, 1), np.triu(K, 1))


@SIZES
def test_trsv_pair_is_solve_triangular_pair(rng, m):
    L = np.asfortranarray(np.linalg.cholesky(_spd(rng, m)))
    b = rng.normal(size=m)
    b0 = b.copy()
    expected = scipy.linalg.solve_triangular(
        L, scipy.linalg.solve_triangular(L, b, lower=True), trans="T", lower=True)
    assert np.array_equal(trsv_pair(L, b), expected)
    assert np.array_equal(b, b0)
    # a strided right-hand side is copied, not rejected
    wide = np.repeat(b, 2)
    assert np.array_equal(trsv_pair(L, wide[::2]), expected)


def _read_only(a):
    out = a.copy(order="F")
    out.flags.writeable = False
    return out


def _f32(a):
    return a.astype(np.float32, order="K")


# each call gets K (Fortran), its factor L, A (Fortran) and b, all valid
BAD_CALLS = {
    "float32 K": lambda K, L, A, b: potrf(_f32(K)),
    "C-ordered K": lambda K, L, A, b: potrf(np.ascontiguousarray(K)),
    "non-square K": lambda K, L, A, b: potrf(np.asfortranarray(K[:, :4])),
    "1-D K": lambda K, L, A, b: potrf(b),
    "read-only K": lambda K, L, A, b: potrf(_read_only(K)),
    "float32 A": lambda K, L, A, b: syrk(1.0, _f32(A), K),
    "C-ordered A": lambda K, L, A, b: syrk(1.0, np.ascontiguousarray(A), K),
    "C-ordered C": lambda K, L, A, b: syrk(1.0, A, np.ascontiguousarray(K)),
    "short A": lambda K, L, A, b: syrk(1.0, np.asfortranarray(A[:4]), K),
    "float32 L": lambda K, L, A, b: trsv_pair(_f32(L), b),
    "C-ordered L": lambda K, L, A, b: trsv_pair(np.ascontiguousarray(L), b),
    "float32 b": lambda K, L, A, b: trsv_pair(L, _f32(b)),
    "short b": lambda K, L, A, b: trsv_pair(L, b[:4]),
    "2-D b": lambda K, L, A, b: trsv_pair(L, b[:, None]),
    "list b": lambda K, L, A, b: trsv_pair(L, b.tolist()),
    "0-d b": lambda K, L, A, b: trsv_pair(L, np.float64(1.0)),
    "list L": lambda K, L, A, b: trsv_pair(L.tolist(), b),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_value_error(rng, call):
    K = np.asfortranarray(_spd(rng, 6))
    L = potrf(K.copy(order="F"))
    A = np.asfortranarray(rng.normal(size=(6, 3)))
    b = rng.normal(size=6)
    K0, L0 = K.copy(order="F"), L.copy(order="F")
    with pytest.raises(ValueError):
        call(K, L, A, b)
    # rejected before any routine ran
    assert np.array_equal(K, K0) and np.array_equal(L, L0)


def test_not_positive_definite_raises_linalg_error():
    K = np.asfortranarray(np.diag([1.0, 2.0, -1.0, 4.0]))
    with pytest.raises(np.linalg.LinAlgError, match=(
            r"^3-th leading minor of the array is not positive definite$")):
        potrf(K)


def test_numpy_without_the_library_fails_import():
    # a numpy build whose extension module does not reach scipy-openblas64
    code = """
import ctypes, types
ctypes.CDLL = lambda path: types.SimpleNamespace()
try:
    import signet.linalg
except ImportError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True, env=env).stdout
    assert out.startswith("signet needs a numpy that bundles scipy-openblas64")
