"""Minimal dense real linear algebra used by all geometries.

Everything here targets small dense matrices (n up to ~50): a symmetric
eigendecomposition by LAPACK `eigh`, SPD square root / inverse built on it,
a scaling-and-squaring Taylor matrix exponential, and the indefinite
Minkowski bilinear form with signature (-, ..., -, +), time coordinate last.

Functions of a symmetric matrix (the SPD geometry's square roots and
exponentials) all go through `sym_eig`. `mat_exp` remains for the
non-symmetric generators: the exact solutions of the linear problems and
the ambient-step oracle in `checks`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonPositiveDefinite, NumericalFailure

# Scaling-and-squaring parameters: with the 1-norm scaled below _EXP_THETA
# the order-_EXP_TERMS Taylor remainder is far under one ulp.
_EXP_TERMS = 14
_EXP_THETA = 0.25
# An SPD matrix's smallest eigenvalue must exceed this times its max-norm.
_PD_EPS = 1e-13


def _as_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def symmetrize(a) -> np.ndarray:
    """Average a square matrix with its transpose."""
    a = _as_square(a)
    return 0.5 * (a + a.T)


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns (eigenvalues ascending, eigenvector matrix V) with A = V diag(w) V^T
    and V orthogonal. Only the lower triangle of `a` is read. Non-finite
    entries, or a LAPACK failure to converge, raise NumericalFailure.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise NumericalFailure("matrix has non-finite entries")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(f"eigendecomposition failed: {err}") from err
    return w, v


def mat_exp(a) -> np.ndarray:
    """Matrix exponential via scaling and squaring of a fixed-order Taylor sum.

    The squarings come from the 1-norm, which bounds the spectral radius, so
    a matrix of small entries but large norm is scaled too. Accurate to
    ~1e-13 relative for 1-norm up to ~10; dtype-generic.
    """
    a = _as_square(a)
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    eye = np.eye(n, dtype=np.result_type(a.dtype, float))
    if norm == 0.0:
        return eye.copy()
    squarings = max(0, math.ceil(math.log2(norm / _EXP_THETA)))
    b = a / (2.0**squarings)
    # Horner evaluation of sum_{k<=N} B^k / k!.
    result = eye + b / _EXP_TERMS
    for k in range(_EXP_TERMS - 1, 0, -1):
        result = eye + (b @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


def require_positive_definite(w, a) -> None:
    """NonPositiveDefinite unless the smallest eigenvalue w[0] of the symmetric
    matrix `a` exceeds _PD_EPS times its max-norm."""
    floor = _PD_EPS * float(abs(a).max())
    if w[0] <= floor:
        raise NonPositiveDefinite(
            f"matrix is not positive definite: min eigenvalue {w[0]:.3e} not above {floor:.3e}"
        )


def spd_sqrt(a) -> np.ndarray:
    """Unique SPD square root of an SPD matrix, via eigendecomposition."""
    a = _as_square(a)
    w, v = sym_eig(a)
    require_positive_definite(w, a)
    return symmetrize((v * np.sqrt(w)) @ v.T)


def spd_inv(a) -> np.ndarray:
    """Inverse of an SPD matrix through the same eigendecomposition path."""
    a = _as_square(a)
    w, v = sym_eig(a)
    require_positive_definite(w, a)
    return symmetrize((v / w) @ v.T)


def minkowski(y, z) -> float:
    """Indefinite inner product y^T J z with J = diag(-1, ..., -1, +1).

    The last coordinate carries the + sign.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape or y.ndim != 1:
        raise DimensionMismatch(f"incompatible shapes {y.shape} and {z.shape}")
    return float(y[-1] * z[-1] - y[:-1].dot(z[:-1]))


def minkowski_metric(n_plus_1: int) -> np.ndarray:
    """The matrix J = diag(-1, ..., -1, +1) of size n+1."""
    j = -np.eye(n_plus_1)
    j[-1, -1] = 1.0
    return j
