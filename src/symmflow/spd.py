"""Symmetric positive definite matrices under the product x . y = x y^{-1} x.

The natural base point is the identity, where tangents are plain symmetric
matrices, the geodesic exponential is the matrix exponential, and the triple
bracket is a quarter of the nested commutator. `SPD` therefore keeps its
stage coordinates at I and pulls the equation back through the displacement
y -> s y s with s = sqrt(y_l), computed once per step:

    K_i  = h exp(-theta_i/2) s^{-1} F(s exp(theta_i) s) s^{-1} exp(-theta_i/2)
    Kt_i = sqrt(x)/sinh(sqrt(x)) K_i,   x = (1/4)[[., theta_i], theta_i]
    y_next = s exp(sum_j b_j Kt_j) s

Every theta_i is symmetric, so one eigendecomposition theta_i = V diag(w) V^T,
the stage's data, gives exp(theta_i), and in its basis both maps of the
stage tangent are entrywise: with P = s^{-1} V diag(e^{-w/2}),

    Kt_i = V [(P^T h F P) o G] V^T,   G_jk = r_jk / sinh(r_jk),
    r_jk = |w_j - w_k| / 2,

where r_jk^2 are the eigenvalues of ad^2_theta_i (o is the entrywise
product) and G_jk = 1 at r_jk = 0. A truncated series takes
G_jk = 1 + sum_n c_n r_jk^(2n) instead. One eigendecomposition of y_l gives
s and s^{-1}, the step's base data (y_l, s, s^{-1}). A zero stage needs
none: its tangent is s^{-1} h F(y_l) s^{-1}, and the Exp of a zero update is
y_l itself. All products of symmetric factors are re-symmetrized to
suppress round-off drift, which keeps the output symmetric; its positive
definiteness rests on the stage guard of `SpdSpace.stage`, which refuses a
stage or an update whose eigenvalues spread too far for exp(theta), and on
`base`, which refuses a point that is not positive definite all the same.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SpaceContract, dexpinv_series_tail, require_ndarray
from .errors import (
    DimensionMismatch,
    NonPositiveDefinite,
    NotOnManifold,
    StepTooLarge,
    SymmetryViolation,
)
from .linalg import require_positive_definite, sym_eig, symmetrize

# ln(1/eps) = 36.04 in double precision.
MAX_STAGE_SPREAD = 36.0


def quadratic(s, y) -> np.ndarray:
    """The displacement action s y s (SPD for SPD y)."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != y.shape:
        raise DimensionMismatch(f"incompatible shapes {s.shape} and {y.shape}")
    return s @ y @ s


def triple(v, w, z) -> np.ndarray:
    """Triple bracket [v, w, z] = (1/4) [[v, w], z] of symmetric matrices."""
    c = v @ w - w @ v
    return 0.25 * (c @ z - z @ c)


def ad2(theta, w) -> np.ndarray:
    """Double bracket w -> (1/4) [[w, theta], theta] feeding the series."""
    c = w @ theta - theta @ w
    return 0.25 * (c @ theta - theta @ c)


def sqrt_pair(y):
    """(sqrt(y), sqrt(y)^{-1}) from a single eigendecomposition."""
    w, v = sym_eig(y)
    require_positive_definite(w, y)
    root = np.sqrt(w)
    return symmetrize((v * root) @ v.T), symmetrize((v / root) @ v.T)


def random_spd(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return symmetrize(g @ g.T / n + np.eye(n))


def random_sym(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = symmetrize(rng.standard_normal((n, n)))
    return scale * g / np.linalg.norm(g)


def _check_symmetric_field(value) -> float:
    """Symmetry defect of a field value; raises beyond the 1e-10 contract."""
    skew = float(abs(value - value.T).max())
    if skew > 1e-10 * max(float(abs(value).max()), 1e-300):
        raise SymmetryViolation(f"field value has symmetry defect {skew:.3e}")
    return skew


class SpdSpace(SpaceContract):
    """SPD matrices for the stepper, with stage coordinates at the identity.

    Points and field values move between y and I through s = sqrt(y), which
    `base` takes once per step with s^{-1}; a non-SPD y raises
    NonPositiveDefinite. The stage data of a non-zero theta is its
    eigendecomposition (w, V), which gives exp(theta) and the stage tangent;
    a zero stage takes none, and its Exp is y itself. `stage` raises
    StepTooLarge on a theta whose eigenvalues w, with y's own 0, spread
    beyond `MAX_STAGE_SPREAD` = ln(1/eps), so `exp` and `tangent` only
    compute: exp(theta) scales y by e^w, and past that spread the smallest
    factor is lost under the round-off of the largest, so the output need
    not be positive definite, or the stage has left y's scale behind (rk4
    on the field 1000 I from I at h = 0.1 gave 5.2e21 for the exact 101).
    The spread bounds a stage, not the point it reaches, which `base`
    refuses if it is not positive definite. `spd.ad2` is not
    called on the stage path: it stays as the tests' independent route to
    the series.
    """

    def base(self, y):
        s, s_inv = sqrt_pair(y)
        return y, s, s_inv

    def stage(self, theta):
        phi = math.sqrt(float(np.vdot(theta, theta)))
        if not 0.0 < phi < math.inf:
            return phi, None
        data = sym_eig(theta)
        lo, hi = data[0][0], data[0][-1]
        # The spread of {lo, 0, hi}: y itself is at 0 in stage coordinates.
        if hi - lo > MAX_STAGE_SPREAD or hi > MAX_STAGE_SPREAD or lo < -MAX_STAGE_SPREAD:
            raise StepTooLarge(
                f"stage eigenvalues {lo:.3f} to {hi:.3f} spread past {MAX_STAGE_SPREAD} with 0"
            )
        return phi, data

    def exp(self, base, theta, data):
        y, s, _ = base
        if data is None:
            return y
        w, v = data
        sv = s @ v
        return symmetrize((sv * np.exp(w)) @ sv.T)

    def tangent(self, base, theta, data, value, coefficients, h):
        _, _, s_inv = base
        if data is None:
            # A zero stage: the congruence to I alone, and dExp^{-1} is 1.
            return symmetrize(s_inv @ (h * value) @ s_inv)
        # In the eigenbasis of theta = V diag(w) V^T the pullback
        # exp(-theta/2) s^-1 F s^-1 exp(-theta/2) is P^T F P with
        # P = s^-1 V diag(e^{-w/2}), and ad^2_theta scales entry (i, j) by
        # r_ij^2 with r_ij = |w_i - w_j| / 2, so dExp^{-1} is a Hadamard factor.
        w, v = data
        p = (s_inv @ v) * np.exp(-0.5 * w)
        k = p.T @ (h * value) @ p
        if coefficients is None:
            r = 0.5 * abs(w[:, None] - w)
            k = k * np.divide(r, np.sinh(r), out=np.ones_like(r), where=r != 0.0)
        elif coefficients:
            d = w[:, None] - w
            k = k + k * dexpinv_series_tail(coefficients, 0.25 * (d * d))
        return symmetrize(v @ k @ v.T)

    def field_value(self, point, value, diagnostics: bool):
        skew = _check_symmetric_field(value)
        if diagnostics:
            return symmetrize(value), skew
        return value, 0.0

    def check_point(self, y) -> None:
        require_ndarray(y, 2)
        if not np.all(np.isfinite(y)):
            raise NotOnManifold("matrix has non-finite entries")
        skew = self.invariant_residual(y)
        if not self.within_tolerance(y, skew):
            raise NotOnManifold(f"matrix is not symmetric: max |y - y^T| = {skew:.3e}")
        # The eigenvalues `base` tests, so a point that a step's `base`
        # accepts passes here too.
        try:
            require_positive_definite(sym_eig(y)[0], y)
        except NonPositiveDefinite as err:
            raise NotOnManifold(str(err)) from err

    def scale(self, y) -> float:
        return float(abs(y).max())

    def invariant_residual(self, y) -> float:
        return float(abs(y - y.T).max())

    def renormalize(self, y):
        return symmetrize(y)


SPD = SpdSpace()
