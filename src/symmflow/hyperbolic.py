"""Hyperbolic n-space as the upper unit hyperboloid in Minkowski R^{n+1}.

Coordinates carry the time component LAST: the bilinear form is
<y, z> = y_t z_t - y_s . z_s, i.e. J = diag(-1, ..., -1, +1), and the
manifold is {y : <y, y> = 1, y_t > 0}. Tangents at y are Minkowski
orthogonal to y and spacelike, so phi = sqrt(-<v, v>) is real and

    exp_point(y, v) = sinh(phi)/phi * v + cosh(phi) * y.

Unlike the sphere there is no conjugate-point singularity: the inverse
differential of the exponential *contracts* the normal component by
phi/sinh(phi) <= 1. Steps are still capped at phi = 30 because the ambient
coordinates grow like e^phi and the hyperboloid residual would drown in
round-off.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Chart, SpaceContract
from .errors import NonSpacelikeTangent, NumericalFailure, StepTooLarge
from .linalg import minkowski, minkowski_metric, spd_sqrt

PHI_SMALL = 1e-4
MAX_STAGE_RAPIDITY = 30.0


def base_point(n: int) -> np.ndarray:
    """The reference point (0, ..., 0, 1) on the upper sheet."""
    o = np.zeros(n + 1)
    o[-1] = 1.0
    return o


def _sinh_over_phi(phi: float) -> float:
    if phi < PHI_SMALL:
        p2 = phi * phi
        return 1.0 + p2 / 6.0 + p2 * p2 / 120.0
    return math.sinh(phi) / phi


def _phi_over_sinh(phi: float) -> float:
    if phi < PHI_SMALL:
        p2 = phi * phi
        return 1.0 - p2 / 6.0 + 7.0 * p2 * p2 / 360.0
    return phi / math.sinh(phi)


def _rapidity(v) -> float:
    """phi = sqrt(-<v, v>) of a spacelike tangent, with a guard on the sign."""
    m = minkowski(v, v)
    if -m < -1e-12 * float(v @ v):
        raise NonSpacelikeTangent(f"tangent has Minkowski square norm {m:.3e} > 0")
    return math.sqrt(max(-m, 0.0))


def exp_point(base, v):
    """Geodesic exponential along the hyperbola of v, arc length sqrt(-<v,v>)."""
    phi = _rapidity(v)
    if phi == 0.0:
        return base
    if phi > MAX_STAGE_RAPIDITY:
        raise StepTooLarge(f"stage rapidity {phi:.3f} > {MAX_STAGE_RAPIDITY}")
    return _sinh_over_phi(phi) * v + math.cosh(phi) * base


def exp_half(base, v):
    """Geodesic midpoint Exp(v/2) = sinh(phi/2)/phi * v + cosh(phi/2) * base."""
    phi = _rapidity(v)
    if phi == 0.0:
        return base
    if phi > MAX_STAGE_RAPIDITY:
        raise StepTooLarge(f"stage rapidity {phi:.3f} > {MAX_STAGE_RAPIDITY}")
    half = 0.5 * phi
    return (_sinh_over_phi(half) * 0.5) * v + math.cosh(half) * base


def transport_inv(mid, w):
    """Parallel transport of w back to the base: w - 2 s <s, w> at s = mid."""
    return w - (2.0 * minkowski(mid, w)) * mid


def dexpinv(theta, w):
    """Inverse differential of the exponential; contracts, never singular."""
    m = minkowski(theta, theta)
    phi2 = -m
    if phi2 <= 0.0:
        return w
    phi = math.sqrt(phi2)
    factor = _phi_over_sinh(phi) - 1.0
    # Minkowski projection normal to theta: w + <theta, w> theta / phi^2.
    return w + factor * (w + (minkowski(theta, w) / phi2) * theta)


def triple(u, v, w):
    """Triple bracket [u, v, w] = <u, w> v - <v, w> u (Minkowski products)."""
    return minkowski(u, w) * v - minkowski(v, w) * u


def sigma(s) -> np.ndarray:
    """Point reflection through s: the Minkowski isometry 2 s <s, .> - I."""
    n = s.shape[0]
    j = minkowski_metric(n)
    return 2.0 * np.outer(s, j @ s) - np.eye(n)


def quadratic(s) -> np.ndarray:
    """Displacement sigma_s sigma_o: slides the reference point along the
    geodesic through s to twice the distance of s.

    sigma_o is J itself, so the matrix is sigma(s) @ J; it equals the square
    of the Lorentz boost taking the reference point to s.
    """
    return sigma(s) @ minkowski_metric(s.shape[0])


def hat_matrix(base, v) -> np.ndarray:
    """Ambient generator of the geodesic flow of v: hat(v) @ base == v."""
    j = minkowski_metric(base.shape[0])
    return np.outer(v, j @ base) - np.outer(base, j @ v)


def lorentz_boost(spatial) -> np.ndarray:
    """Symmetric Lorentz boost with block form [[sqrt(I+ss^T), s], [s^T, s_t]].

    Maps the reference point to (s; sqrt(1+|s|^2)) on the upper sheet.
    """
    s = np.asarray(spatial, dtype=float)
    n = s.shape[0]
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = spd_sqrt(np.eye(n) + np.outer(s, s))
    out[:n, n] = s
    out[n, :n] = s
    out[n, n] = math.sqrt(1.0 + float(s @ s))
    return out


def random_point(rng, n: int, scale: float = 1.0):
    """Random point: exponential of a random tangent at the reference point."""
    o = base_point(n)
    v = np.zeros(n + 1)
    v[:n] = rng.standard_normal(n)
    v *= scale / np.linalg.norm(v)
    return exp_point(o, v)


def random_tangent(rng, base, scale: float = 1.0):
    w = rng.standard_normal(base.shape[0])
    w = w - minkowski(w, base) * base
    phi = math.sqrt(-minkowski(w, w))
    return (scale / phi) * w


class HyperboloidChart(Chart):
    """Chart at a hyperboloid point: stage tangents are ambient vectors there.

    The rapidity cap is enforced by `exp_point` and `exp_half` themselves.
    """

    def __init__(self, base):
        self.base = base

    def norm(self, theta) -> float:
        return math.sqrt(max(-minkowski(theta, theta), 0.0))

    def exp(self, theta):
        return exp_point(self.base, theta)

    def at_base(self, value):
        return value

    def pullback(self, theta, endpoint, value):
        return transport_inv(exp_half(self.base, theta), value)

    def dexpinv(self, theta, w):
        return dexpinv(theta, w)

    def ad2(self, theta, w):
        return triple(w, theta, theta)

    def field_value(self, point, value, diagnostics: bool):
        if not diagnostics:
            return value, 0.0
        tangent = value - minkowski(value, point) * point
        return tangent, float(np.max(np.abs(value - tangent)))


class HyperbolicSpace(SpaceContract):
    """The hyperboloid for the stepper: a chart at every step's base point."""

    has_closed_dexpinv = True

    def chart(self, y) -> HyperboloidChart:
        return HyperboloidChart(y)

    def invariant_residual(self, y) -> float:
        return abs(minkowski(y, y) - 1.0)

    def renormalize(self, y):
        m = minkowski(y, y)
        if not 0.0 < m < math.inf:
            raise NumericalFailure(f"cannot renormalize a point with <y, y> = {m:.3e}")
        return y / math.sqrt(m)


HYPERBOLOID = HyperbolicSpace()
