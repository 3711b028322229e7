"""The unit n-sphere in R^{n+1} with closed-form geodesic operations.

Points are unit vectors y, tangents at y are vectors v with v.y = 0. With
phi = |v| the geodesic exponential is

    exp_point(y, v) = sin(phi)/phi * v + cos(phi) * y,

parallel transport back along a stage geodesic reflects through the chord
midpoint s = (E + y)/|E + y|, and the inverse differential of the
exponential stretches the component normal to the stage tangent by
phi/sin(phi). Stages must stay strictly below phi = pi, where that stretch
blows up; violating stages raise StepTooLarge.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RENORM_THRESHOLD, Chart, SpaceContract, require_ndarray
from .errors import MidpointUndefined, NotOnManifold, NumericalFailure, StepTooLarge

PHI_SMALL = 1e-4
MAX_STAGE_ANGLE = math.pi - 1e-6
_MIDPOINT_EPS = 1e-8


def _sin_over_phi(phi: float) -> float:
    if phi < PHI_SMALL:
        p2 = phi * phi
        return 1.0 - p2 / 6.0 + p2 * p2 / 120.0
    return math.sin(phi) / phi


def _phi_over_sin(phi: float) -> float:
    if phi < PHI_SMALL:
        p2 = phi * phi
        return 1.0 + p2 / 6.0 + 7.0 * p2 * p2 / 360.0
    return phi / math.sin(phi)


def exp_point(base, v):
    """Geodesic exponential: walk the great circle of v for arc length |v|."""
    phi = math.sqrt(float(v @ v))
    if phi == 0.0:
        return base
    return _sin_over_phi(phi) * v + math.cos(phi) * base


def midpoint(base, endpoint):
    """Geodesic midpoint of base and endpoint by chord normalization."""
    chord = endpoint + base
    norm = math.sqrt(float(chord @ chord))
    if norm < _MIDPOINT_EPS:
        raise MidpointUndefined(
            "stage endpoint is numerically antipodal to the base point"
        )
    return chord / norm


def transport_inv(mid, w):
    """Parallel transport of w back to the base, via reflection at `mid`."""
    return w - (2.0 * float(mid @ w)) * mid


def dexpinv(theta, w):
    """Inverse differential of the exponential at stage tangent theta."""
    phi2 = float(theta @ theta)
    phi = math.sqrt(phi2)
    if phi == 0.0:
        return w
    if phi >= MAX_STAGE_ANGLE:
        raise StepTooLarge(f"stage angle {phi:.6f} >= pi; reduce the step size")
    factor = _phi_over_sin(phi) - 1.0
    return w + factor * (w - (float(theta @ w) / phi2) * theta)


def triple(u, v, w):
    """Triple bracket [u, v, w] = (w.u) v - (v.w) u on a common tangent space."""
    return float(w @ u) * v - float(v @ w) * u


def sigma(x) -> np.ndarray:
    """Point reflection through x as an orthogonal matrix, 2 x x^T - I."""
    n = x.shape[0]
    return 2.0 * np.outer(x, x) - np.eye(n)


def hat_matrix(base, v) -> np.ndarray:
    """Ambient generator of the geodesic flow of v: hat(v) @ base == v."""
    return np.outer(v, base) - np.outer(base, v)


def random_point(rng, n: int):
    y = rng.standard_normal(n + 1)
    return y / np.linalg.norm(y)


def random_tangent(rng, base, scale: float = 1.0):
    v = rng.standard_normal(base.shape[0])
    v = v - float(base @ v) * base
    return scale * v / np.linalg.norm(v)


class SphereChart(Chart):
    """Chart at a unit vector: stage tangents are ambient vectors at the base."""

    stage_limit = MAX_STAGE_ANGLE

    def __init__(self, base):
        self.base = base

    def norm(self, theta) -> float:
        return math.sqrt(float(theta @ theta))

    def exp(self, theta):
        return exp_point(self.base, theta)

    def at_base(self, value):
        return value

    def pullback(self, theta, endpoint, value):
        return transport_inv(midpoint(self.base, endpoint), value)

    def dexpinv(self, theta, w):
        return dexpinv(theta, w)

    def ad2(self, theta, w):
        return triple(w, theta, theta)

    def field_value(self, point, value, diagnostics: bool):
        if not diagnostics:
            return value, 0.0
        tangent = value - float(point @ value) * point
        return tangent, float(np.max(np.abs(value - tangent)))


class SphereSpace(SpaceContract):
    """The unit sphere for the stepper: a chart at every step's base point."""

    has_closed_dexpinv = True

    def chart(self, y) -> SphereChart:
        return SphereChart(y)

    def check_point(self, y) -> None:
        require_ndarray(y, 1)
        residual = self.invariant_residual(y)
        if not residual <= RENORM_THRESHOLD:
            raise NotOnManifold(f"point is not a unit vector: |y|^2 - 1 = {residual:.3e}")

    def invariant_residual(self, y) -> float:
        return abs(float(y @ y) - 1.0)

    def renormalize(self, y):
        norm2 = float(y @ y)
        if not 0.0 < norm2 < math.inf:
            raise NumericalFailure(f"cannot renormalize a point of squared norm {norm2}")
        return y / math.sqrt(norm2)


SPHERE = SphereSpace()
