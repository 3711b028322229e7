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

Every per-stage quantity derives from the one Minkowski square
m = <theta, theta>: the stage norm phi = sqrt(max(-m, 0)), Exp, the geodesic
midpoint Exp(theta/2) and dExp^{-1}. The public functions each take it
themselves; `HyperboloidChart` takes it once per stage and hands it to the
same formulas (`_exp_point`, `_exp_half`, `_dexpinv`), so both routes give
identical bits.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RENORM_THRESHOLD, Chart, SpaceContract, require_ndarray
from .errors import NonSpacelikeTangent, NotOnManifold, NumericalFailure, StepTooLarge
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


def _check_rapidity(v, m: float, phi: float) -> None:
    """Guards on a stage tangent v with m = <v, v> and phi = sqrt(max(-m, 0)):
    the sign of m (spacelike up to round-off) and the rapidity cap."""
    # The Euclidean scale v.v only matters when m > 0.
    if m > 0.0 and -m < -1e-12 * float(v @ v):
        raise NonSpacelikeTangent(f"tangent has Minkowski square norm {m:.3e} > 0")
    if phi > MAX_STAGE_RAPIDITY:
        raise StepTooLarge(f"stage rapidity {phi:.3f} > {MAX_STAGE_RAPIDITY}")


def _rapidity(v) -> float:
    """phi = sqrt(-<v, v>) of a spacelike tangent, guarded by `_check_rapidity`."""
    m = minkowski(v, v)
    phi = math.sqrt(max(-m, 0.0))
    _check_rapidity(v, m, phi)
    return phi


def exp_point(base, v):
    """Geodesic exponential along the hyperbola of v, arc length sqrt(-<v,v>)."""
    return _exp_point(base, v, _rapidity(v))


def _exp_point(base, v, phi: float):
    """`exp_point` given the checked rapidity phi of v."""
    if phi == 0.0:
        return base
    return _sinh_over_phi(phi) * v + math.cosh(phi) * base


def exp_half(base, v):
    """Geodesic midpoint Exp(v/2) = sinh(phi/2)/phi * v + cosh(phi/2) * base."""
    return _exp_half(base, v, _rapidity(v))


def _exp_half(base, v, phi: float):
    """`exp_half` given the checked rapidity phi of v."""
    if phi == 0.0:
        return base
    half = 0.5 * phi
    return (_sinh_over_phi(half) * 0.5) * v + math.cosh(half) * base


def transport_inv(mid, w):
    """Parallel transport of w back to the base: w - 2 s <s, w> at s = mid."""
    return w - (2.0 * minkowski(mid, w)) * mid


def dexpinv(theta, w):
    """Inverse differential of the exponential; contracts, never singular."""
    return _dexpinv(theta, w, -minkowski(theta, theta))


def _dexpinv(theta, w, phi2: float):
    """`dexpinv` given phi2 = -<theta, theta>."""
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

    Each stage takes one Minkowski square. The chart keeps the last stage
    tangent it was handed, with m = <theta, theta> and phi = sqrt(max(-m, 0)),
    in a single slot keyed on the identity of the theta object, as the
    stepper passes one object to `norm`, `exp`, `pullback` and `dexpinv` of
    a stage. The sign guard and the rapidity cap of `exp_point` and
    `exp_half` run once per slot, on the first `exp` or `pullback`. Stage
    tangents must not be mutated in place.
    """

    def __init__(self, base):
        self.base = base
        self._theta = None
        self._m = self._phi = 0.0
        self._checked = False

    def _stage(self, theta):
        """(m, phi) of theta, from the slot when theta is the object it holds."""
        if theta is not self._theta:
            m = minkowski(theta, theta)
            self._theta, self._m, self._phi = theta, m, math.sqrt(max(-m, 0.0))
            self._checked = False
        return self._m, self._phi

    def _rapidity(self, theta) -> float:
        m, phi = self._stage(theta)
        if not self._checked:
            _check_rapidity(theta, m, phi)
            self._checked = True
        return phi

    def norm(self, theta) -> float:
        return self._stage(theta)[1]

    def exp(self, theta):
        return _exp_point(self.base, theta, self._rapidity(theta))

    def at_base(self, value):
        return value

    def pullback(self, theta, endpoint, value):
        return transport_inv(_exp_half(self.base, theta, self._rapidity(theta)), value)

    def dexpinv(self, theta, w):
        return _dexpinv(theta, w, -self._stage(theta)[0])

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

    def check_point(self, y) -> None:
        require_ndarray(y, 1)
        if not y[-1] > 0.0:
            raise NotOnManifold(f"point is not on the upper sheet: y_t = {y[-1]:.3e}")
        # The round-off in <y, y> grows with the coordinates, like e^(2 phi).
        residual = self.invariant_residual(y)
        if not residual <= RENORM_THRESHOLD * float(y @ y):
            raise NotOnManifold(f"point is off the hyperboloid: <y, y> - 1 = {residual:.3e}")

    def invariant_residual(self, y) -> float:
        return abs(minkowski(y, y) - 1.0)

    def renormalize(self, y):
        m = minkowski(y, y)
        if not 0.0 < m < math.inf:
            raise NumericalFailure(f"cannot renormalize a point with <y, y> = {m:.3e}")
        return y / math.sqrt(m)


HYPERBOLOID = HyperbolicSpace()
