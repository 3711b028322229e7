"""Hyperbolic n-space as the upper unit hyperboloid in Minkowski R^{n+1}.

Coordinates carry the time component LAST: the bilinear form is
<y, z> = y_t z_t - y_s . z_s, i.e. J = diag(-1, ..., -1, +1), and the
manifold is {y : <y, y> = 1, y_t > 0}. Tangents at y are Minkowski
orthogonal to y and spacelike, so phi = sqrt(-<v, v>) is real and

    Exp_y(v) = sinh(phi)/phi * v + cosh(phi) * y.

This is `HYPERBOLOID`, the kappa = -1 case of `curved.CurvedSpace`, with B
the Minkowski form and (C, S) = (cosh, sinh). Unlike the sphere there is no
conjugate-point singularity: the inverse differential of the exponential
*contracts* the normal component by phi/sinh(phi) <= 1. `HYPERBOLOID.stage`
still rejects a tangent v of rapidity phi > 30, because the ambient
coordinates grow like e^phi and the hyperboloid residual would drown in
round-off, and a v that is timelike beyond round-off; every Exp, the
update's included, is taken from a stage it has accepted.

Every per-stage scalar derives from the one Minkowski square
m = <theta, theta>, which `HYPERBOLOID.stage` takes; the stage tangent is the
sphere's formula with B the Minkowski form, summed from <theta, v>, <y, v>
and <theta, y>: four Minkowski products and 8 whole-vector passes per stage,
14 products per rk4 step. `HYPERBOLOID`'s methods
are the hyperboloid's one set of closed forms; the matrices below
(`sigma`, `quadratic`, `hat_matrix`, `lorentz_boost`) are independent
routes kept for the checks.
"""

from __future__ import annotations

import math

import numpy as np

from .curved import CurvedSpace
from .linalg import minkowski, minkowski_metric, spd_sqrt

MAX_STAGE_RAPIDITY = 30.0

# `minkowski` is looked up at call time, so patching the module attribute
# reaches the stepper.
HYPERBOLOID = CurvedSpace(
    lambda u, v: minkowski(u, v), -1.0, math.cosh, math.sinh, exp_limit=MAX_STAGE_RAPIDITY
)


def base_point(n: int) -> np.ndarray:
    """The reference point (0, ..., 0, 1) on the upper sheet."""
    o = np.zeros(n + 1)
    o[-1] = 1.0
    return o


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
    return HYPERBOLOID.exp(o, v, HYPERBOLOID.stage(v)[1])


def random_tangent(rng, base, scale: float = 1.0):
    w = rng.standard_normal(base.shape[0])
    w = w - minkowski(w, base) * base
    phi = math.sqrt(-minkowski(w, w))
    return (scale / phi) * w

