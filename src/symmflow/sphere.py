"""The unit n-sphere in R^{n+1} with closed-form geodesic operations.

Points are unit vectors y, tangents at y are vectors v with v.y = 0. The
sphere is `SPHERE`, the kappa = +1 case of `curved.CurvedSpace`, with B the
dot product: with phi = |v| the geodesic exponential is

    Exp_y(v) = sin(phi)/phi * v + cos(phi) * y,

parallel transport back along a stage geodesic reflects through the
midpoint s = Exp_y(v/2), and the inverse differential of the exponential
stretches the component normal to the stage tangent by phi/sin(phi). Stages
must stay strictly below phi = pi, where that stretch blows up; the stepper
raises StepTooLarge on a stage that reaches `MAX_STAGE_ANGLE`. `SPHERE`'s
methods are the sphere's one set of closed forms. The functions below are
independent routes kept for the checks: `midpoint` is the chord
construction, `sigma` and `hat_matrix` are ambient matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .curved import CurvedSpace
from .errors import MidpointUndefined

MAX_STAGE_ANGLE = math.pi - 1e-6
_MIDPOINT_EPS = 1e-8


def _dot(u, v) -> float:
    return float(u.dot(v))


SPHERE = CurvedSpace(_dot, 1.0, math.cos, math.sin, stage_limit=MAX_STAGE_ANGLE)


def midpoint(base, endpoint):
    """Geodesic midpoint of base and endpoint by chord normalization."""
    chord = endpoint + base
    norm = math.sqrt(float(chord @ chord))
    if norm < _MIDPOINT_EPS:
        raise MidpointUndefined(
            "stage endpoint is numerically antipodal to the base point"
        )
    return chord / norm


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
