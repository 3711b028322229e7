"""Constant-curvature spaces: the unit sphere and the hyperboloid as one case.

Both are the level set {y : B(y, y) = 1} of a symmetric bilinear form B on
R^{n+1}: the dot product for the sphere (sectional curvature kappa = +1),
the Minkowski form for the hyperboloid (kappa = -1). Tangents at y are
B-orthogonal to y, a stage tangent theta has m = B(theta, theta) = kappa phi^2,
and with (C, S) = (cos, sin) or (cosh, sinh) every map is O(n):

    Exp_y(theta)      = C(phi) y + S(phi)/phi theta
    midpoint s        = Exp_y(theta/2)
    transport back    w -> w - 2 B(s, w) s
    dExp^{-1}_theta   w -> w + (phi/S(phi) - 1) (w - B(theta, w)/m theta)
    [u, v, w]         = B(u, w) v - B(v, w) u

The base data of a step is y itself. `CurvedSpace.stage` takes the one
square m per stage and returns (phi, data) with data = (m, phi), which the
stepper hands back to `exp` and `tangent`. A truncated series
1 + sum c_n x^n at x = ad^2_theta, which is -m on the B-normal part, is the
scalar tau = sum c_n (-m)^n there; the closed form has tau = phi/S(phi) - 1.

The stage tangent of a field value v, h dExp^{-1}_theta of v transported
back through s = a theta + c y with a = S(phi/2)/phi and c = C(phi/2), is
one linear map of v with values in span{v, theta, y}. With the transported
value w = v - 2 beta s,

    beta        = a B(theta, v) + c B(y, v)               (= B(s, v))
    B(theta, w) = B(theta, v) - 2 beta (a m + c B(theta, y))
    Kt          = h [(1 + tau) v - (2 beta a (1 + tau) + tau B(theta, w)/m) theta
                     - 2 beta c (1 + tau) y]

and at phi = 0 it is h (v - 2 B(y, v) y), which `tangent` keeps for a
theta of norm 0 so that it equals the composed route for every value,
tangent or not. A stage that the tableau makes zero comes as theta None and
is h v without the reflection at y, which moves a tangent v only by
round-off. On both spaces `tangent` sums the map from those scalars: after
the Exp point's 3 whole-vector passes a stage takes 5 more, and four
products B in all, so an rk4 step takes 14 counting the update's square
and the step's residual. On the hyperboloid, whose coordinates grow like
e^r at distance r from the origin, the terms of B(theta, v) and B(y, v)
cancel far below e^(2r), but the composed route's B(s, v) cancels alike:
against a 50-digit reference both stay within the map's round-off bound.
`transport` and `dexpinv` stay as the composed reference route that the
checks and tests compare against.

S(x)/x and phi/S(phi) - 1 are taken directly, with no small-angle series:
they round within an ulp of it, and the shortest non-zero phi, the root
of the smallest subnormal square, is about 2e-162, so there is no 0/0.

A stage is refused once, in `stage`, for the Exp and the stage tangent
taken from it (the update's Exp included): NonSpacelikeTangent for a
tangent whose m has the wrong sign beyond round-off (possible only when B
is indefinite), and StepTooLarge for a finite phi above `exp_limit`. `exp`
and `tangent` only compute. The sphere's cap below its conjugate point,
`stage_limit`, bounds dExp^{-1}, which the update does not apply, so the
stepper tests it on the stages alone.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import SpaceContract, dexpinv_series_tail, require_ndarray
from .errors import NonSpacelikeTangent, NotOnManifold, NumericalFailure, StepTooLarge

# The smallest normal float: products below it round to absolute error.
_TINY = sys.float_info.min


class CurvedSpace(SpaceContract):
    """The level set B(y, y) = 1 of curvature kappa, for the stepper.

    `form(u, v)` is B as a Python float and (c, s) are (C, S).
    `stage_limit` caps stages in the stepper (the sphere's conjugate point);
    `exp_limit` caps phi in `stage`, so in every Exp (the hyperboloid's
    coordinates grow like e^phi, and its residual would drown in round-off).
    """

    def __init__(self, form, kappa, c, s, *, stage_limit=math.inf, exp_limit=math.inf):
        self.form = form
        self.kappa = kappa
        self.c = c
        self.s = s
        self.stage_limit = stage_limit
        self.exp_limit = exp_limit

    def base(self, y):
        return y

    def stage(self, theta):
        """(phi, (m, phi)) of a stage tangent, from its one square m, after
        the stage guards; a non-finite phi passes, for the stepper to refuse."""
        m = self.form(theta, theta)
        km = self.kappa * m
        # The Euclidean scale theta.theta only matters when km < 0; below
        # _TINY, where it underflows, round-off is absolute.
        if km < 0.0 and km < -1e-12 * float(theta @ theta) - _TINY:
            raise NonSpacelikeTangent(f"tangent is not spacelike: <theta, theta> = {m:.3e}")
        # A km of -inf (m overflowed on a timelike theta) is not a zero stage.
        phi = math.sqrt(max(km, 0.0)) if km != -math.inf else math.inf
        if self.exp_limit < phi < math.inf:
            raise StepTooLarge(f"stage norm {phi:.3f} > {self.exp_limit}")
        return phi, (m, phi)

    def exp(self, base, theta, data):
        """Exp_base(theta)."""
        _, phi = data
        if phi == 0.0:
            return base
        return (self.s(phi) / phi) * theta + self.c(phi) * base

    def transport(self, mid, w):
        """Parallel transport of w back to the base: reflection at the midpoint."""
        return w - (2.0 * self.form(mid, w)) * mid

    def dexpinv(self, theta, data, w, coefficients=None):
        """Inverse differential of Exp: phi/S(phi) on the part B-normal to theta.

        With `coefficients` it is the truncated series instead: ad^2_theta =
        [., theta, theta] is -m on the part of w B-normal to theta and 0 on
        theta itself, so the series is one scalar there.
        """
        m, phi = data
        if phi == 0.0:
            return w
        tail = self._tail(m, phi, coefficients)
        return w + tail * (w - (self.form(theta, w) / m) * theta)

    def _tail(self, m, phi, coefficients):
        """tau, dExp^{-1}'s factor less 1 on the part B-normal to theta, for phi > 0."""
        if coefficients is not None:
            return dexpinv_series_tail(coefficients, -m)
        return phi / self.s(phi) - 1.0

    def tangent(self, base, theta, data, value, coefficients, h):
        """h dExp^{-1}_theta(transport(Exp_base(theta/2), value)), one linear map of value.

        It equals that composition for every theta and value, tangent or
        not; the module docstring gives its coefficients. theta None is a
        zero stage of the tableau, h value.
        """
        if theta is None:
            return h * value
        m, phi = data
        if phi == 0.0:  # the reflection at y; see the module docstring
            return h * value - (2.0 * h * self.form(base, value)) * base
        half = 0.5 * phi
        a, c = self.s(half) / half * 0.5, self.c(half)
        tau = self._tail(m, phi, coefficients)
        g = h * (1.0 + tau)
        tv = self.form(theta, value)
        two_beta = 2.0 * (a * tv + c * self.form(base, value))
        tw = tv - two_beta * (a * m + c * self.form(theta, base))
        return g * value - (g * two_beta * a + h * tau * tw / m) * theta - (g * two_beta * c) * base

    def field_value(self, point, value, diagnostics: bool):
        if not diagnostics:
            return value, 0.0
        tangent = value - self.form(value, point) * point
        return tangent, float(np.max(np.abs(value - tangent)))

    def triple(self, u, v, w):
        """Triple bracket [u, v, w] = B(u, w) v - B(v, w) u."""
        return self.form(u, w) * v - self.form(v, w) * u

    def scale(self, y) -> float:
        # Round-off in B(y, y) grows with the coordinates (like e^(2 phi) on
        # the hyperboloid), so residuals are measured against y.y.
        return float(y.dot(y))

    def check_point(self, y) -> None:
        require_ndarray(y, 1)
        if self.kappa < 0.0 and not y[-1] > 0.0:
            raise NotOnManifold(f"point is not on the upper sheet: y_t = {y[-1]:.3e}")
        residual = self.invariant_residual(y)
        if not self.within_tolerance(y, residual):
            raise NotOnManifold(f"point is off the level set: B(y, y) - 1 = {residual:.3e}")

    def invariant_residual(self, y) -> float:
        return abs(self.form(y, y) - 1.0)

    def renormalize(self, y):
        m = self.form(y, y)
        if not 0.0 < m < math.inf:
            raise NumericalFailure(f"cannot renormalize a point with B(y, y) = {m:.3e}")
        return y / math.sqrt(m)

