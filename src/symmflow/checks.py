"""Self-verification suites behind `symmflow check`.

Three groups, each a list of (name, worst residual, bound) comparisons:

* identity: exact algebraic identities of the geometry operations
  (exponential at zero, transport and differential at zero, reflection
  composition, boost factorization, fixed points of the steppers);
* lts: the three Lie-triple-system axioms on random unit tangents;
* oracle: closed forms re-derived through an independent route, i.e. the
  ambient matrix exponential of hat matrices, nested matrix commutators,
  composition with the forward differential, the Bernoulli-number series,
  and the library's step against `ambient_step`, an explicit step built
  from those ambient routes alone.

Each kind of check is one loop over `GEOMETRIES`, a table with one
`Geometry` row per space; what differs between geometries is a column of
the row. A new geometry joins `symmflow check` as one row, filling the
columns of each suite it fits. Identities that belong to one geometry
alone (reflection composition, boosts, the SPD pullback) stay written out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import ModuleType
from typing import Callable

import numpy as np

from . import hyperbolic, spd, sphere
from .core import (
    SpaceContract,
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    lts_axiom_residuals,
    triple_bracket_oracle,
)
from .curved import CurvedSpace
from .linalg import mat_exp, minkowski, spd_inv, spd_sqrt, sym_eig, symmetrize
from .spd import SPD, random_spd, random_sym
from .tableau import builtin_tableau


@dataclass
class CheckResult:
    suite: str
    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.bound


def dexp_forward(theta, w, space: CurvedSpace):
    """Forward differential of Exp on a constant-curvature space (oracle side).

    With m = B(theta, theta) = kappa phi^2, scales the part of w B-normal to
    theta by S(phi)/phi, reading (B, kappa, S) from `space`: the inverse of
    its `dexpinv` by construction of the shared eigenstructure.
    """
    form, kappa = space.form, space.kappa
    m = form(theta, theta)
    if kappa * m <= 0.0:
        return w
    phi = math.sqrt(kappa * m)
    return w + (space.s(phi) / phi - 1.0) * (w - (form(theta, w) / m) * theta)


def ambient_step(space: str, tableau, field, y, h: float, terms: int = 10):
    """One explicit Runge-Kutta step at y, computed in ambient coordinates.

    An independent route to `cssi_step` for `space` "spd" or the name of a
    `CURVED` row. Exp is the matrix exponential of the hat matrix applied to y
    (y exp(y^{-1} v) on SPD, which needs no square root); the pullback is the
    inverse transvection exp(-hat theta) (y mid^{-1} w mid^{-1} y on SPD);
    dExp^{-1} is the `terms`-term series over `triple_bracket_oracle`.
    """
    if not tableau.is_explicit:
        raise ValueError("the ambient oracle step takes explicit tableaus only")
    if space == "spd":
        y_inv = spd_inv(y)

        def exp(v):
            return symmetrize(y @ mat_exp(y_inv @ v))

        def pullback(theta, w):
            mid_inv = spd_inv(exp(0.5 * theta))
            return symmetrize(y @ mid_inv @ w @ mid_inv @ y)

        # [u, v, w] at y is (1/4) y [[y^-1 u, y^-1 v], y^-1 w], which is
        # (1/4) [[u y^-1, v y^-1], w y^-1] y.
        def ad2(theta, w):
            return 0.25 * triple_bracket_oracle(lambda m: m @ y_inv, y, w, theta, theta)

    else:
        module = next(g.module for g in CURVED if g.name == space)
        hat = partial(module.hat_matrix, y)

        def exp(v):
            return mat_exp(hat(v)) @ y

        def pullback(theta, w):
            return mat_exp(-hat(theta)) @ w

        def ad2(theta, w):
            return triple_bracket_oracle(hat, y, w, theta, theta)

    coefficients = dexpinv_coefficients(terms)
    a, b = tableau.a, tableau.b
    ktil = []
    for i in range(tableau.stages):
        theta = np.zeros_like(y)
        for j in range(i):
            theta = theta + a[i, j] * ktil[j]
        k = pullback(theta, h * field(exp(theta)))
        ktil.append(dexpinv_series_apply(coefficients, lambda w: ad2(theta, w), k))
    theta = np.zeros_like(y)
    for j in range(tableau.stages):
        theta = theta + b[j] * ktil[j]
    return exp(theta)


@dataclass(frozen=True)
class Geometry:
    """One row of `GEOMETRIES`: what the suites need of one space.

    `triple` is the space's triple bracket; `tangents(rng)` draws a base
    point and returns a draw of tangents there; `step` is (name, field,
    start(seed), h, steps, stepper terms, oracle terms, bound) of the check
    against `ambient_step`. A row with a `module` (a `CurvedSpace`) adds the
    identity and closed-form checks of the space's methods, with the
    module's random draws and hat matrices as the independent side, and the
    round trip's stage tangent from `round_trip_theta(rng, base, theta)`."""

    name: str
    space: SpaceContract
    triple: Callable
    tangents: Callable
    step: tuple
    module: ModuleType | None = None
    round_trip_theta: Callable | None = None


def _curved(name, module, space, round_trip_theta, step) -> Geometry:
    tangents = lambda rng: partial(module.random_tangent, rng, module.random_point(rng, 4))
    return Geometry(name, space, space.triple, tangents, step, module, round_trip_theta)


_INV_INERTIA = np.array([1.0, 0.5, 1.0 / 3.0])
_BOOST_GEN = np.array([[0.0, -1.0, 0.3], [1.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
_TARGET = np.diag([1.0, 2.0, 3.0])


def _double_bracket(p):
    inner = p @ _TARGET - _TARGET @ p
    return p @ inner - inner @ p


GEOMETRIES = (
    _curved(
        "sphere", sphere, sphere.SPHERE,
        # Below the conjugate point phi = pi, where dExp^{-1} blows up.
        lambda rng, base, _: sphere.random_tangent(rng, base, scale=rng.uniform(0.05, 2.8)),
        ("stepper vs ambient step (sphere)", lambda p: np.cross(p, _INV_INERTIA * p),
         lambda _: np.array([0.6, 0.0, 0.8]), 0.05, 50, None, 10, 1e-13),
    ),
    _curved(
        "hyperbolic", hyperbolic, hyperbolic.HYPERBOLOID,
        lambda rng, base, theta: theta,
        ("stepper vs ambient step (hyperbolic)", lambda p: _BOOST_GEN @ p,
         lambda _: hyperbolic.base_point(2), 0.05, 50, None, 10, 1e-13),
    ),
    Geometry(
        "spd", SPD, spd.triple, lambda rng: partial(random_sym, rng, 4),
        ("stepper vs ambient step (spd)", _double_bracket,
         lambda seed: random_spd(np.random.default_rng(seed + 1), 3), 0.01, 10, 2, 2, 1e-10),
    ),
)
CURVED = tuple(g for g in GEOMETRIES if g.module is not None)
_CLOSED_FORMS = (("Exp vs matrix exponential", 1e-12), ("triple vs commutators", 1e-12),
                 ("dexpinv round trip", 1e-13))


def identity_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # Exponentials at zero return the base point bitwise.
    bases = [g.module.random_point(rng, 4) for g in CURVED]
    for g, y in zip(CURVED, bases):
        zero = np.zeros_like(y)
        worst = float(np.max(np.abs(g.space.exp(y, zero, g.space.stage(zero)[1]) - y)))
        out.append(CheckResult("identity", f"{g.name} Exp(0) = base", worst, 0.0))

    # Transport and the inverse differential reduce to the identity at 0, up to
    # the subtracted 2 B(y, w) y (B(y, w) is w's own round-off) and one rounding.
    for g, y in zip(CURVED, bases):
        w = g.module.random_tangent(rng, y)
        zero = np.zeros_like(y)
        worst = max(
            float(np.max(np.abs(g.space.transport(y, w) - w))),
            float(np.max(np.abs(g.space.dexpinv(zero, g.space.stage(zero)[1], w) - w))),
        )
        round_off = 2.0 * abs(g.space.form(y, w)) * float(np.max(np.abs(y)))
        worst /= round_off + float(np.spacing(np.max(np.abs(w))))
        out.append(CheckResult("identity", f"{g.name} transport/dexpinv at 0", worst, 1.0))

    # Reflection through the geodesic midpoint sends the base to the endpoint.
    y = bases[0]  # the sphere's
    worst = 0.0
    for _ in range(20):
        theta = sphere.random_tangent(rng, y, scale=rng.uniform(0.1, 3.0))
        endpoint = sphere.SPHERE.exp(y, theta, sphere.SPHERE.stage(theta)[1])
        mid = sphere.midpoint(y, endpoint)
        via_q = sphere.sigma(mid) @ (sphere.sigma(y) @ y)
        worst = max(worst, float(np.max(np.abs(via_q - endpoint))))
    out.append(CheckResult("identity", "sphere reflection composition", worst, 1e-12))

    # Lorentz boosts: symmetric, unit determinant, base point lands on the
    # hyperboloid, and the squared boost equals the displacement matrix.
    worst_boost = worst_q = 0.0
    o = hyperbolic.base_point(3)
    for _ in range(20):
        s_spatial = rng.standard_normal(3)
        boost = hyperbolic.lorentz_boost(s_spatial)
        point = boost @ o
        worst_boost = max(
            worst_boost, float(np.max(np.abs(boost - boost.T))),
            abs(float(np.linalg.det(boost)) - 1.0), abs(minkowski(point, point) - 1.0),
        )
        worst_q = max(worst_q, float(np.max(np.abs(hyperbolic.quadratic(point) - boost @ boost))))
    out.append(CheckResult("identity", "hyperbolic boost factorization", worst_boost, 1e-10))
    out.append(CheckResult("identity", "hyperbolic Q = boost squared", worst_q, 1e-10))

    # SPD stage pullback: the stage tangent with no series terms,
    # exp(-theta/2) W exp(-theta/2) in the eigenbasis of theta, agrees with
    # routing the transport through the inverted Taylor exponential.
    worst = 0.0
    for _ in range(20):
        yspd = random_spd(rng, 4)
        s_inv = spd_inv(spd_sqrt(yspd))
        theta = random_sym(rng, 4, scale=0.7)
        value = random_sym(rng, 4, scale=1.0)
        direct = SPD.tangent(SPD.base(yspd), theta, SPD.stage(theta)[1], value, (), 1.0)
        inv_half = spd_inv(mat_exp(0.5 * theta))
        composed = inv_half @ (s_inv @ value @ s_inv) @ inv_half
        worst = max(worst, float(np.max(np.abs(direct - composed))))
    out.append(CheckResult("identity", "spd stage pullback composition", worst, 1e-12))

    # Zero fields leave every stepper exactly in place.
    tableau = builtin_tableau("rk4")
    zero = lambda p: np.zeros_like(p)
    worst = max(float(np.max(np.abs(cssi_step(g.space, tableau, zero, y, 0.5)[0] - y)))
                for g, y in zip(CURVED, bases))
    yspd = random_spd(rng, 3)
    s1, _ = cssi_step(SPD, tableau, zero, yspd, 0.5)
    out.append(CheckResult("identity", "zero-field fixed points", worst, 0.0))
    worst = float(np.max(np.abs(s1 - yspd)))
    out.append(CheckResult("identity", "spd zero-field fixed point", worst, 1e-12))
    return out


def lts_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for g in GEOMETRIES:
        draw = g.tangents(rng)
        worst = [0.0, 0.0, 0.0]
        for _ in range(50):
            args = [draw() for _ in range(5)]
            for i, r in enumerate(lts_axiom_residuals(g.triple, *args)):
                worst[i] = max(worst[i], r)
        for i, label in enumerate(("alternating", "cyclic", "derivation")):
            out.append(CheckResult("lts", f"{g.name} {label}", worst[i], 1e-12))
    return out


def oracle_suite(seed: int = 0, samples: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # Closed forms against the ambient matrix routes.
    for g in CURVED:
        space, module = g.space, g.module
        worst = [0.0, 0.0, 0.0]
        for _ in range(samples):
            n = int(rng.integers(2, 9))
            base = module.random_point(rng, n)
            hat = partial(module.hat_matrix, base)
            theta = module.random_tangent(rng, base, scale=rng.uniform(0.05, 3.0))
            exp = space.exp(base, theta, space.stage(theta)[1])
            pairs = [(exp, mat_exp(hat(theta)) @ base)]
            u, v, w = (module.random_tangent(rng, base) for _ in range(3))
            pairs.append((space.triple(u, v, w), triple_bracket_oracle(hat, base, u, v, w)))
            theta = g.round_trip_theta(rng, base, theta)
            forward = dexp_forward(theta, w, space)
            pairs.append((space.dexpinv(theta, space.stage(theta)[1], forward), w))
            for i, (closed, oracle) in enumerate(pairs):
                worst[i] = max(worst[i], float(np.max(np.abs(closed - oracle))))
        for (label, bound), value in zip(_CLOSED_FORMS, worst):
            out.append(CheckResult("oracle", f"{g.name} {label}", value, bound))

    # Closed-form inverse differentials against the 6-term Bernoulli series.
    six_terms = dexpinv_coefficients(6)
    worst = 0.0
    for g in CURVED:
        space, module = g.space, g.module
        base = module.random_point(rng, 5)
        for _ in range(samples):
            theta = module.random_tangent(rng, base, scale=0.3)
            w = module.random_tangent(rng, base)
            series = dexpinv_series_apply(six_terms, lambda x: space.triple(x, theta, theta), w)
            closed = space.dexpinv(theta, space.stage(theta)[1], w)
            worst = max(worst, float(np.max(np.abs(closed - series))))
    out.append(CheckResult("oracle", "closed dexpinv vs 6-term series", worst, 1e-9))

    # SPD double bracket in the eigenbasis of theta = V diag(w) V^T, on which
    # `SpdSpace.tangent` rests: [x, theta, theta] = V [(V^T x V) o d^2/4] V^T
    # with d_jk = w_j - w_k.
    worst = 0.0
    for _ in range(samples):
        theta = random_sym(rng, 4)
        x = random_sym(rng, 4)
        w, v = sym_eig(theta)
        d = w[:, None] - w
        eigenbasis = v @ ((v.T @ x @ v) * (0.25 * d * d)) @ v.T
        worst = max(worst, float(np.max(np.abs(spd.triple(x, theta, theta) - eigenbasis))))
    out.append(CheckResult("oracle", "spd double bracket in eigenbasis", worst, 1e-13))

    # The stepper against the ambient oracle step.
    tableau = builtin_tableau("rk4")
    for g in GEOMETRIES:
        name, field, start, h, steps, terms, oracle_terms, bound = g.step
        y = start(seed)
        worst = 0.0
        for _ in range(steps):
            via_step, _ = cssi_step(g.space, tableau, field, y, h, dexpinv_terms=terms)
            via_ambient = ambient_step(g.name, tableau, field, y, h, terms=oracle_terms)
            worst = max(worst, float(np.max(np.abs(via_step - via_ambient))))
            y = via_step
        out.append(CheckResult("oracle", name, worst, bound))
    return out


def run_all(seed: int = 0) -> list[CheckResult]:
    return identity_suite(seed) + lts_suite(seed) + oracle_suite(seed)
