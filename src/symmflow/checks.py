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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperbolic, sphere
from .core import (
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    lts_axiom_residuals,
    triple_bracket_oracle,
)
from .linalg import mat_exp, minkowski, spd_inv, spd_sqrt, symmetrize
from .spd import SPD, random_spd, random_sym
from .spd import ad2 as spd_ad2
from .spd import triple as spd_triple
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


def dexp_forward_sphere(theta, w):
    """Forward differential of the sphere exponential (oracle side).

    Scales the component of w normal to theta by sin(phi)/phi; inverse of
    `sphere.dexpinv` by construction of the shared eigenstructure.
    """
    phi2 = float(theta @ theta)
    if phi2 == 0.0:
        return w
    phi = math.sqrt(phi2)
    normal = w - (float(theta @ w) / phi2) * theta
    return w + (math.sin(phi) / phi - 1.0) * normal


def dexp_forward_hyperbolic(theta, w):
    """Forward differential on the hyperboloid: sinh(phi)/phi on the normal part."""
    phi2 = -minkowski(theta, theta)
    if phi2 <= 0.0:
        return w
    phi = math.sqrt(phi2)
    normal = w + (minkowski(theta, w) / phi2) * theta
    return w + (math.sinh(phi) / phi - 1.0) * normal


def ambient_step(space: str, tableau, field, y, h: float, terms: int = 10):
    """One explicit Runge-Kutta step at y, computed in ambient coordinates.

    An independent route to `cssi_step` for `space` in "sphere", "hyperbolic"
    and "spd". Exp is the matrix exponential of the hat matrix applied to y
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
        module = {"sphere": sphere, "hyperbolic": hyperbolic}[space]

        def hat(v):
            return module.hat_matrix(y, v)

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


def identity_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # Exponentials at zero return the base point bitwise.
    y = sphere.random_point(rng, 4)
    out.append(
        CheckResult(
            "identity",
            "sphere Exp(0) = base",
            float(np.max(np.abs(sphere.exp_point(y, np.zeros_like(y)) - y))),
            0.0,
        )
    )
    z = hyperbolic.random_point(rng, 4)
    out.append(
        CheckResult(
            "identity",
            "hyperbolic Exp(0) = base",
            float(np.max(np.abs(hyperbolic.exp_point(z, np.zeros_like(z)) - z))),
            0.0,
        )
    )

    # Transport and the inverse differential reduce to the identity at 0.
    w = sphere.random_tangent(rng, y)
    out.append(
        CheckResult(
            "identity",
            "sphere transport/dexpinv at 0",
            max(
                float(np.max(np.abs(sphere.transport_inv(y, w) - w))),
                float(np.max(np.abs(sphere.dexpinv(np.zeros_like(y), w) - w))),
            ),
            1e-15,
        )
    )
    wz = hyperbolic.random_tangent(rng, z)
    out.append(
        CheckResult(
            "identity",
            "hyperbolic transport/dexpinv at 0",
            max(
                float(np.max(np.abs(hyperbolic.transport_inv(z, wz) - wz))),
                float(np.max(np.abs(hyperbolic.dexpinv(np.zeros_like(z), wz) - wz))),
            ),
            1e-15,
        )
    )

    # Reflection through the geodesic midpoint sends the base to the endpoint.
    worst = 0.0
    for _ in range(20):
        theta = sphere.random_tangent(rng, y, scale=rng.uniform(0.1, 3.0))
        endpoint = sphere.exp_point(y, theta)
        mid = sphere.midpoint(y, endpoint)
        via_q = sphere.sigma(mid) @ (sphere.sigma(y) @ y)
        worst = max(worst, float(np.max(np.abs(via_q - endpoint))))
    out.append(CheckResult("identity", "sphere reflection composition", worst, 1e-12))

    # Lorentz boosts: symmetric, unit determinant, base point lands on the
    # hyperboloid, and the squared boost equals the displacement matrix.
    worst_boost = 0.0
    worst_q = 0.0
    o = hyperbolic.base_point(3)
    for _ in range(20):
        s_spatial = rng.standard_normal(3)
        boost = hyperbolic.lorentz_boost(s_spatial)
        point = boost @ o
        worst_boost = max(
            worst_boost,
            float(np.max(np.abs(boost - boost.T))),
            abs(float(np.linalg.det(boost)) - 1.0),
            abs(minkowski(point, point) - 1.0),
        )
        worst_q = max(
            worst_q,
            float(np.max(np.abs(hyperbolic.quadratic(point) - boost @ boost))),
        )
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
        direct = SPD.tangent(SPD.base(yspd), theta, SPD.stage(theta)[1], value, ())
        inv_half = spd_inv(mat_exp(0.5 * theta))
        composed = inv_half @ (s_inv @ value @ s_inv) @ inv_half
        worst = max(worst, float(np.max(np.abs(direct - composed))))
    out.append(CheckResult("identity", "spd stage pullback composition", worst, 1e-12))

    # Zero fields leave every stepper exactly in place.
    tableau = builtin_tableau("rk4")
    zero3 = lambda p: np.zeros_like(p)
    y1, _ = cssi_step(sphere.SPHERE, tableau, zero3, y, 0.5)
    z1, _ = cssi_step(hyperbolic.HYPERBOLOID, tableau, zero3, z, 0.5)
    worst = max(float(np.max(np.abs(y1 - y))), float(np.max(np.abs(z1 - z))))
    yspd = random_spd(rng, 3)
    s1, _ = cssi_step(SPD, tableau, lambda p: np.zeros_like(p), yspd, 0.5)
    out.append(CheckResult("identity", "zero-field fixed points", worst, 0.0))
    out.append(
        CheckResult(
            "identity",
            "spd zero-field fixed point",
            float(np.max(np.abs(s1 - yspd))),
            1e-12,
        )
    )
    return out


def lts_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    base = sphere.random_point(rng, 4)
    worst = [0.0, 0.0, 0.0]
    for _ in range(50):
        args = [sphere.random_tangent(rng, base) for _ in range(5)]
        for i, r in enumerate(lts_axiom_residuals(sphere.triple, *args)):
            worst[i] = max(worst[i], r)
    for i, label in enumerate(("alternating", "cyclic", "derivation")):
        out.append(CheckResult("lts", f"sphere {label}", worst[i], 1e-12))

    base = hyperbolic.random_point(rng, 4)
    worst = [0.0, 0.0, 0.0]
    for _ in range(50):
        args = [hyperbolic.random_tangent(rng, base) for _ in range(5)]
        for i, r in enumerate(lts_axiom_residuals(hyperbolic.triple, *args)):
            worst[i] = max(worst[i], r)
    for i, label in enumerate(("alternating", "cyclic", "derivation")):
        out.append(CheckResult("lts", f"hyperbolic {label}", worst[i], 1e-12))

    worst = [0.0, 0.0, 0.0]
    for _ in range(50):
        args = [random_sym(rng, 4) for _ in range(5)]
        for i, r in enumerate(lts_axiom_residuals(spd_triple, *args)):
            worst[i] = max(worst[i], r)
    for i, label in enumerate(("alternating", "cyclic", "derivation")):
        out.append(CheckResult("lts", f"spd {label}", worst[i], 1e-12))
    return out


def oracle_suite(seed: int = 0, samples: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # Sphere: closed forms against the ambient matrix routes.
    worst_exp = worst_triple = worst_dexp = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        base = sphere.random_point(rng, n)
        hat = lambda v, b=base: sphere.hat_matrix(b, v)
        theta = sphere.random_tangent(rng, base, scale=rng.uniform(0.05, 3.0))
        worst_exp = max(
            worst_exp,
            float(
                np.max(np.abs(sphere.exp_point(base, theta) - mat_exp(hat(theta)) @ base))
            ),
        )
        u, v, w = (sphere.random_tangent(rng, base) for _ in range(3))
        worst_triple = max(
            worst_triple,
            float(
                np.max(
                    np.abs(
                        sphere.triple(u, v, w) - triple_bracket_oracle(hat, base, u, v, w)
                    )
                )
            ),
        )
        theta = sphere.random_tangent(rng, base, scale=rng.uniform(0.05, 2.8))
        round_trip = sphere.dexpinv(theta, dexp_forward_sphere(theta, w))
        worst_dexp = max(worst_dexp, float(np.max(np.abs(round_trip - w))))
    out.append(CheckResult("oracle", "sphere Exp vs matrix exponential", worst_exp, 1e-12))
    out.append(CheckResult("oracle", "sphere triple vs commutators", worst_triple, 1e-12))
    out.append(CheckResult("oracle", "sphere dexpinv round trip", worst_dexp, 1e-13))

    # Hyperboloid: same three routes with the Minkowski hat map.
    worst_exp = worst_triple = worst_dexp = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        base = hyperbolic.random_point(rng, n)
        hat = lambda v, b=base: hyperbolic.hat_matrix(b, v)
        theta = hyperbolic.random_tangent(rng, base, scale=rng.uniform(0.05, 3.0))
        worst_exp = max(
            worst_exp,
            float(
                np.max(
                    np.abs(hyperbolic.exp_point(base, theta) - mat_exp(hat(theta)) @ base)
                )
            ),
        )
        u, v, w = (hyperbolic.random_tangent(rng, base) for _ in range(3))
        worst_triple = max(
            worst_triple,
            float(
                np.max(
                    np.abs(
                        hyperbolic.triple(u, v, w)
                        - triple_bracket_oracle(hat, base, u, v, w)
                    )
                )
            ),
        )
        round_trip = hyperbolic.dexpinv(theta, dexp_forward_hyperbolic(theta, w))
        worst_dexp = max(worst_dexp, float(np.max(np.abs(round_trip - w))))
    out.append(
        CheckResult("oracle", "hyperbolic Exp vs matrix exponential", worst_exp, 1e-12)
    )
    out.append(
        CheckResult("oracle", "hyperbolic triple vs commutators", worst_triple, 1e-12)
    )
    out.append(CheckResult("oracle", "hyperbolic dexpinv round trip", worst_dexp, 1e-13))

    # Closed-form inverse differentials against the 6-term Bernoulli series.
    six_terms = dexpinv_coefficients(6)
    worst = 0.0
    for module in (sphere, hyperbolic):
        base = module.random_point(rng, 5)
        for _ in range(samples):
            theta = module.random_tangent(rng, base, scale=0.3)
            w = module.random_tangent(rng, base)
            series = dexpinv_series_apply(six_terms, lambda x: module.triple(x, theta, theta), w)
            worst = max(worst, float(np.max(np.abs(module.dexpinv(theta, w) - series))))
    out.append(CheckResult("oracle", "closed dexpinv vs 6-term series", worst, 1e-9))

    # SPD double bracket: two bracket orders agree with hand expansion.
    worst = 0.0
    for _ in range(samples):
        theta = random_sym(rng, 4)
        w = random_sym(rng, 4)
        direct = spd_ad2(theta, w)
        via_triple = spd_triple(w, theta, theta)
        worst = max(worst, float(np.max(np.abs(direct - via_triple))))
    out.append(CheckResult("oracle", "spd double bracket forms", worst, 1e-13))

    # The stepper against the ambient oracle step.
    tableau = builtin_tableau("rk4")
    inv_inertia = np.array([1.0, 0.5, 1.0 / 3.0])
    rb_field = lambda p: np.cross(p, inv_inertia * p)
    y = np.array([0.6, 0.0, 0.8])
    worst = 0.0
    for _ in range(50):
        via_step, _ = cssi_step(sphere.SPHERE, tableau, rb_field, y, 0.05)
        via_ambient = ambient_step("sphere", tableau, rb_field, y, 0.05)
        worst = max(worst, float(np.max(np.abs(via_step - via_ambient))))
        y = via_step
    out.append(CheckResult("oracle", "generic vs specialized (sphere)", worst, 1e-13))

    gen = np.zeros((3, 3))
    gen[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    gen[0, 2] = gen[2, 0] = 0.3
    lz_field = lambda p: gen @ p
    z = hyperbolic.base_point(2)
    worst = 0.0
    for _ in range(50):
        via_step, _ = cssi_step(hyperbolic.HYPERBOLOID, tableau, lz_field, z, 0.05)
        via_ambient = ambient_step("hyperbolic", tableau, lz_field, z, 0.05)
        worst = max(worst, float(np.max(np.abs(via_step - via_ambient))))
        z = via_step
    out.append(CheckResult("oracle", "generic vs specialized (hyperbolic)", worst, 1e-13))

    target = np.diag([1.0, 2.0, 3.0])
    def db_field(p):
        inner = p @ target - target @ p
        return p @ inner - inner @ p
    yspd = random_spd(np.random.default_rng(seed + 1), 3)
    worst = 0.0
    for _ in range(10):
        via_step, _ = cssi_step(SPD, tableau, db_field, yspd, 0.01, dexpinv_terms=2)
        via_ambient = ambient_step("spd", tableau, db_field, yspd, 0.01, terms=2)
        worst = max(worst, float(np.max(np.abs(via_step - via_ambient))))
        yspd = via_step
    out.append(CheckResult("oracle", "rebased vs fixed-base (spd)", worst, 1e-10))
    return out


def run_all(seed: int = 0) -> list[CheckResult]:
    return identity_suite(seed) + lts_suite(seed) + oracle_suite(seed)
