"""Built-in benchmark problems for the command-line harness.

Each problem bundles a field on one of the three geometries with whatever
makes it checkable: a closed-form solution where the field is linear in the
ambient sense, or conserved quantities otherwise.

sphere / rigid_body      free rigid body angular momentum on the unit sphere,
                         m' = m x (inertia^{-1} m); conserves the energy
                         m . inertia^{-1} m / 2 (and |m| structurally).
sphere / rotation        m' = a x m for a fixed axis a; exact solution by the
                         rotation exp(t hat(a)); conserves a . m.
hyperbolic / lorentz_linear
                         y' = A y for a seeded generator A of the Lorentz
                         group; exact solution exp(t A) y0. Defaults are
                         rotation-dominant so long runs stay on a bounded
                         orbit.
spd / double_bracket     Y' = [Y, [Y, N]] with N = diag(1..n); isospectral,
                         so the eigenvalues of Y0 are conserved.
spd / constant_field     Y' = c I; exact solution Y0 + t c I.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import SymmflowError
from .hyperbolic import HYPERBOLOID, base_point
from .linalg import mat_exp
from .spd import SPD, random_spd
from .sphere import SPHERE

DEFAULT_SEED = 42

_SPACES = {"sphere": SPHERE, "hyperbolic": HYPERBOLOID, "spd": SPD}


@dataclass
class ProblemSpec:
    """What to integrate: geometry, problem name, size, parameters, y0, horizon."""

    space: str
    problem: str
    dim: int
    params: dict
    y0: np.ndarray
    T: float

    def __post_init__(self):
        if self.space not in _SPACES:
            raise ValueError(f"unknown space '{self.space}'")
        try:
            _SPACES[self.space].check_point(self.y0)
        except SymmflowError as err:
            raise ValueError(f"y0 is not a point of {self.space}: {err}") from err
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("horizon T must be positive and finite")


@dataclass
class Problem:
    """A ProblemSpec together with its field and its oracles."""

    spec: ProblemSpec
    field: Callable
    exact: Callable | None = None
    conserved: dict = dataclass_field(default_factory=dict)

    @property
    def space(self) -> str:
        return self.spec.space


def _build_rigid_body(dim, seed, T, params):
    if dim != 2:
        raise ValueError("rigid_body is defined on the 2-sphere (dim 2)")
    inertia = np.asarray(params.get("inertia", (1.0, 2.0, 3.0)), dtype=float)
    if inertia.shape != (3,) or np.any(inertia <= 0):
        raise ValueError("inertia must be three positive moments")
    inv_inertia = 1.0 / inertia
    i0, i1, i2 = inv_inertia.tolist()
    y0 = np.asarray(params.get("y0", (0.6, 0.0, 0.8)), dtype=float)

    def field(y):
        # y x (inertia^{-1} y), written out: np.cross has a high per-call cost.
        m0, m1, m2 = y.tolist()
        z0, z1, z2 = i0 * m0, i1 * m1, i2 * m2
        return np.array([m1 * z2 - m2 * z1, m2 * z0 - m0 * z2, m0 * z1 - m1 * z0])

    def energy(y):
        return 0.5 * float(y @ (inv_inertia * y))

    spec = ProblemSpec("sphere", "rigid_body", dim, {"inertia": tuple(inertia)}, y0, T)
    return Problem(spec, field, conserved={"energy": energy})


def _build_rotation(dim, seed, T, params):
    if dim != 2:
        raise ValueError("rotation is defined on the 2-sphere (dim 2)")
    axis = np.asarray(params.get("axis", (0.2, 0.5, 1.0)), dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    y0 = np.asarray(params.get("y0", (0.6, 0.0, 0.8)), dtype=float)
    generator = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    a0, a1, a2 = axis.tolist()

    def field(y):
        # axis x y, written out as in the rigid body.
        m0, m1, m2 = y.tolist()
        return np.array([a1 * m2 - a2 * m1, a2 * m0 - a0 * m2, a0 * m1 - a1 * m0])

    def exact(t):
        return mat_exp(t * generator) @ y0

    def along_axis(y):
        return float(axis @ y)

    spec = ProblemSpec("sphere", "rotation", dim, {"axis": tuple(axis)}, y0, T)
    return Problem(
        spec, field, exact=exact, conserved={"axis_component": along_axis}
    )


def _build_lorentz_linear(dim, seed, T, params):
    n = dim
    rng = np.random.default_rng(seed)
    omega_scale = float(params.get("omega_scale", 1.0))
    boost_scale = float(params.get("boost_scale", 0.3))
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    norm = np.linalg.norm(skew)
    if norm > 0:
        skew *= omega_scale / norm
    boost = rng.standard_normal(n)
    boost *= boost_scale / np.linalg.norm(boost)
    generator = np.zeros((n + 1, n + 1))
    generator[:n, :n] = skew
    generator[:n, n] = boost
    generator[n, :n] = boost
    y0 = base_point(n)

    def field(y):
        return generator.dot(y)

    def exact(t):
        return mat_exp(t * generator) @ y0

    spec = ProblemSpec(
        "hyperbolic",
        "lorentz_linear",
        n,
        {"omega_scale": omega_scale, "boost_scale": boost_scale, "seed": seed},
        y0,
        T,
    )
    return Problem(spec, field, exact=exact)


def _build_double_bracket(dim, seed, T, params):
    n = dim
    rng = np.random.default_rng(seed)
    target = np.diag(np.arange(1.0, n + 1.0))
    y0 = random_spd(rng, n)

    def field(y):
        inner = y @ target - target @ y
        return y @ inner - inner @ y

    def trace(y):
        return float(np.trace(y))

    spec = ProblemSpec("spd", "double_bracket", n, {"seed": seed}, y0, T)
    return Problem(spec, field, conserved={"trace": trace})


def _build_constant_field(dim, seed, T, params):
    n = dim
    rng = np.random.default_rng(seed)
    rate = float(params.get("rate", 1.0))
    y0 = random_spd(rng, n)
    value = rate * np.eye(n)

    def field(y):
        return value

    def exact(t):
        return y0 + t * value

    spec = ProblemSpec("spd", "constant_field", n, {"rate": rate, "seed": seed}, y0, T)
    return Problem(spec, field, exact=exact)


_BUILDERS = {
    ("sphere", "rigid_body"): (_build_rigid_body, 2),
    ("sphere", "rotation"): (_build_rotation, 2),
    ("hyperbolic", "lorentz_linear"): (_build_lorentz_linear, 2),
    ("spd", "double_bracket"): (_build_double_bracket, 3),
    ("spd", "constant_field"): (_build_constant_field, 3),
}


def problem_names() -> dict:
    """Mapping space -> sorted problem names."""
    out: dict[str, list[str]] = {}
    for space, name in _BUILDERS:
        out.setdefault(space, []).append(name)
    return {space: sorted(names) for space, names in out.items()}


def build_problem(
    space: str,
    problem: str,
    *,
    dim: int | None = None,
    seed: int = DEFAULT_SEED,
    T: float = 1.0,
    **params,
) -> Problem:
    """Construct a named benchmark problem; `dim` defaults per problem."""
    try:
        builder, default_dim = _BUILDERS[(space, problem)]
    except KeyError:
        raise ValueError(
            f"unknown problem '{space}/{problem}'; available: {problem_names()}"
        ) from None
    return builder(default_dim if dim is None else dim, seed, T, params)
