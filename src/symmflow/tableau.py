"""Butcher tableaus and rooted-tree order-condition checks.

Only autonomous fields y' = F(y) are integrated, so the c abscissae are never
stored; where an order condition needs them they are recovered as row sums of
the coefficient matrix. Non-autonomous problems must be autonomized by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownTableau

_ORDER_TOL = 1e-13


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients {a_ij}, {b_j} with a declared order.

    `kind` is "explicit" iff `a` is strictly lower triangular (exact zeros).
    Construction validates sum(b) = 1, the kind/shape consistency and all
    order conditions up to min(declared_order, 4).
    """

    name: str
    a: np.ndarray
    b: np.ndarray
    declared_order: int
    kind: str = field(init=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent tableau shapes {a.shape}, {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("tableau coefficients must be finite")
        if abs(float(b.sum()) - 1.0) > 1e-14:
            raise ValueError(f"weights of '{self.name}' do not sum to 1")
        if self.declared_order < 1:
            raise ValueError("declared_order must be positive")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        explicit = bool(np.all(a[np.triu_indices(a.shape[0])] == 0.0))
        object.__setattr__(self, "kind", "explicit" if explicit else "implicit")
        bad = [
            (cond, res)
            for cond, res in check_order_conditions(self, min(self.declared_order, 4))
            if res > _ORDER_TOL
        ]
        if bad:
            raise ValueError(
                f"tableau '{self.name}' fails declared order {self.declared_order}: {bad}"
            )

    @property
    def stages(self) -> int:
        return self.b.shape[0]

    @property
    def is_explicit(self) -> bool:
        return self.kind == "explicit"


def check_order_conditions(t: ButcherTableau, p: int):
    """Residuals of all rooted-tree order conditions up to order p (p <= 4).

    Returns a list of (condition-name, residual); the tableau satisfies order
    p iff every residual is <= 1e-13.
    """
    a, b = t.a, t.b
    c = a.sum(axis=1)
    out = [("sum b = 1", abs(float(b.sum()) - 1.0))]
    if p >= 2:
        out.append(("sum b c = 1/2", abs(float(b @ c) - 0.5)))
    if p >= 3:
        out.append(("sum b c^2 = 1/3", abs(float(b @ c**2) - 1.0 / 3.0)))
        out.append(("sum b a c = 1/6", abs(float(b @ (a @ c)) - 1.0 / 6.0)))
    if p >= 4:
        out.append(("sum b c^3 = 1/4", abs(float(b @ c**3) - 0.25)))
        out.append(("sum b c a c = 1/8", abs(float((b * c) @ (a @ c)) - 0.125)))
        out.append(("sum b a c^2 = 1/12", abs(float(b @ (a @ c**2)) - 1.0 / 12.0)))
        out.append(("sum b a a c = 1/24", abs(float(b @ (a @ (a @ c))) - 1.0 / 24.0)))
    return out


_BUILTINS = {
    "euler": ([[0.0]], [1.0], 1),
    "heun2": ([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], 2),
    "kutta3": (
        [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        3,
    ),
    "rk4": (
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        4,
    ),
    "implicit_midpoint": ([[0.5]], [1.0], 2),
}


def builtin_tableau(name: str) -> ButcherTableau:
    """Look up a validated built-in tableau by name."""
    try:
        a, b, order = _BUILTINS[name]
    except KeyError:
        raise UnknownTableau(
            f"unknown tableau '{name}'; choose from {sorted(_BUILTINS)}"
        ) from None
    return ButcherTableau(name=name, a=np.array(a), b=np.array(b), declared_order=order)


def tableau_names() -> list[str]:
    return sorted(_BUILTINS)
