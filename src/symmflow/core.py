"""Runge-Kutta stepping along geodesics of a symmetric space.

A step from y solves the stage equations

    theta_i = sum_j a_ij Kt_j
    K_i     = h * Gamma_{theta_i}^{-1} F(Exp_y(theta_i))
    Kt_i    = dExp^{-1}_{theta_i} K_i
    y_next  = Exp_y(sum_j b_j Kt_j)

at the current point y (the base point moves to y every step). The space
(`SpaceContract`) takes the per-step base data once with `space.base(y)` and
supplies Exp_y and the stage tangent dExp^{-1}_theta Gamma_theta^{-1} of a
field value: the pullback to stage coordinates at the base (Gamma^{-1} is
parallel transport back along the stage geodesic, realized through the
geodesic midpoint), followed by dExp^{-1}, the inverse trivialized
differential of Exp. The latter is the scalar series

    sqrt(x)/sinh(sqrt(x)) = 1 - x/6 + 7x^2/360 - 31x^3/15120 + ...

evaluated at x = ad^2_theta : w -> [w, theta, theta], the double bracket of
the tangent-space Lie triple system; a truncated series is its coefficient
tuple from `dexpinv_coefficients`. Each geometry evaluates it, summed or
truncated, on the spectrum of ad^2_theta, which it knows in closed form:
the constant-curvature spaces have the single non-zero eigenvalue
-B(theta, theta), SPD the values (l_i - l_j)^2 / 4 over pairs of
eigenvalues of theta. `dexpinv_terms=None` selects the exact map, the
series summed in closed form, on every geometry; an integer truncates it.
A geometry without such a spectrum can apply `dexpinv_series_apply` over
its double bracket instead.

A stage that the tableau makes zero, an empty row or the start of the
fixed-point iteration, is handed to `tangent` as theta None: its field is
taken at y itself, with no Exp and no stage data.

A stage is refused in two places, each once. `space.stage` raises on a
theta outside Exp's domain (StepTooLarge or NonSpacelikeTangent), for the
stages and the update alike, so `exp` and `tangent` only compute. The
stepper raises StepTooLarge on a stage whose magnitude reaches the space's
`stage_limit`, where dExp^{-1} blows up (the sphere's conjugate point);
the update applies no dExp^{-1}, so that test is the stages' alone.

Explicit tableaus are solved stage by stage; implicit ones by fixed-point
iteration on the stage tangents, stopping once the max stage change is at
most 1e-14 * max(1, |y|_inf) (cap 50 iterations). The test comes before the
stages are evaluated again, so the update sum_j b_j Kt_j uses the last
evaluation, whose stages are within that tolerance of the converged ones,
and an implicit step's `stage_norms` are those of that evaluation. A
non-finite stage or update tangent, or a non-finite point, raises
NumericalFailure.
"""

from __future__ import annotations

import math
import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import (
    DimensionMismatch,
    FixedPointDivergence,
    NumericalFailure,
    StepTooLarge,
    SymmflowError,
)
from .tableau import ButcherTableau

RENORM_THRESHOLD = 1e-12
# dtype kinds a point or a field value may have: signed and unsigned integers
# and floats. Booleans are refused too: SPD's symmetry check cannot subtract them.
_REAL_KINDS = "iuf"
_FP_TOL = 1e-14
_FP_CAP = 50


class SpaceContract(ABC):
    """What a geometry supplies to the stepper: its closed forms, from a base point.

    Points are plain ndarrays in the ambient representation (unit vectors,
    hyperboloid vectors, or SPD matrices). Stage tangents are coordinates at
    the base: ambient tangent vectors at y on the sphere and hyperboloid,
    symmetric matrices at the identity on SPD. `base(y)` takes whatever a
    step reuses once per step; `stage(theta)` returns (phi, data), and the
    stepper hands the base and the data back with the same theta to `exp`
    and `tangent`, so whatever a stage needs more than once (a square, an
    eigendecomposition) is taken once. Every method treats its arguments as
    immutable and keeps no state between calls.
    """

    #: stages (not the update) whose magnitude reaches this raise StepTooLarge:
    #: the bound of dExp^{-1}, which the stepper tests
    stage_limit: float = math.inf

    @abstractmethod
    def base(self, y):
        """The per-step base data at y, which the stepper does not look inside."""

    @abstractmethod
    def stage(self, theta):
        """(phi, data): the stage magnitude, for records and guards, and its stage data.

        The one place a geometry refuses theta for Exp: StepTooLarge (or
        NonSpacelikeTangent) where Exp cannot be taken in double precision,
        for the update as for the stages, so `exp` and `tangent` need no
        guard of their own. A non-finite theta is not refused here: it
        returns a non-finite phi, on which the stepper raises
        NumericalFailure.
        """

    @abstractmethod
    def exp(self, base, theta, data):
        """The point Exp_y(theta); y itself when phi is 0."""

    @abstractmethod
    def tangent(self, base, theta, data, value, coefficients, h):
        """The stage tangent h dExp^{-1}_theta Gamma_theta^{-1}(value).

        `value` is the raw field value at exp(base, theta, data), as
        `field_value` returns it, and `h` the step size: the stepper does not
        scale the value, so a geometry can fold h into its coefficients. With
        `coefficients` c_1..c_N, dExp^{-1} is the truncated series
        1 + sum c_n x^n at x = ad^2_theta, which a geometry evaluates on the
        spectrum of ad^2_theta where it knows it (`dexpinv_series_tail`), or
        else through `dexpinv_series_apply` over its double bracket. With
        None it is exact. theta and data None are a zero stage, whose value
        was taken at the base point itself: its stage coordinates times h.
        """

    @abstractmethod
    def field_value(self, point, value, diagnostics: bool):
        """Check a field value at `point`; returns (value to use, defect).

        Under `diagnostics` the value is projected onto the tangent space and
        the defect is the size of what was discarded; otherwise it is 0.
        """

    @abstractmethod
    def check_point(self, y) -> None:
        """Raise NotOnManifold unless y lies on the manifold up to round-off
        (`within_tolerance`), and DimensionMismatch unless y is a non-empty
        ndarray of the geometry's rank."""

    @abstractmethod
    def scale(self, y) -> float:
        """The size of y that its invariant residual is measured against."""

    def within_tolerance(self, y, residual: float) -> bool:
        """The on-manifold test of `check_point` and `march`: the residual of y
        is at most RENORM_THRESHOLD times its scale (False for NaN)."""
        return residual <= RENORM_THRESHOLD * self.scale(y)

    @abstractmethod
    def invariant_residual(self, y) -> float:
        """Distance of y from the manifold constraint (0 on the manifold)."""

    @abstractmethod
    def renormalize(self, y):
        """Cheap projection of a slightly drifted point back to the manifold."""


def require_ndarray(y, ndim: int) -> None:
    """DimensionMismatch unless y is a non-empty real ndarray with `ndim` axes (square if 2)."""
    ok = (
        isinstance(y, np.ndarray) and y.ndim == ndim and y.size > 0
        and y.dtype.kind in _REAL_KINDS
    )
    if ok and ndim == 2:
        ok = y.shape[0] == y.shape[1]
    if not ok:
        got = f"{y.dtype} of shape {y.shape}" if isinstance(y, np.ndarray) else type(y).__name__
        raise DimensionMismatch(f"expected a point as a real ndarray of {ndim} axes: got {got}")


@lru_cache(maxsize=None)
def _bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_{2(count-1)} computed exactly by the defining recurrence."""
    m = 2 * (count - 1)
    b = [Fraction(0)] * (m + 1)
    b[0] = Fraction(1)
    for j in range(1, m + 1):
        acc = sum(comb(j + 1, k) * b[k] for k in range(j))
        b[j] = -acc / (j + 1)
    return tuple(b[2 * n] for n in range(count))


@lru_cache(maxsize=None)
def dexpinv_coefficients(terms: int) -> tuple[float, ...]:
    """Coefficients c_1..c_terms of sqrt(x)/sinh(sqrt(x)) = 1 + sum c_n x^n."""
    if terms < 0:
        raise ValueError("terms must be >= 0")
    even = _bernoulli_even(terms + 1)
    return tuple(
        float(Fraction(-(2 ** (2 * n) - 2), factorial(2 * n)) * even[n])
        for n in range(1, terms + 1)
    )


def dexpinv_series_tail(coefficients, x):
    """sum_n c_n x^n, the series less its leading 1, by Horner's rule.

    x is a number or an array of eigenvalues of ad^2_theta, for the
    geometries that apply the series on that spectrum.
    """
    tail = 0.0
    for c in reversed(coefficients):
        tail = (tail + c) * x
    return tail


def dexpinv_series_apply(coefficients, ad2, w):
    """Apply w + sum_n c_n ad2^n(w) for a linear map ad2 on the tangent space.

    `coefficients` are c_1..c_N, as `dexpinv_coefficients(N)` returns them.
    """
    out = w
    power = w
    for cn in coefficients:
        power = ad2(power)
        out = out + cn * power
    return out


@dataclass(slots=True)
class StepRecord:
    """Per-step diagnostics emitted by the steppers."""

    index: int
    h: float
    stage_norms: tuple[float, ...]
    residual: float
    renormalized: bool = False
    fixed_point_iterations: int = 0
    tangency_defect: float = 0.0


def _resolve_coefficients(dexpinv_terms):
    """The series coefficients a step hands to `SpaceContract.tangent`.

    None selects the exact dExp^{-1}; an integer truncates the series to
    that many terms.
    """
    if dexpinv_terms is None:
        return None
    return dexpinv_coefficients(_count("dexpinv_terms", dexpinv_terms))


def _count(name: str, value) -> int:
    """value as an int: TypeError unless it is an integer, ValueError if negative."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer: {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0: {value}")
    return value


def _bad_stage(phi: float, limit: float) -> SymmflowError:
    if not math.isfinite(phi):
        return NumericalFailure(f"stage tangent is not finite (norm {phi})")
    return StepTooLarge(f"stage norm {phi:.6f} >= {limit:.6f}; reduce the step size")


def _max_abs(x) -> float:
    # The ufunc reduction itself: ndarray.max goes through numpy's Python wrapper.
    return float(np.maximum.reduce(abs(x), axis=None))


def _nonzero_terms(coefficients) -> tuple[tuple[float, int], ...]:
    """The (c_j, j) of a tableau row or of b with c_j != 0."""
    return tuple((c, j) for j, c in enumerate(coefficients) if c != 0.0)


def _combine(terms, ktil):
    """sum_j c_j Kt_j over a row's non-zero terms, from its first one; None if none.

    A term whose c_j is exactly 1 is added without the product, which is Kt_j.
    """
    theta = None
    for c, j in terms:
        term = ktil[j] if c == 1.0 else c * ktil[j]
        theta = term if theta is None else theta + term
    return theta


def _step_map(space: SpaceContract, tableau: ButcherTableau, field, h, dexpinv_terms,
              diagnostics):
    """The one-step map y -> (y_next, StepRecord) of `cssi_step`.

    Whatever does not change from step to step is taken here once: the
    tableau rows and b as their non-zero terms, the series coefficients and
    the space's bound methods. An h that is not a real number (complex, a
    string, None) raises TypeError here, before any step.
    """
    if not isinstance(h, numbers.Real):
        raise TypeError(f"step size h must be a real number: {h!r}")
    h = float(h)
    coefficients = _resolve_coefficients(dexpinv_terms)
    # Python floats: cheaper to test and scale by than numpy scalars.
    rows = [_nonzero_terms(row) for row in tableau.a.tolist()]
    weights = _nonzero_terms(tableau.b.tolist())
    r, explicit = tableau.stages, tableau.is_explicit
    base_of, stage_of, exp, tangent = space.base, space.stage, space.exp, space.tangent
    field_value, residual_of, limit = space.field_value, space.invariant_residual, space.stage_limit

    def step(y):
        base = base_of(y)
        stage_norms = [0.0] * r
        defect = 0.0

        def stage_value(i, theta):
            """Kt_i of stage i; theta None is a zero stage, taken at y itself."""
            nonlocal defect
            if theta is None:
                p, data = y, None
            else:
                phi, data = stage_of(theta)
                stage_norms[i] = phi
                if not phi < limit:  # also NaN and inf
                    raise _bad_stage(phi, limit)
                p = exp(base, theta, data)
            value = field(p)
            if not (
                isinstance(value, np.ndarray)
                and value.shape == p.shape
                and value.dtype.kind in _REAL_KINDS
            ):
                got = (
                    f"{value.dtype} of shape {value.shape}"
                    if isinstance(value, np.ndarray)
                    else type(value).__name__
                )
                raise DimensionMismatch(
                    f"field value must be a real ndarray of shape {p.shape}: got {got}"
                )
            value, d = field_value(p, value, diagnostics)
            if d > defect:
                defect = d
            return tangent(base, theta, data, value, coefficients, h)

        fp_iterations = 0
        if explicit:
            ktil = []
            for i, row in enumerate(rows):
                ktil.append(stage_value(i, _combine(row, ktil)))
        else:
            tol = _FP_TOL * max(1.0, _max_abs(y))
            # The iteration starts from zero stages; an empty row stays one.
            thetas = [None] * r
            ktil = [stage_value(i, None) for i in range(r)]
            for fp_iterations in range(1, _FP_CAP + 1):
                new_thetas = [_combine(row, ktil) for row in rows]
                # Stop before evaluating again once no stage moved by more
                # than tol: ktil was evaluated within tol of the new stages.
                # A NaN change counts as a move.
                for new, old in zip(new_thetas, thetas):
                    if new is not None and not _max_abs(new if old is None else new - old) <= tol:
                        break
                else:
                    break
                thetas = new_thetas
                ktil = [stage_value(i, thetas[i]) for i in range(r)]
            else:
                raise FixedPointDivergence(
                    f"implicit stages did not converge in {_FP_CAP} iterations"
                )

        theta_out = _combine(weights, ktil)  # b sums to 1: never empty
        phi_out, data_out = stage_of(theta_out)
        if not math.isfinite(phi_out):
            raise NumericalFailure(f"update tangent is not finite (norm {phi_out})")
        y_next = exp(base, theta_out, data_out)
        residual = residual_of(y_next)
        if not math.isfinite(residual):  # also when y_next is not finite
            raise NumericalFailure(f"step produced a non-finite point (residual {residual})")
        record = StepRecord(
            index=-1,
            h=h,
            stage_norms=tuple(stage_norms),
            residual=residual,
            fixed_point_iterations=fp_iterations,
            tangency_defect=defect,
        )
        return y_next, record

    return step


def cssi_step(
    space: SpaceContract,
    tableau: ButcherTableau,
    field,
    y,
    h: float,
    *,
    dexpinv_terms=None,
    diagnostics: bool = False,
):
    """One Runge-Kutta step of y' = F(y) along geodesics of `space`.

    Returns (y_next, StepRecord). `dexpinv_terms=None` selects the exact
    dExp^{-1} correction, which every geometry sums in closed form; an
    integer forces that many series terms (0 disables the correction
    entirely).
    """
    return _step_map(space, tableau, field, h, dexpinv_terms, diagnostics)(y)


def march(step_fn, space: SpaceContract, y0, n_steps: int):
    """Drive a single-step map n_steps times, renormalizing drifted points.

    Returns (trajectory, records) with n_steps + 1 points starting at y0.
    Points that fail `space.within_tolerance` are renormalized before being
    stored (the pre-renormalization residual stays in the record). A step
    map must raise on a non-finite point, as `cssi_step`'s does. Each step
    takes `space.base` of the point before it, which refuses a point that
    has left the manifold (SPD's loss of positive definiteness); the last
    point gets the same test, once, as part of the last step. Step errors
    are re-raised with `step_index` attached.
    """
    y = y0
    trajectory = [y0]
    records: list[StepRecord] = []
    last = n_steps - 1
    for step in range(n_steps):
        try:
            y_next, record = step_fn(y)
            if not space.within_tolerance(y_next, record.residual):
                y_next = space.renormalize(y_next)
                record.renormalized = True
            if step == last:
                space.base(y_next)
        except SymmflowError as err:
            err.step_index = step
            raise
        record.index = step
        trajectory.append(y_next)
        records.append(record)
        y = y_next
    return trajectory, records


def integrate(
    space: SpaceContract,
    tableau: ButcherTableau,
    field,
    y0,
    h: float,
    n_steps: int,
    *,
    dexpinv_terms=None,
    diagnostics: bool = False,
):
    """March n_steps of cssi_step from y0; see `march` for the loop contract.

    The step map is built once for the whole integration.

    y0 must lie on the manifold: `space.check_point` raises NotOnManifold
    (or DimensionMismatch) before the first step otherwise. An h that is not
    a real number, an n_steps that is not an integer, or a `dexpinv_terms`
    that is neither None nor an integer raises TypeError, and a negative
    n_steps or `dexpinv_terms` raises ValueError, also before the first step.
    """
    step = _step_map(space, tableau, field, h, dexpinv_terms, diagnostics)
    n_steps = _count("n_steps", n_steps)
    space.check_point(y0)
    return march(step, space, y0, n_steps)


def lts_axiom_residuals(triple, u, v, w, t, z):
    """Residuals of the three Lie-triple-system axioms for a bracket map.

    r1: alternating in the first two slots, [u, u, w] = 0.
    r2: cyclic sum [u,v,w] + [v,w,u] + [w,u,v] = 0.
    r3: the derivation property of [u,v,.] over a nested bracket.
    """

    def norm(x):
        return float(np.linalg.norm(np.asarray(x).ravel()))

    r1 = norm(triple(u, u, w))
    r2 = norm(triple(u, v, w) + triple(v, w, u) + triple(w, u, v))
    r3 = norm(
        triple(u, v, triple(z, t, w))
        - triple(triple(u, v, z), t, w)
        - triple(z, triple(u, v, t), w)
        - triple(z, t, triple(u, v, w))
    )
    return r1, r2, r3


def triple_bracket_oracle(hat, o, u, v, w):
    """Triple bracket computed through ambient matrix commutators.

    `hat` maps a tangent at o to the ambient matrix generating its geodesic
    flow (hat(v) @ o == v); the bracket is then [[hat u, hat v], hat w] @ o.
    Serves as an independent cross-check of the geometries' closed forms.
    """
    hu, hv, hw = hat(u), hat(v), hat(w)
    inner = hu @ hv - hv @ hu
    outer = inner @ hw - hw @ inner
    return outer @ o
