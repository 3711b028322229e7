import dataclasses
import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symmflow import hyperbolic, spd, sphere
from symmflow.checks import ambient_step
from symmflow.core import (
    StepRecord,
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    integrate,
    lts_axiom_residuals,
    march,
    triple_bracket_oracle,
)
from symmflow.errors import (
    DimensionMismatch,
    FixedPointDivergence,
    NonPositiveDefinite,
    NotOnManifold,
    NumericalFailure,
    StepTooLarge,
    SymmflowError,
)
from symmflow.problems import build_problem
from symmflow.tableau import ButcherTableau, builtin_tableau, tableau_names


class TestSeriesCoefficients:
    def test_first_three_terms_exact(self):
        c = dexpinv_coefficients(3)
        assert c[0] == -1.0 / 6.0
        assert c[1] == 7.0 / 360.0
        assert c[2] == -31.0 / 15120.0

    def test_fourth_term(self):
        assert abs(dexpinv_coefficients(4)[3] - 127.0 / 604800.0) < 1e-20

    def test_negative_term_count_rejected(self):
        with pytest.raises(ValueError, match="terms"):
            dexpinv_coefficients(-1)

    def test_zero_terms_is_identity(self):
        w = np.array([1.0, 2.0])
        assert dexpinv_series_apply(dexpinv_coefficients(0), lambda x: x, w) is w

    def test_vanishing_double_bracket_is_identity(self):
        w = np.array([1.0, -2.0, 3.0])
        out = dexpinv_series_apply(dexpinv_coefficients(5), lambda x: np.zeros_like(x), w)
        assert np.array_equal(out, w)

    def test_truncation_gap_scales_with_eighth_power(self):
        # Difference between 3 and 8 retained terms is led by the x^4 term,
        # so halving theta (w fixed) shrinks it by about 2^8 = 256.
        rng = np.random.default_rng(11)
        theta_dir = spd.random_sym(rng, 4)
        w = spd.random_sym(rng, 4)

        def gap(scale):
            theta = scale * theta_dir
            ad2 = lambda x: spd.ad2(theta, x)
            a = dexpinv_series_apply(dexpinv_coefficients(3), ad2, w)
            b = dexpinv_series_apply(dexpinv_coefficients(8), ad2, w)
            return float(np.max(np.abs(a - b)))

        ratio = gap(0.1) / gap(0.05)
        assert 200.0 <= ratio <= 330.0


class TestGenericStep:
    def test_zero_field_fixed_point_bitwise(self):
        t = builtin_tableau("rk4")
        y = np.array([0.6, 0.0, 0.8])
        out, record = cssi_step(sphere.SPHERE, t, lambda p: np.zeros_like(p), y, 0.5)
        assert out is y
        assert record.stage_norms == (0.0, 0.0, 0.0, 0.0)
        assert record.residual == 0.0

    def test_stage_one_shortcut_euler_step(self):
        # For explicit tableaus theta_1 = 0 exactly, so an euler step is
        # exactly Exp_y(h F(y)).
        t = builtin_tableau("euler")
        y = np.array([0.6, 0.0, 0.8])
        field = lambda p: np.cross(p, np.array([1.0, 0.5, 1 / 3]) * p)
        out, _ = cssi_step(sphere.SPHERE, t, field, y, 0.2)
        v = 0.2 * field(y)
        assert np.array_equal(out, sphere.SPHERE.exp(y, v, sphere.SPHERE.stage(v)[1]))

    def test_geodesic_field_reproduced_to_roundoff(self):
        # The rotation field whose orbit through y0 is the great circle of
        # v0; stage corrections vanish along a geodesic, so one rk4 step
        # lands on Exp(h v0) up to round-off (far below the O(h^5) bound).
        y0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([0.7, 0.4, 0.0])
        axis = np.cross(y0, v0)
        field = lambda p: np.cross(axis, p)
        out, _ = cssi_step(sphere.SPHERE, builtin_tableau("rk4"), field, y0, 0.3)
        v = 0.3 * v0
        assert np.max(np.abs(out - sphere.SPHERE.exp(y0, v, sphere.SPHERE.stage(v)[1]))) < 1e-13

    def test_spd_constant_field_euler_closed_form(self):
        t = builtin_tableau("euler")
        y = np.eye(3)
        out, _ = cssi_step(spd.SPD, t, lambda p: np.eye(3), y, 0.3)
        assert np.max(np.abs(out - math.exp(0.3) * np.eye(3))) < 1e-13
        out2 = ambient_step("spd", t, lambda p: np.eye(3), y, 0.3)
        assert np.max(np.abs(out2 - math.exp(0.3) * np.eye(3))) < 1e-13

    def test_last_point_gets_the_base_test(self):
        # The point that ends the pinned run above is refused by the test the
        # next step's `base` would make, at the last step, with one more
        # eigendecomposition for the whole call.
        space, y0, field = _random_run("spd", np.random.default_rng(12719), 7)
        euler = builtin_tableau("euler")
        with pytest.raises(NonPositiveDefinite) as excinfo, np.errstate(all="ignore"):
            integrate(space, euler, field, y0, 0.279296875, 4)
        assert excinfo.value.step_index == 3
        trajectory, _ = integrate(space, euler, field, y0, 0.279296875, 3)
        with pytest.raises(NotOnManifold):
            space.check_point(cssi_step(space, euler, field, trajectory[-1], 0.279296875)[0])

    def test_integrate_zero_steps(self):
        t = builtin_tableau("rk4")
        y0 = np.array([0.0, 0.0, 1.0])
        trajectory, records = integrate(
            sphere.SPHERE, t, lambda p: np.zeros_like(p), y0, 0.1, 0
        )
        assert trajectory == [y0]
        assert records == []

    def test_rigid_body_unit_norm_preserved(self):
        t = builtin_tableau("rk4")
        inv_inertia = np.array([1.0, 0.5, 1 / 3])
        field = lambda p: np.cross(p, inv_inertia * p)
        y0 = np.array([0.6, 0.0, 0.8])
        _, records = integrate(sphere.SPHERE, t, field, y0, 0.01, 100)
        assert max(r.residual for r in records) <= 1e-12

    def test_step_error_carries_step_index(self):
        t = builtin_tableau("rk4")
        field = lambda p: 100.0 * np.cross(np.array([0.0, 0.0, 1.0]), p)
        y0 = np.array([0.6, 0.0, 0.8])
        with pytest.raises(StepTooLarge) as excinfo:
            integrate(sphere.SPHERE, t, field, y0, 1.0, 5)
        assert excinfo.value.step_index == 0

    def test_diagnostics_projects_and_records_defect(self):
        t = builtin_tableau("heun2")
        y0 = np.array([0.6, 0.0, 0.8])
        # deliberately non-tangent field: constant ambient vector
        field = lambda p: np.array([0.0, 1.0, 0.5])
        out, record = cssi_step(sphere.SPHERE, t, field, y0, 0.1, diagnostics=True)
        assert record.tangency_defect > 1e-3
        assert abs(float(out @ out) - 1.0) < 1e-12


class TestImplicit:
    axis = np.array([0.0, 0.0, 1.0])

    @staticmethod
    def field(p):
        return np.cross(TestImplicit.axis, p)

    def test_fixed_point_converges_and_is_second_order(self):
        t = builtin_tableau("implicit_midpoint")
        y0 = np.array([0.6, 0.0, 0.8])

        def exact(tt):
            return np.array([0.6 * math.cos(tt), 0.6 * math.sin(tt), 0.8])

        errors = []
        for h in (0.1, 0.05):
            trajectory, records = integrate(
                sphere.SPHERE, t, self.field, y0, h, round(1.0 / h)
            )
            assert all(r.fixed_point_iterations > 0 for r in records)
            errors.append(np.linalg.norm(trajectory[-1] - exact(1.0)))
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0

    def test_divergence_raises(self):
        t = builtin_tableau("implicit_midpoint")
        y0 = np.array([0.6, 0.0, 0.8])
        with pytest.raises(FixedPointDivergence):
            cssi_step(sphere.SPHERE, t, self.field, y0, 1.5)

    def test_large_states_converge_under_relative_stop(self):
        # The state grows to |y|_inf ~ 23 by step 1457, where an absolute
        # 1e-14 stopping test can no longer be met in round-off.
        problem = build_problem("hyperbolic", "lorentz_linear", dim=16, seed=42, T=20.0)
        t = builtin_tableau("implicit_midpoint")
        trajectory, records = integrate(
            hyperbolic.HYPERBOLOID, t, problem.field, problem.spec.y0, 0.01, 2000
        )
        assert len(records) == 2000
        assert max(r.fixed_point_iterations for r in records) < 50
        exact = problem.exact(20.0)
        relative = np.linalg.norm(trajectory[-1] - exact) / np.linalg.norm(exact)
        assert relative <= 1e-5

    def test_one_field_evaluation_per_iteration(self):
        # The stopping test comes before the stages are evaluated again: the
        # pinned lorentz step converges in 5 iterations with 5 evaluations,
        # the zero initial stage's included (6 with a last re-evaluation).
        problem = build_problem("hyperbolic", "lorentz_linear", dim=16, seed=7)
        calls = []

        def field(p):
            calls.append(p)
            return problem.field(p)

        _, record = cssi_step(
            hyperbolic.HYPERBOLOID, builtin_tableau("implicit_midpoint"), field,
            problem.spec.y0, 0.01,
        )
        assert record.fixed_point_iterations == 5
        assert len(calls) == 5


def _nan_after(calls, field, fill=np.nan):
    """`field` for the first `calls` evaluations (two steps below), then `fill`."""
    count = [0]

    def wrapped(p):
        count[0] += 1
        value = field(p)
        return value if count[0] <= calls else np.full_like(value, fill)

    return wrapped


def _returning(point, space):
    """A step map that always lands on `point`."""

    def step(y):
        return point, StepRecord(-1, 0.1, (), space.invariant_residual(point))

    return step


_ROT = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_BOOST = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
_DIAG = np.diag([1.0, 2.0, 3.0])
NON_FINITE_CASES = {
    "sphere-field": lambda: integrate(
        sphere.SPHERE, builtin_tableau("rk4"), _nan_after(8, lambda p: _ROT @ p),
        np.array([0.6, 0.0, 0.8]), 0.1, 5,
    ),
    "hyperboloid-field": lambda: integrate(
        hyperbolic.HYPERBOLOID, builtin_tableau("implicit_midpoint"),
        _nan_after(24, lambda p: (_ROT + _BOOST) @ p), hyperbolic.base_point(2), 0.1, 5,
    ),
    "spd-field": lambda: integrate(
        spd.SPD, builtin_tableau("rk4"),
        _nan_after(8, lambda p: p @ _DIAG @ p, fill=np.inf),
        np.diag([1.0, 1.5, 2.0]) + 0.1, 0.01, 5,
    ),
    "sphere-renormalize-zero": lambda: march(
        _returning(np.zeros(3), sphere.SPHERE), sphere.SPHERE, np.array([0.0, 0.0, 1.0]), 3
    ),
    "hyperboloid-renormalize-timelike": lambda: march(
        _returning(np.array([1.0, 0.0, 0.5]), hyperbolic.HYPERBOLOID),
        hyperbolic.HYPERBOLOID, hyperbolic.base_point(2), 3,
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_or_unnormalizable_raises_numerical_failure(case):
    with pytest.raises(NumericalFailure) as excinfo, np.errstate(invalid="ignore"):
        NON_FINITE_CASES[case]()
    expected_step = 0 if "renormalize" in case else 2
    assert excinfo.value.step_index == expected_step


def test_cssi_step_raises_when_the_update_overflows():
    # Finite stages and an update 30 I inside SPD's stage spread, but its Exp
    # scales y = 1e300 I by e^30, past the largest float.
    with pytest.raises(NumericalFailure, match="non-finite point"), np.errstate(
        over="ignore", invalid="ignore"
    ):
        cssi_step(spd.SPD, builtin_tableau("euler"), lambda p: 300.0 * p, 1e300 * np.eye(2), 0.1)


_ON_MANIFOLD = {
    "sphere": (sphere.SPHERE, np.array([0.6, 0.0, 0.8])),
    "hyperbolic": (hyperbolic.HYPERBOLOID, hyperbolic.base_point(2)),
    "spd": (spd.SPD, np.diag([1.0, 1.5, 2.0]) + 0.1),
}
_GENERATORS = {"sphere": _ROT, "hyperbolic": _ROT + _BOOST}


def _field(geometry):
    if geometry == "spd":
        return lambda p: p @ _DIAG @ p
    return lambda p: _GENERATORS[geometry] @ p


@pytest.mark.parametrize("method", tableau_names())
@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_cssi_step_is_the_first_step_of_integrate(geometry, method):
    space, y0 = _ON_MANIFOLD[geometry]
    t = builtin_tableau(method)
    y1, record = cssi_step(space, t, _field(geometry), y0, 0.05)
    trajectory, records = integrate(space, t, _field(geometry), y0, 0.05, 1)
    assert trajectory[1].tobytes() == y1.tobytes()
    record.index = 0
    assert records == [record]


def _bad_after(calls, field, bad):
    """`field` for the first `calls` evaluations (one rk4 step below), then `bad`."""
    count = [0]

    def wrapped(p):
        count[0] += 1
        return field(p) if count[0] <= calls else bad(p)

    return wrapped


BAD_FIELD_VALUES = {
    "wrong-shape": lambda p: np.zeros(p.size + 1),
    "list": lambda p: p.tolist(),
    "none": lambda p: None,
    "complex": lambda p: p.astype(complex),
    "object": lambda p: p.astype(object),
    "bool": lambda p: p > 0.0,
}


@pytest.mark.parametrize("kind", sorted(BAD_FIELD_VALUES))
@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_bad_field_value_raises_dimension_mismatch(geometry, kind):
    space, y0 = _ON_MANIFOLD[geometry]
    field = _bad_after(4, _field(geometry), BAD_FIELD_VALUES[kind])
    with pytest.raises(DimensionMismatch) as excinfo:
        integrate(space, builtin_tableau("rk4"), field, y0, 0.01, 3)
    assert excinfo.value.step_index == 1


@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_integer_and_single_precision_field_values_accepted(geometry):
    space, y0 = _ON_MANIFOLD[geometry]
    t = builtin_tableau("rk4")
    zeros, _ = integrate(space, t, lambda p: np.zeros(p.shape, dtype=np.int64), y0, 0.01, 3)
    assert all(point is y0 for point in zeros)
    field = _field(geometry)
    single, _ = integrate(space, t, lambda p: field(p).astype(np.float32), y0, 0.01, 3)
    double, _ = integrate(space, t, field, y0, 0.01, 3)
    assert single[-1].dtype == np.float64
    # float32 rounds the field value to about 6e-8 of its size.
    assert np.max(np.abs(single[-1] - double[-1])) <= 1e-6 * np.max(np.abs(double[-1]))


@pytest.mark.parametrize("terms, error", [(2.7, TypeError), ("2", TypeError), (-1, ValueError)])
def test_bad_dexpinv_terms_rejected_before_the_first_step(terms, error):
    calls = []
    with pytest.raises(error, match="dexpinv_terms"):
        integrate(
            spd.SPD, builtin_tableau("rk4"), lambda p: calls.append(p) or np.zeros_like(p),
            np.eye(2), 0.01, 3, dexpinv_terms=terms,
        )
    assert calls == []


@pytest.mark.parametrize("h", [0.1j, np.complex128(0.1), "0.1", None, [0.1], np.array(0.1)])
@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_bad_step_size_rejected_before_the_first_step(geometry, h):
    # Unrefused, numpy would cast a complex h * value to its real part in
    # place (hyperboloid), or the stepper would blame the field (SPD).
    space, y0 = _ON_MANIFOLD[geometry]
    calls = []
    field = lambda p: calls.append(p) or _field(geometry)(p)
    with pytest.raises(TypeError, match="step size h"):
        integrate(space, builtin_tableau("rk4"), field, y0, h, 3)
    with pytest.raises(TypeError, match="step size h"):
        cssi_step(space, builtin_tableau("rk4"), field, y0, h)
    assert calls == []


@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_real_step_sizes_of_any_type_step_as_floats(geometry):
    space, y0 = _ON_MANIFOLD[geometry]
    t = builtin_tableau("rk4")
    want, _ = integrate(space, t, _field(geometry), y0, 0.05, 2)
    for h in (np.float64(0.05), Fraction(1, 20)):
        got, records = integrate(space, t, _field(geometry), y0, h, 2)
        assert np.stack(got).tobytes() == np.stack(want).tobytes()
        assert all(type(record.h) is float for record in records)


@pytest.mark.parametrize(
    "n_steps, error", [(-1, ValueError), (2.0, TypeError), ("3", TypeError), (None, TypeError)]
)
def test_bad_step_count_rejected_before_the_first_step(n_steps, error):
    # Unrefused, a negative n_steps would return [y0] as if it had stepped.
    calls = []
    with pytest.raises(error, match="n_steps"):
        integrate(
            sphere.SPHERE, builtin_tableau("rk4"), lambda p: calls.append(p) or np.zeros_like(p),
            np.array([0.0, 0.0, 1.0]), 0.01, n_steps,
        )
    assert calls == []


@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_non_finite_update_raises_numerical_failure(geometry):
    # Euler's one stage is zero, so a field of entries 1e200 passes it and
    # the update's square overflows.
    space, y0 = _ON_MANIFOLD[geometry]
    euler = builtin_tableau("euler")
    with pytest.raises(NumericalFailure, match="update tangent is not finite"), np.errstate(
        all="ignore"
    ):
        integrate(space, euler, lambda p: np.full(p.shape, 1e200), y0, 0.1, 3)


def test_timelike_infinite_field_value_raises_numerical_failure():
    # Its Minkowski square is +inf, which must not read as a stage of norm
    # 0: euler would return the start point, unmoved, for every step.
    for method in ("euler", "rk4", "implicit_midpoint"):
        with pytest.raises(NumericalFailure, match="not finite") as excinfo, np.errstate(
            all="ignore"
        ):
            integrate(
                hyperbolic.HYPERBOLOID, builtin_tableau(method),
                lambda p: np.array([0.0, 0.0, np.inf]), hyperbolic.base_point(2), 0.1, 3,
            )
        assert excinfo.value.step_index == 0


def test_spd_march_renormalizes_a_skewed_point():
    skewed = np.array([[2.0, 0.5 + 1e-9], [0.5, 1.0]])
    trajectory, records = march(_returning(skewed, spd.SPD), spd.SPD, np.eye(2), 2)
    assert all(record.renormalized for record in records)
    assert all(record.residual == spd.SPD.invariant_residual(skewed) for record in records)
    for point in trajectory[1:]:
        assert np.array_equal(point, point.T)
        assert np.max(np.abs(point - skewed)) <= 1e-9


OFF_MANIFOLD = {
    "sphere-norm-2": ("sphere", np.array([0.0, 0.0, 2.0])),
    "hyperbolic-lower-sheet": ("hyperbolic", -hyperbolic.base_point(2)),
    "hyperbolic-residual": ("hyperbolic", np.array([0.5, 0.0, 1.0])),
    "spd-not-symmetric": ("spd", np.array([[1.0, 0.5], [0.0, 1.0]])),
    "spd-indefinite": ("spd", np.diag([1.0, -1.0])),
    "spd-non-finite": ("spd", np.diag([1.0, np.inf])),
}


@pytest.mark.parametrize("case", sorted(OFF_MANIFOLD))
def test_initial_point_off_manifold_rejected(case):
    geometry, y0 = OFF_MANIFOLD[case]
    calls = []
    with pytest.raises(NotOnManifold) as excinfo:
        integrate(
            _ON_MANIFOLD[geometry][0], builtin_tableau("rk4"),
            lambda p: calls.append(p) or np.zeros_like(p), y0, 0.01, 3,
        )
    assert calls == []
    assert excinfo.value.step_index is None


@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_initial_point_not_an_array_rejected(geometry):
    space, y0 = _ON_MANIFOLD[geometry]
    with pytest.raises(DimensionMismatch):
        integrate(space, builtin_tableau("rk4"), _field(geometry), y0.tolist(), 0.01, 3)
    for bad in (y0[..., None], np.empty((0,) * y0.ndim)):
        with pytest.raises(DimensionMismatch):
            integrate(space, builtin_tableau("rk4"), _field(geometry), bad, 0.01, 3)


@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_initial_point_of_non_real_dtype_rejected(geometry):
    # A complex y0 would pass the manifold checks; the step would then blame
    # the field for the complex values it returns.
    space, y0 = _ON_MANIFOLD[geometry]
    calls = []
    for bad in (y0.astype(complex), y0 > 0.5, y0.astype(object)):
        with pytest.raises(DimensionMismatch, match="real ndarray"):
            integrate(
                space, builtin_tableau("rk4"), lambda p: calls.append(p) or np.zeros_like(p),
                bad, 0.01, 3,
            )
    assert calls == []


ON_MANIFOLD_FAR_OUT = {
    "sphere": [lambda rng: sphere.random_point(rng, 6)],
    # At rapidity s, <y, y> - 1 carries round-off of order e^(2s) ulps: 1.5e-8
    # at s = 6, and at s = 20 <y, y> cancels to 0. Only a residual test
    # relative to y.y keeps such a point, and a zero field, where it is.
    "hyperbolic": [
        lambda rng, s=s: hyperbolic.random_point(rng, 6, scale=s) for s in (6.0, 15.0, 20.0)
    ],
    "spd": [lambda rng: 1e6 * spd.random_spd(rng, 6)],
}


@pytest.mark.parametrize("geometry", sorted(_ON_MANIFOLD))
def test_initial_point_on_manifold_accepted(geometry):
    space = _ON_MANIFOLD[geometry][0]
    far_out = [draw(np.random.default_rng(3)) for draw in ON_MANIFOLD_FAR_OUT[geometry]]
    for y0 in [_ON_MANIFOLD[geometry][1], *far_out]:
        trajectory, records = integrate(
            space, builtin_tableau("rk4"), lambda p: np.zeros_like(p), y0, 0.01, 2
        )
        assert all(point is y0 for point in trajectory)
        assert not any(record.renormalized for record in records)


# The problems whose trajectory bits are pinned below, as the geometry
# modules' own digests take them: h = 0.01 for 200 steps to T = 2. SPD's
# runs force the series terms that its default took before the closed
# dExp^{-1} (one for an order-2 tableau, two for rk4), so their bits stay.
PINNED_RUNS = {
    "sphere": (sphere.SPHERE, ("sphere", "rigid_body"), {}, {}),
    "hyperbolic": (
        hyperbolic.HYPERBOLOID, ("hyperbolic", "lorentz_linear"), {"dim": 16, "seed": 7}, {}
    ),
    "spd": (spd.SPD, ("spd", "double_bracket"), {"dim": 4}, {"trapezoid": 1, "rk4": 2}),
}
# The trapezoidal rule as an implicit tableau: its first row is empty, so its
# first stage is zero by the tableau's structure.
TRAPEZOID = ButcherTableau(name="trapezoid", a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5],
                           declared_order=2)


def _pinned_digest(geometry, tableau, diagnostics):
    """sha256 of a pinned run's trajectory bytes and, under diagnostics, its records."""
    space, (name, problem_name), options, terms = PINNED_RUNS[geometry]
    problem = build_problem(name, problem_name, T=2.0, **options)
    trajectory, records = integrate(
        space, tableau, problem.field, problem.spec.y0, 0.01, 200,
        dexpinv_terms=terms.get(tableau.name), diagnostics=diagnostics,
    )
    digest = hashlib.sha256(np.stack(trajectory).tobytes())
    if diagnostics:
        for record in records:
            digest.update(repr(dataclasses.astuple(record)).encode())
    return digest.hexdigest()


# Taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, before the zero stage
# of an empty row and of the implicit start became `tangent(base, None, ...)`.
TRAPEZOID_SHA256 = {
    "hyperbolic": "43f68619973d00b6f3a8d4b5cbd849143183d78f409248828d3c5a731304f0ae",
    "sphere": "14d52d3c59eb1a1a7380702a673452c9bc2d40da6a91019390da3da1aaaf01fe",
    "spd": "c525275809d8a18954b53b7d35889ff94faed2d62767636e4ccd629b74cc42ea",
}
RK4_RECORDS_SHA256 = {
    "hyperbolic": "22fdebd03f8b37aa426c80b2a6ef59c311eeeabf6d4360fe18480d39b1cd3cd6",
    "sphere": "fee5d9e1449efa49894eaa62ab20965fefced8c74ea47d36c44ac216256de4fd",
    "spd": "727c02bfac4bc20c63787cd6fd8c6140ca29e88935903b8cc9c4abd2a7039618",
}


@pytest.mark.parametrize("geometry", sorted(PINNED_RUNS))
def test_trapezoid_bits_are_pinned(geometry):
    assert _pinned_digest(geometry, TRAPEZOID, False) == TRAPEZOID_SHA256[geometry]


@pytest.mark.parametrize("geometry", sorted(PINNED_RUNS))
def test_rk4_records_are_pinned(geometry):
    # Under diagnostics every field value is projected and its defect kept,
    # and every StepRecord field enters the digest.
    got = _pinned_digest(geometry, builtin_tableau("rk4"), True)
    assert got == RK4_RECORDS_SHA256[geometry]


def _random_run(geometry, rng, n):
    """(space, y0, field) of a seeded run: a rotation plus a pull towards a
    point on the sphere, a generator of so(n, 1) from a base up to distance 2
    on the hyperboloid, a double bracket with a random target on SPD."""
    if geometry == "sphere":
        a = rng.standard_normal((n + 1, n + 1))
        a = a - a.T
        b = rng.standard_normal(n + 1)
        return sphere.SPHERE, sphere.random_point(rng, n), lambda y: a @ y + (b - float(b @ y) * y)
    if geometry == "hyperbolic":
        g = np.zeros((n + 1, n + 1))
        skew = rng.standard_normal((n, n))
        g[:n, :n] = skew - skew.T
        g[:n, n] = g[n, :n] = rng.standard_normal(n)
        y0 = hyperbolic.random_point(rng, n, scale=rng.uniform(0.0, 2.0))
        return hyperbolic.HYPERBOLOID, y0, lambda y: g @ y
    target = spd.random_sym(rng, n, scale=3.0)

    def field(y):
        inner = y @ target - target @ y
        return y @ inner - inner @ y

    return spd.SPD, spd.random_spd(rng, n), field


@settings(max_examples=150, deadline=None)
@given(
    geometry=st.sampled_from(sorted(_ON_MANIFOLD)),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    h=st.floats(1e-3, 1.0),
    method=st.sampled_from(tableau_names()),
    terms=st.one_of(st.none(), st.integers(0, 3)),
)
# Its last point has condition 4.7e14 and residual 0, which `check_point`
# refuses as not positive definite (past its floor of 1e-13 of the largest
# entry): `integrate` raises NonPositiveDefinite at the last step.
@example(geometry="spd", n=7, seed=12719, h=0.279296875, method="euler", terms=None)
def test_integrate_stays_on_the_manifold_or_raises(geometry, n, seed, h, method, terms):
    # Either every point of the run is on the manifold, as `check_point`
    # tests y0 (the residual that `march` keeps, the sheet, positive
    # definiteness), or the run raises a typed error: large h puts stages
    # past the guards and implicit steps past their fixed-point cap, and
    # nothing else may escape.
    space, y0, field = _random_run(geometry, np.random.default_rng(seed), n)
    with np.errstate(all="ignore"):
        try:
            trajectory, _ = integrate(
                space, builtin_tableau(method), field, y0, h, 4, dexpinv_terms=terms
            )
        except SymmflowError:
            return
    for y in trajectory:
        space.check_point(y)


# Malformed inputs to `integrate`, by what they replace; "as-is" leaves it.
_BAD_Y0 = {
    "as-is": lambda y: y,
    "complex": lambda y: y.astype(complex),
    "bool": lambda y: y > 0.5,
    "object": lambda y: y.astype(object),
    "str": lambda y: y.astype(str),
    "int": lambda y: y.astype(np.int64),
    "list": lambda y: y.tolist(),
    "none": lambda y: None,
    "extra-axis": lambda y: y[..., None],
    "empty": lambda y: y[:0],
    "nan": lambda y: np.full_like(y, np.nan),
    "inf": lambda y: np.full_like(y, np.inf),
    "doubled": lambda y: 2.0 * y,
    "negated": lambda y: -y,
}
_BAD_VALUES = {
    "as-is": lambda v: v,
    "wrong-shape": lambda v: np.zeros(v.size + 1),
    "flattened": lambda v: v.ravel() if v.ndim > 1 else v[None],
    "complex": lambda v: v.astype(complex),
    "object": lambda v: v.astype(object),
    "bool": lambda v: v > 0.0,
    "str": lambda v: v.astype(str),
    "list": lambda v: v.tolist(),
    "none": lambda v: None,
    "scalar": lambda v: 1.0,
    "nan": lambda v: np.full_like(v, np.nan),
    "inf": lambda v: np.full_like(v, np.inf),
    "minus-inf-entry": lambda v: np.where(np.arange(v.size).reshape(v.shape) == 0, -np.inf, v),
    "huge": lambda v: 1e200 * v,
    "float32": lambda v: v.astype(np.float32),
    "int": lambda v: v.astype(np.int64),
}
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.complex_numbers(),
    st.just([1]), st.just(np.complex128(1.0)),
)


# Each input is well formed in about half the draws, so that a good share
# of the draws reach the field.
@settings(max_examples=500, deadline=None)
@given(
    geometry=st.sampled_from(sorted(_ON_MANIFOLD)),
    method=st.sampled_from(tableau_names()),
    y0_kind=st.one_of(st.just("as-is"), st.sampled_from(sorted(_BAD_Y0))),
    value_kind=st.sampled_from(sorted(_BAD_VALUES)),
    good_calls=st.integers(0, 6),
    h=st.one_of(st.floats(1e-3, 0.5), st.one_of(st.floats(), st.integers(-2, 2), _ANY_VALUE)),
    n_steps=st.one_of(
        st.integers(0, 3), st.one_of(st.integers(-2, -1), st.floats(-2.0, 3.0), _ANY_VALUE)
    ),
    terms=st.one_of(
        st.none(), st.integers(0, 4), st.one_of(st.integers(-2, -1), st.floats(0.0, 3.0), _ANY_VALUE)
    ),
)
def test_malformed_input_raises_only_documented_errors(
    geometry, method, y0_kind, value_kind, good_calls, h, n_steps, terms
):
    # Whatever `integrate` is handed, it returns or raises a SymmflowError, or
    # the TypeError / ValueError that names a malformed h, n_steps or
    # dexpinv_terms. Nothing else may escape (numpy's ComplexWarning is an
    # error under the suite's warning filter).
    space, y0 = _ON_MANIFOLD[geometry]
    field = _bad_after(good_calls, _field(geometry), _BAD_VALUES[value_kind])
    try:
        with np.errstate(all="ignore"):
            integrate(
                space, builtin_tableau(method), field, _BAD_Y0[y0_kind](y0), h, n_steps,
                dexpinv_terms=terms,
            )
    except SymmflowError:
        pass
    except (TypeError, ValueError) as err:
        assert re.match(r"(step size h|n_steps|dexpinv_terms) must be", str(err)), err


@settings(max_examples=300, deadline=None)
@given(
    geometry=st.sampled_from(["sphere", "hyperbolic", "spd"]),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    base_distance=st.floats(0.0, 2.0),
)
def test_lts_axioms_hold_at_the_check_suites_bound(geometry, n, seed, base_distance):
    # `checks.lts_suite`'s three axioms and bound, on unit tangents at a
    # random base point (up to distance 2 from the origin on the hyperboloid,
    # where the tangents' coordinates grow like cosh 2).
    rng = np.random.default_rng(seed)
    if geometry == "sphere":
        base = sphere.random_point(rng, n)
        args = [sphere.random_tangent(rng, base) for _ in range(5)]
        bracket = sphere.SPHERE.triple
    elif geometry == "hyperbolic":
        base = hyperbolic.random_point(rng, n, scale=base_distance)
        args = [hyperbolic.random_tangent(rng, base) for _ in range(5)]
        bracket = hyperbolic.HYPERBOLOID.triple
    else:
        args = [spd.random_sym(rng, n) for _ in range(5)]
        bracket = spd.triple
    assert all(r <= 1e-12 for r in lts_axiom_residuals(bracket, *args))


class TestLtsAxioms:
    def test_alternating_residual_is_zero(self):
        rng = np.random.default_rng(12)
        base = sphere.random_point(rng, 4)
        u, v, w, t, z = (sphere.random_tangent(rng, base) for _ in range(5))
        r1, _, _ = lts_axiom_residuals(sphere.SPHERE.triple, u, u, w, t, z)
        assert r1 <= 1e-13

    @pytest.mark.parametrize("geometry", ["sphere", "hyperbolic", "spd"])
    def test_axioms_hold_on_unit_inputs(self, geometry):
        rng = np.random.default_rng(13)
        for _ in range(25):
            if geometry == "sphere":
                base = sphere.random_point(rng, 4)
                args = [sphere.random_tangent(rng, base) for _ in range(5)]
                bracket = sphere.SPHERE.triple
            elif geometry == "hyperbolic":
                base = hyperbolic.random_point(rng, 4)
                args = [hyperbolic.random_tangent(rng, base) for _ in range(5)]
                bracket = hyperbolic.HYPERBOLOID.triple
            else:
                args = [spd.random_sym(rng, 4) for _ in range(5)]
                bracket = spd.triple
            assert all(r <= 1e-12 for r in lts_axiom_residuals(bracket, *args))


class TestTripleBracketOracle:
    def test_equal_first_arguments_vanish(self):
        base = np.array([0.0, 0.0, 1.0])
        hat = lambda v: sphere.hat_matrix(base, v)
        u = np.array([0.0, 1.0, 0.0])
        w = np.array([1.0, 0.0, 0.0])
        assert np.max(np.abs(triple_bracket_oracle(hat, base, u, u, w))) == 0.0

    def test_sphere_basis_case(self):
        base = np.array([0.0, 0.0, 1.0])
        hat = lambda v: sphere.hat_matrix(base, v)
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        via_oracle = triple_bracket_oracle(hat, base, e2, e1, e1)
        assert np.allclose(via_oracle, -e2)
        assert np.allclose(sphere.SPHERE.triple(e2, e1, e1), -e2)

    def test_hyperbolic_sign_flip(self):
        base = np.array([0.0, 0.0, 1.0])
        hat = lambda v: hyperbolic.hat_matrix(base, v)
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        via_oracle = triple_bracket_oracle(hat, base, e2, e1, e1)
        assert np.allclose(via_oracle, e2)
        assert np.allclose(hyperbolic.HYPERBOLOID.triple(e2, e1, e1), e2)
