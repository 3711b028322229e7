import hashlib
import math

import numpy as np
import pytest

from symmflow import hyperbolic
from symmflow.checks import ambient_step, dexp_forward
from symmflow.core import cssi_step, integrate, triple_bracket_oracle
from symmflow.errors import NonSpacelikeTangent, StepTooLarge
from symmflow.linalg import mat_exp, minkowski, minkowski_metric
from symmflow.problems import build_problem
from symmflow.tableau import builtin_tableau

O2 = np.array([0.0, 0.0, 1.0])
HYPERBOLOID = hyperbolic.HYPERBOLOID


def _exp(base, v):
    return HYPERBOLOID.exp(base, v, HYPERBOLOID.stage(v)[1])


def _dexpinv(theta, w):
    return HYPERBOLOID.dexpinv(theta, HYPERBOLOID.stage(theta)[1], w)


def elliptic_generator(n=2, omega=1.0, boost=0.3, seed=42):
    """A rotation-dominant Lorentz-algebra element with bounded orbits."""
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    skew *= omega / np.linalg.norm(skew)
    b = rng.standard_normal(n)
    b *= boost / np.linalg.norm(b)
    gen = np.zeros((n + 1, n + 1))
    gen[:n, :n] = skew
    gen[:n, n] = b
    gen[n, :n] = b
    return gen


class TestExp:
    def test_zero_tangent_returns_base(self):
        assert _exp(O2, np.zeros(3)) is O2

    def test_axis_boost(self):
        a = 1.3
        out = _exp(O2, np.array([a, 0.0, 0.0]))
        assert np.max(np.abs(out - [math.sinh(a), 0.0, math.cosh(a)])) < 1e-13

    def test_result_stays_on_hyperboloid(self):
        rng = np.random.default_rng(40)
        worst_small = worst_large = 0.0
        for _ in range(100):
            base = hyperbolic.random_point(rng, int(rng.integers(1, 5)))
            phi = rng.uniform(0.0, 5.0)
            v = hyperbolic.random_tangent(rng, base, scale=phi) if phi > 0 else np.zeros_like(base)
            out = _exp(base, v)
            residual = abs(minkowski(out, out) - 1.0)
            if phi <= 3.0:
                worst_small = max(worst_small, residual)
            worst_large = max(worst_large, residual)
        # the measurement itself costs cosh(phi)^2 ulps, so the bound widens
        # with the rapidity range
        assert worst_small <= 1e-12
        assert worst_large <= 1e-10

    def test_upper_sheet_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            base = hyperbolic.random_point(rng, 3)
            v = hyperbolic.random_tangent(rng, base, scale=rng.uniform(0, 4))
            assert _exp(base, v)[-1] >= 1.0 - 1e-12

    def test_non_spacelike_tangent_rejected(self):
        with pytest.raises(NonSpacelikeTangent):
            _exp(O2, np.array([0.0, 0.0, 0.5]))

    def test_rapidity_guard(self):
        with pytest.raises(StepTooLarge):
            _exp(O2, np.array([31.0, 0.0, 0.0]))


class TestSigmaAndQuadratic:
    def test_sigma_at_base_is_metric(self):
        assert np.array_equal(hyperbolic.sigma(O2), np.diag([-1.0, -1.0, 1.0]))

    def test_sigma_fixes_its_point(self):
        rng = np.random.default_rng(42)
        s = hyperbolic.random_point(rng, 3)
        assert np.max(np.abs(hyperbolic.sigma(s) @ s - s)) <= 1e-12

    def test_sigma_is_minkowski_isometry(self):
        rng = np.random.default_rng(43)
        s = hyperbolic.random_point(rng, 3)
        mat = hyperbolic.sigma(s)
        y, z = np.random.default_rng(1).standard_normal((2, 4))
        assert abs(minkowski(mat @ y, mat @ z) - minkowski(y, z)) <= 1e-12

    def test_quadratic_at_base_is_identity(self):
        assert np.max(np.abs(hyperbolic.quadratic(O2) - np.eye(3))) < 1e-15

    def test_quadratic_doubles_the_boost_angle(self):
        a = 0.8
        s = np.array([math.sinh(a), math.cosh(a)])
        out = hyperbolic.quadratic(s) @ np.array([0.0, 1.0])
        assert np.max(np.abs(out - [math.sinh(2 * a), math.cosh(2 * a)])) < 1e-13

    def test_block_formula_matches_composition(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            s = hyperbolic.random_point(rng, 3)
            ss, st = s[:-1], s[-1]
            block = np.empty((4, 4))
            block[:3, :3] = np.eye(3) + 2.0 * np.outer(ss, ss)
            block[:3, 3] = 2.0 * st * ss
            block[3, :3] = 2.0 * st * ss
            block[3, 3] = 1.0 + 2.0 * float(ss @ ss)
            assert np.max(np.abs(hyperbolic.quadratic(s) - block)) <= 1e-13

    def test_quadratic_is_minkowski_isometry(self):
        rng = np.random.default_rng(45)
        s = hyperbolic.random_point(rng, 3)
        q = hyperbolic.quadratic(s)
        y, z = np.random.default_rng(2).standard_normal((2, 4))
        assert abs(minkowski(q @ y, q @ z) - minkowski(y, z)) <= 1e-12


class TestBoost:
    def test_polar_factor_properties(self):
        # the positive factor of the Lorentz polar decomposition: symmetric,
        # unit determinant, maps the reference point onto the hyperboloid
        rng = np.random.default_rng(46)
        for _ in range(20):
            boost = hyperbolic.lorentz_boost(rng.standard_normal(3))
            assert np.max(np.abs(boost - boost.T)) <= 1e-12
            assert abs(np.linalg.det(boost) - 1.0) <= 1e-10
            point = boost @ hyperbolic.base_point(3)
            assert abs(minkowski(point, point) - 1.0) <= 1e-11

    def test_boost_squared_is_quadratic(self):
        rng = np.random.default_rng(47)
        boost = hyperbolic.lorentz_boost(rng.standard_normal(3))
        point = boost @ hyperbolic.base_point(3)
        assert np.max(np.abs(hyperbolic.quadratic(point) - boost @ boost)) <= 1e-11

    def test_preserves_metric(self):
        boost = hyperbolic.lorentz_boost(np.array([0.4, -0.2, 0.9]))
        j = minkowski_metric(4)
        assert np.max(np.abs(boost.T @ j @ boost - j)) <= 1e-12


class TestTransport:
    def test_identity_at_zero_stage(self):
        rng = np.random.default_rng(48)
        y = hyperbolic.random_point(rng, 3)
        w = hyperbolic.random_tangent(rng, y)
        assert np.max(np.abs(HYPERBOLOID.transport(y, w) - w)) <= 1e-14

    def test_isometry_and_tangency(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            y = hyperbolic.random_point(rng, 3)
            theta = hyperbolic.random_tangent(rng, y, scale=rng.uniform(0.1, 2.0))
            endpoint = _exp(y, theta)
            mid = _exp(y, 0.5 * theta)
            w = hyperbolic.random_tangent(rng, endpoint, scale=rng.uniform(0.1, 2.0))
            out = HYPERBOLOID.transport(mid, w)
            assert abs(minkowski(out, out) - minkowski(w, w)) <= 1e-12
            assert abs(minkowski(out, y)) <= 1e-12


class TestDexpinv:
    def test_parallel_component_unchanged(self):
        theta = np.array([0.9, 0.0, 0.0])
        w = 2.0 * theta
        assert np.max(np.abs(_dexpinv(theta, w) - w)) <= 1e-14

    def test_orthogonal_at_unit_rapidity(self):
        theta = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        out = _dexpinv(theta, w)
        assert np.max(np.abs(out - (1.0 / math.sinh(1.0)) * w)) <= 1e-14

    def test_contracts_normal_component(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            y = hyperbolic.random_point(rng, 3)
            theta = hyperbolic.random_tangent(rng, y, scale=rng.uniform(0.1, 5.0))
            w = hyperbolic.random_tangent(rng, y)
            out = _dexpinv(theta, w)
            # Minkowski norm of tangents is negative definite; compare
            # magnitudes through -<., .>
            assert -minkowski(out, out) <= -minkowski(w, w) + 1e-12

    def test_round_trip_with_forward_map(self):
        rng = np.random.default_rng(51)
        y = hyperbolic.random_point(rng, 4)
        theta = hyperbolic.random_tangent(rng, y, scale=1.2)
        w = hyperbolic.random_tangent(rng, y, scale=0.8)
        out = _dexpinv(theta, dexp_forward(theta, w, HYPERBOLOID))
        assert np.max(np.abs(out - w)) <= 1e-13


class TestTriple:
    def test_alternating(self):
        rng = np.random.default_rng(52)
        y = hyperbolic.random_point(rng, 3)
        u = hyperbolic.random_tangent(rng, y)
        w = hyperbolic.random_tangent(rng, y)
        assert np.max(np.abs(HYPERBOLOID.triple(u, u, w))) == 0.0

    def test_basis_case_sign_flips_versus_sphere(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(HYPERBOLOID.triple(e2, e1, e1), e2)

    def test_matches_commutator_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            base = hyperbolic.random_point(rng, n)
            hat = lambda v: hyperbolic.hat_matrix(base, v)
            u, v, w = (hyperbolic.random_tangent(rng, base) for _ in range(3))
            gap = np.max(
                np.abs(
                    HYPERBOLOID.triple(u, v, w)
                    - triple_bracket_oracle(hat, base, u, v, w)
                )
            )
            assert gap <= 1e-12


class TestChiStepper:
    """The stepper on the hyperboloid."""

    def test_zero_field_constant_trajectory(self):
        t = builtin_tableau("rk4")
        trajectory, _ = integrate(
            hyperbolic.HYPERBOLOID, t, lambda p: np.zeros_like(p), O2, 0.1, 10
        )
        assert all(point is O2 for point in trajectory)

    def test_linear_lorentz_field_fourth_order(self):
        gen = elliptic_generator()
        field = lambda p: gen @ p
        t = builtin_tableau("rk4")
        errors = []
        for h in (0.1, 0.05):
            trajectory, _ = integrate(
                hyperbolic.HYPERBOLOID, t, field, O2, h, round(1.0 / h)
            )
            errors.append(np.linalg.norm(trajectory[-1] - mat_exp(gen) @ O2))
        assert 13.0 <= errors[0] / errors[1] <= 19.0

    def test_hyperboloid_residual_over_thousand_steps(self):
        gen = elliptic_generator()
        field = lambda p: gen @ p
        t = builtin_tableau("rk4")
        _, records = integrate(hyperbolic.HYPERBOLOID, t, field, O2, 0.01, 1000)
        assert max(r.residual for r in records) <= 1e-10

    def test_agrees_with_ambient_step(self):
        # Against the ambient matrix-exponential step, an independent route.
        gen = elliptic_generator()
        field = lambda p: gen @ p
        t = builtin_tableau("rk4")
        y = O2
        for _ in range(25):
            via_step, _ = cssi_step(hyperbolic.HYPERBOLOID, t, field, y, 0.05)
            via_ambient = ambient_step("hyperbolic", t, field, y, 0.05)
            assert np.max(np.abs(via_step - via_ambient)) <= 1e-13
            y = via_step

    def test_upper_sheet_time_coordinate(self):
        gen = elliptic_generator(boost=0.5)
        field = lambda p: gen @ p
        t = builtin_tableau("rk4")
        trajectory, _ = integrate(hyperbolic.HYPERBOLOID, t, field, O2, 0.05, 200)
        assert all(point[-1] >= 1.0 - 1e-12 for point in trajectory)


class TestExpGuards:
    """The space's stage guards, which refuse a stage for its Exp and its
    tangent; it keeps no stage state between calls."""

    @pytest.mark.parametrize(
        "theta, error",
        [
            (np.array([0.0, 0.0, 0.5]), NonSpacelikeTangent),
            (np.array([0.3, 0.0, 0.4]), NonSpacelikeTangent),
            (np.array([31.0, 0.0, 0.0]), StepTooLarge),
        ],
    )
    def test_guards_raise_on_every_call(self, theta, error):
        space = HYPERBOLOID
        base = space.base(O2)
        checked = np.array([0.1, 0.0, 0.0])
        space.exp(base, checked, space.stage(checked)[1])
        for _ in range(2):
            with pytest.raises(error):
                space.stage(theta)
        # dExp^{-1} itself has no guard: it scales the part of w normal to
        # theta by phi/sinh(phi), and phi is 0 on a timelike theta.
        m = space.form(theta, theta)
        phi = math.sqrt(max(-m, 0.0))
        data = (m, phi)
        w = np.array([0.0, 1.0, 0.0])
        factor = phi / math.sinh(phi) if phi else 1.0
        assert np.max(np.abs(space.dexpinv(theta, data, w) - factor * w)) <= 1e-15


def test_implicit_midpoint_minkowski_calls(monkeypatch):
    # Three Minkowski products per non-zero stage: its square, <s, v> for
    # the reflection at the midpoint s, and <theta, w> after it. The stages
    # are evaluated once per iteration but the last, so 4 non-zero
    # evaluations in 5 iterations. Plus the update's norm and the step's
    # residual; the implicit start is a zero stage and takes no norm:
    # 3 * 4 + 2.
    problem = build_problem("hyperbolic", "lorentz_linear", dim=16, seed=7)
    t = builtin_tableau("implicit_midpoint")
    calls = []
    real = hyperbolic.minkowski
    monkeypatch.setattr(hyperbolic, "minkowski", lambda y, z: calls.append(y) or real(y, z))
    _, record = cssi_step(HYPERBOLOID, t, problem.field, problem.spec.y0, 0.01)
    assert record.fixed_point_iterations == 5
    assert len(calls) == 14


# sha256 of the trajectory bytes of lorentz_linear dim 16 seed 7, h = 0.01 to
# T = 2, taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64. An edit that
# reorders the arithmetic of a step changes them. Re-taken when h and the
# dExp^{-1} factor were folded into one scaling of the transported value: the
# trajectories moved from the composed route's by at most 2.2e-16 (implicit
# midpoint) and 1.4e-17 (rk4).
TRAJECTORY_SHA256 = {
    "implicit_midpoint": "0251d79856db28ba1e2a738d712a6966021b852f2562fe592a3593f0c30bb06a",
    "rk4": "38e613a0a9d86d20ab3a870a55f3f68d4d3d47fa52262a350a0bd4b954dca5ef",
}


@pytest.mark.parametrize("method", sorted(TRAJECTORY_SHA256))
def test_trajectory_bits_are_pinned(method):
    problem = build_problem("hyperbolic", "lorentz_linear", dim=16, seed=7, T=2.0)
    trajectory, _ = integrate(
        HYPERBOLOID, builtin_tableau(method), problem.field, problem.spec.y0, 0.01, 200
    )
    digest = hashlib.sha256(np.stack(trajectory).tobytes()).hexdigest()
    assert digest == TRAJECTORY_SHA256[method]
