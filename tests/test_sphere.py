import hashlib
import math

import numpy as np
import pytest

from symmflow import sphere
from symmflow.checks import ambient_step, dexp_forward
from symmflow.core import (
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    integrate,
    triple_bracket_oracle,
)
from symmflow.errors import MidpointUndefined, StepTooLarge
from symmflow.linalg import mat_exp
from symmflow.problems import build_problem
from symmflow.tableau import builtin_tableau

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
SPHERE = sphere.SPHERE


def _exp(base, v):
    return SPHERE.exp(base, v, SPHERE.stage(v)[1])


def _dexpinv(theta, w):
    return SPHERE.dexpinv(theta, SPHERE.stage(theta)[1], w)


class TestExp:
    def test_zero_tangent_returns_base(self):
        assert _exp(E3, np.zeros(3)) is E3

    def test_quarter_great_circle(self):
        out = _exp(E3, (math.pi / 2) * E1)
        assert np.max(np.abs(out - E1)) < 1e-15

    def test_full_loop_returns_base(self):
        out = _exp(E3, 2 * math.pi * E1)
        assert np.max(np.abs(out - E3)) < 1e-13

    def test_result_stays_unit(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            base = sphere.random_point(rng, 4)
            v = sphere.random_tangent(rng, base, scale=rng.uniform(0, 3))
            out = _exp(base, v)
            assert abs(float(out @ out) - 1.0) <= 1e-13

    def test_small_angle_branch_continuous(self):
        v = 1e-5 * E1
        out = _exp(E3, v)
        expected = math.sin(1e-5) * E1 + math.cos(1e-5) * E3
        assert np.max(np.abs(out - expected)) < 1e-18


class TestSigma:
    def test_fixes_its_point(self):
        rng = np.random.default_rng(21)
        x = sphere.random_point(rng, 3)
        assert np.max(np.abs(sphere.sigma(x) @ x - x)) < 1e-14

    def test_negates_orthogonal_directions(self):
        assert np.array_equal(sphere.sigma(E1) @ E2, -E2)

    def test_involution(self):
        rng = np.random.default_rng(22)
        x = sphere.random_point(rng, 4)
        s = sphere.sigma(x)
        assert np.max(np.abs(s @ s - np.eye(5))) <= 1e-14


class TestTransport:
    def test_identity_at_zero_stage(self):
        rng = np.random.default_rng(23)
        y = sphere.random_point(rng, 3)
        w = sphere.random_tangent(rng, y)
        # mid = y when theta = 0; w is tangent so the reflection fixes it
        assert np.max(np.abs(SPHERE.transport(y, w) - w)) < 1e-15

    def test_quarter_circle_orthogonal_vector(self):
        mid = (E1 + E3) / math.sqrt(2.0)
        assert np.array_equal(SPHERE.transport(mid, E2), E2)

    def test_quarter_circle_tangent_vector(self):
        # w = -e3 is tangent at e1 = Exp((pi/2) e1 from e3); hand oracle:
        # w - 2 mid (mid . w) = -e3 + (e1 + e3) = e1.
        mid = (E1 + E3) / math.sqrt(2.0)
        out = SPHERE.transport(mid, -E3)
        assert np.max(np.abs(out - E1)) < 1e-15

    def test_isometry_and_tangency(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            y = sphere.random_point(rng, 4)
            theta = sphere.random_tangent(rng, y, scale=rng.uniform(0.1, 2.5))
            endpoint = _exp(y, theta)
            mid = sphere.midpoint(y, endpoint)
            w = sphere.random_tangent(rng, endpoint, scale=rng.uniform(0.1, 2.0))
            out = SPHERE.transport(mid, w)
            assert abs(np.linalg.norm(out) - np.linalg.norm(w)) <= 1e-13
            assert abs(float(out @ y)) <= 1e-12

    def test_transport_matches_reflection_matrices(self):
        # independent route: Gamma^{-1} = sigma_base sigma_mid as matrices
        rng = np.random.default_rng(25)
        y = sphere.random_point(rng, 4)
        theta = sphere.random_tangent(rng, y, scale=1.3)
        endpoint = _exp(y, theta)
        mid = sphere.midpoint(y, endpoint)
        w = sphere.random_tangent(rng, endpoint)
        via_matrices = sphere.sigma(y) @ (sphere.sigma(mid) @ w)
        assert np.max(np.abs(SPHERE.transport(mid, w) - via_matrices)) <= 1e-13

    def test_antipodal_midpoint_raises(self):
        with pytest.raises(MidpointUndefined):
            sphere.midpoint(E3, -E3)


class TestDexpinv:
    def test_parallel_component_unchanged(self):
        theta = 0.9 * E1
        w = 2.5 * E1
        assert np.max(np.abs(_dexpinv(theta, w) - w)) < 1e-14

    def test_orthogonal_at_right_angle_scales_by_half_pi(self):
        theta = (math.pi / 2) * E1
        out = _dexpinv(theta, E2)
        assert np.max(np.abs(out - (math.pi / 2) * E2)) < 1e-14

    def test_round_trip_with_forward_map(self):
        rng = np.random.default_rng(26)
        y = sphere.random_point(rng, 4)
        theta = sphere.random_tangent(rng, y, scale=0.7)
        w = sphere.random_tangent(rng, y, scale=1.4)
        forward = dexp_forward(theta, w, SPHERE)
        assert np.max(np.abs(_dexpinv(theta, forward) - w)) <= 1e-13

    def test_guard_near_pi(self):
        # The stepper stops a stage short of the conjugate point. heun2's
        # second stage is h F(y), so a constant field theta at h = 1 puts it
        # at theta.
        heun2 = builtin_tableau("heun2")
        theta = (math.pi - 1e-7) * E1
        with pytest.raises(StepTooLarge):
            cssi_step(SPHERE, heun2, lambda p: theta, E3, 1.0)
        cssi_step(SPHERE, heun2, lambda p: 0.99 * theta, E3, 1.0)

    def test_commutes_with_rotations_fixing_theta(self):
        rng = np.random.default_rng(27)
        y = sphere.random_point(rng, 4)
        theta = sphere.random_tangent(rng, y, scale=1.1)
        w = sphere.random_tangent(rng, y)
        # rotation generated in the plane of two directions orthogonal to
        # both y and theta fixes them and acts inside the tangent space
        a = sphere.random_tangent(rng, y)
        b = sphere.random_tangent(rng, y)
        for v in (theta,):
            a = a - (a @ v) * v / (v @ v)
            b = b - (b @ v) * v / (v @ v)
        b = b - (b @ a) * a / (a @ a)
        rotation = mat_exp(0.8 * (np.outer(a, b) - np.outer(b, a)))
        lhs = rotation @ _dexpinv(theta, w)
        rhs = _dexpinv(theta, rotation @ w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_series_matches_closed_form(self):
        rng = np.random.default_rng(28)
        y = sphere.random_point(rng, 4)
        theta = sphere.random_tangent(rng, y, scale=0.3)
        w = sphere.random_tangent(rng, y)
        series = dexpinv_series_apply(
            dexpinv_coefficients(6), lambda x: SPHERE.triple(x, theta, theta), w
        )
        gap = np.max(np.abs(_dexpinv(theta, w) - series))
        assert gap <= 1e-9


class TestTriple:
    def test_alternating(self):
        rng = np.random.default_rng(29)
        y = sphere.random_point(rng, 3)
        u = sphere.random_tangent(rng, y)
        w = sphere.random_tangent(rng, y)
        assert np.max(np.abs(SPHERE.triple(u, u, w))) == 0.0

    def test_basis_case(self):
        assert np.allclose(SPHERE.triple(E2, E1, E1), -E2)

    def test_matches_commutator_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            base = sphere.random_point(rng, n)
            hat = lambda v: sphere.hat_matrix(base, v)
            u, v, w = (sphere.random_tangent(rng, base) for _ in range(3))
            gap = np.max(
                np.abs(SPHERE.triple(u, v, w) - triple_bracket_oracle(hat, base, u, v, w))
            )
            assert gap <= 1e-12


class TestQuadraticRepresentation:
    def test_reflection_composition_reaches_endpoint(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            y = sphere.random_point(rng, 4)
            theta = sphere.random_tangent(rng, y, scale=rng.uniform(0.05, 3.0))
            endpoint = _exp(y, theta)
            mid = sphere.midpoint(y, endpoint)
            via_q = sphere.sigma(mid) @ (sphere.sigma(y) @ y)
            assert np.max(np.abs(via_q - endpoint)) <= 1e-12


class TestCsiStepper:
    """The stepper on the sphere."""

    inv_inertia = np.array([1.0, 0.5, 1.0 / 3.0])

    @staticmethod
    def rigid_body(y):
        return np.cross(y, TestCsiStepper.inv_inertia * y)

    def test_norm_preserved_over_thousand_steps(self):
        t = builtin_tableau("rk4")
        y0 = np.array([0.6, 0.0, 0.8])
        _, records = integrate(sphere.SPHERE, t, self.rigid_body, y0, 0.01, 1000)
        assert max(r.residual for r in records) <= 1e-12

    def test_rotation_field_matches_matrix_exponential(self):
        generator = np.array(
            [[0.0, -1.0, 0.5], [1.0, 0.0, -0.2], [-0.5, 0.2, 0.0]]
        )
        field = lambda y: generator @ y
        y0 = np.array([0.6, 0.0, 0.8])
        t = builtin_tableau("rk4")
        errors = []
        for h in (0.1, 0.05):
            trajectory, _ = integrate(sphere.SPHERE, t, field, y0, h, round(1.0 / h))
            errors.append(
                np.linalg.norm(trajectory[-1] - mat_exp(1.0 * generator) @ y0)
            )
        assert 13.0 <= errors[0] / errors[1] <= 19.0

    def test_huge_step_raises_step_too_large(self):
        # The stage guard holds whichever dExp^{-1} the step uses.
        t = builtin_tableau("rk4")
        y0 = np.array([0.6, 0.0, 0.8])
        for terms in (None, 0, 3):
            with pytest.raises(StepTooLarge):
                cssi_step(
                    sphere.SPHERE, t, self.rigid_body, y0, 50.0, dexpinv_terms=terms
                )

    def test_agrees_with_ambient_step(self):
        # Against the ambient matrix-exponential step, an independent route.
        t = builtin_tableau("rk4")
        y = np.array([0.6, 0.0, 0.8])
        for _ in range(25):
            via_step, _ = cssi_step(sphere.SPHERE, t, self.rigid_body, y, 0.05)
            via_ambient = ambient_step("sphere", t, self.rigid_body, y, 0.05)
            assert np.max(np.abs(via_step - via_ambient)) <= 1e-13
            y = via_step

    def test_series_mode_agrees_between_paths(self):
        t = builtin_tableau("rk4")
        y = np.array([0.6, 0.0, 0.8])
        for terms in (0, 1, 3):
            via_step, _ = cssi_step(
                sphere.SPHERE, t, self.rigid_body, y, 0.05, dexpinv_terms=terms
            )
            via_ambient = ambient_step(
                "sphere", t, self.rigid_body, y, 0.05, terms=terms
            )
            assert np.max(np.abs(via_step - via_ambient)) <= 1e-13

    def test_implicit_step_iterates_and_stays_unit(self):
        t = builtin_tableau("implicit_midpoint")
        y0 = np.array([0.6, 0.0, 0.8])
        out, record = cssi_step(sphere.SPHERE, t, self.rigid_body, y0, 0.1)
        assert record.fixed_point_iterations > 0
        assert abs(float(out @ out) - 1.0) <= 1e-13


def test_rk4_form_calls(monkeypatch):
    # Four dot products per non-zero stage: its square, then B(theta, v),
    # B(y, v) and B(theta, y) in the stage tangent. rk4's first stage is the
    # empty row, which takes none. Plus the update's square and the step's
    # residual: 3 * 4 + 2.
    problem = build_problem("sphere", "rigid_body")
    calls = []
    real = SPHERE.form
    monkeypatch.setattr(SPHERE, "form", lambda u, v: calls.append(u) or real(u, v))
    _, record = cssi_step(SPHERE, builtin_tableau("rk4"), problem.field, problem.spec.y0, 0.01)
    assert record.stage_norms[0] == 0.0 and min(record.stage_norms[1:]) > 0.0
    assert len(calls) == 14


# sha256 of the trajectory bytes of rigid_body seed 42, h = 0.01 to T = 2,
# taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64. An edit that reorders
# the arithmetic of a step changes them. Re-taken when the stage tangent
# became one linear map of the field value: the trajectories moved from the
# composed route's by at most 5.6e-17 (rk4), 1.7e-18 (rk4, 3 terms) and
# 1.1e-16 (implicit midpoint). Here the three-term series and the closed form
# differ by at most 5.6e-17.
TRAJECTORY_SHA256 = {
    ("rk4", None): "a10a5cfcb313e5a51fb236379a9ac10139f4f431b7b5b1b3b389886f959d45a8",
    ("rk4", 3): "26fac46e84354a072d5dffaf8e53474be944080ee266bfee1a5e9dc8ca1b21dd",
    ("implicit_midpoint", None): "31979cb6338e8965422ad70525cdae0f8bd8b8a3b991f97d71a4da837cf0d9e6",
}


@pytest.mark.parametrize("method, terms", sorted(TRAJECTORY_SHA256, key=str))
def test_trajectory_bits_are_pinned(method, terms):
    problem = build_problem("sphere", "rigid_body", T=2.0)
    trajectory, _ = integrate(
        sphere.SPHERE,
        builtin_tableau(method),
        problem.field,
        problem.spec.y0,
        0.01,
        200,
        dexpinv_terms=terms,
    )
    digest = hashlib.sha256(np.stack(trajectory).tobytes()).hexdigest()
    assert digest == TRAJECTORY_SHA256[method, terms]
