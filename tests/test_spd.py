import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symmflow import spd
from symmflow.checks import ambient_step
from symmflow.core import (
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    integrate,
    lts_axiom_residuals,
)
from symmflow.errors import (
    DimensionMismatch,
    NonPositiveDefinite,
    NotOnManifold,
    NumericalFailure,
    StepTooLarge,
    SymmetryViolation,
)
from symmflow.linalg import mat_exp, spd_sqrt, symmetrize
from symmflow.problems import build_problem
from symmflow.tableau import builtin_tableau, tableau_names


def double_bracket_field(target):
    def field(y):
        inner = y @ target - target @ y
        return y @ inner - inner @ y

    return field


class TestQuadratic:
    def test_identity_action(self):
        y = np.diag([2.0, 3.0])
        assert np.array_equal(spd.quadratic(np.eye(2), y), y)

    def test_scalar_case(self):
        assert spd.quadratic(np.diag([2.0]), np.eye(1))[0, 0] == 4.0

    def test_round_trip_with_sqrt(self):
        rng = np.random.default_rng(60)
        y = spd.random_spd(rng, 4)
        assert np.max(np.abs(spd.quadratic(spd_sqrt(y), np.eye(4)) - y)) <= 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd.quadratic(np.eye(2), np.eye(3))


class TestTripleAndAd2:
    def test_commuting_arguments_vanish(self):
        v = np.diag([1.0, 2.0])
        w = np.diag([3.0, 4.0])
        z = spd.random_sym(np.random.default_rng(61), 2)
        assert np.max(np.abs(spd.triple(v, w, z))) == 0.0

    def test_alternating(self):
        rng = np.random.default_rng(62)
        v = spd.random_sym(rng, 3)
        z = spd.random_sym(rng, 3)
        assert np.max(np.abs(spd.triple(v, v, z))) == 0.0

    def test_ad2_hand_case(self):
        # theta = [[0,1],[1,0]], w = diag(1,-1): [[w,theta],theta] = 4w.
        theta = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.diag([1.0, -1.0])
        assert np.array_equal(spd.ad2(theta, w), w)

    def test_ad2_diagonal_pair_vanishes(self):
        assert np.max(np.abs(spd.ad2(np.diag([1.0, 2.0]), np.diag([3.0, 5.0])))) == 0.0

    def test_ad2_linear_in_w(self):
        rng = np.random.default_rng(63)
        theta = spd.random_sym(rng, 4)
        w1 = spd.random_sym(rng, 4)
        w2 = spd.random_sym(rng, 4)
        lhs = spd.ad2(theta, 2.0 * w1 + 3.0 * w2)
        rhs = 2.0 * spd.ad2(theta, w1) + 3.0 * spd.ad2(theta, w2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_result_symmetric(self):
        rng = np.random.default_rng(64)
        v, w, z = (spd.random_sym(rng, 4) for _ in range(3))
        out = spd.triple(v, w, z)
        assert np.max(np.abs(out - out.T)) <= 1e-15

    def test_lts_axioms(self):
        rng = np.random.default_rng(65)
        for _ in range(25):
            args = [spd.random_sym(rng, 4) for _ in range(5)]
            assert all(r <= 1e-12 for r in lts_axiom_residuals(spd.triple, *args))


class TestSqrtUpdate:
    """The square root a step takes of its base point (`sqrt_pair`)."""

    def test_identity(self):
        assert np.max(np.abs(spd.sqrt_pair(np.eye(3))[0] - np.eye(3))) < 1e-14

    def test_known_rotation_case(self):
        c, s = math.cos(0.6), math.sin(0.6)
        q = np.array([[c, -s], [s, c]])
        y = q @ np.diag([4.0, 1.0]) @ q.T
        expected = q @ np.diag([2.0, 1.0]) @ q.T
        assert np.max(np.abs(spd.sqrt_pair(y)[0] - expected)) <= 1e-12

    def test_squares_back(self):
        rng = np.random.default_rng(66)
        y = spd.random_spd(rng, 5)
        root, root_inv = spd.sqrt_pair(y)
        assert np.max(np.abs(root @ root - y)) <= 1e-11 * np.max(np.abs(y))
        assert np.min(np.linalg.eigvalsh(root)) > 0
        assert np.max(np.abs(root @ root_inv - np.eye(5))) <= 1e-12


class TestCsgiStep:
    """The stepper on SPD matrices."""

    def test_zero_field_fixed_point(self):
        rng = np.random.default_rng(67)
        y = spd.random_spd(rng, 3)
        out, _ = cssi_step(
            spd.SPD, builtin_tableau("rk4"), lambda p: np.zeros_like(p), y, 0.5
        )
        assert np.max(np.abs(out - y)) <= 1e-12

    def test_constant_field_euler_closed_form(self):
        out, _ = cssi_step(
            spd.SPD, builtin_tableau("euler"), lambda p: np.eye(2), np.eye(2), 0.3
        )
        assert np.max(np.abs(out - math.exp(0.3) * np.eye(2))) <= 1e-13

    def test_double_bracket_isospectral_and_symmetric(self):
        rng = np.random.default_rng(68)
        y0 = spd.random_spd(rng, 3)
        field = double_bracket_field(np.diag([1.0, 2.0, 3.0]))
        trajectory, records = integrate(
            spd.SPD, builtin_tableau("rk4"), field, y0, 0.01, 100
        )
        assert max(r.residual for r in records) <= 1e-12
        drift = np.max(
            np.abs(np.linalg.eigvalsh(trajectory[-1]) - np.linalg.eigvalsh(y0))
        )
        assert drift <= 1e-8
        assert min(np.linalg.eigvalsh(p).min() for p in trajectory[::10]) > 0.0

    def test_non_symmetric_field_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SymmetryViolation):
            cssi_step(spd.SPD, builtin_tableau("euler"), lambda p: bad, np.eye(2), 0.1)

    def test_non_spd_point_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            cssi_step(
                spd.SPD,
                builtin_tableau("euler"),
                lambda p: np.zeros_like(p),
                np.diag([1.0, -0.5]),
                0.1,
            )

    def test_stage_spread_guard(self):
        # Stages whose eigenvalues, with 0, spread past ln(1/eps) raise: an
        # rk4 step whose output was not positive definite, and one that
        # returned 5.2e21 for the exact 101.
        rng = np.random.default_rng(108)
        y0 = spd.random_spd(rng, 2)
        cases = [
            (double_bracket_field(spd.random_sym(rng, 2, scale=3.0)), y0),
            (lambda p: 1e3 * np.eye(2), np.eye(2)),
        ]
        for field, y0 in cases:
            with pytest.raises(StepTooLarge) as excinfo:
                integrate(spd.SPD, builtin_tableau("rk4"), field, y0, 0.1, 3)
            assert excinfo.value.step_index == 0
        # An euler step's one Exp is of h F(y) = 0.1 c I at y = I.
        euler = builtin_tableau("euler")
        cssi_step(spd.SPD, euler, lambda p: 359.0 * p, np.eye(2), 0.1)
        with pytest.raises(StepTooLarge):
            cssi_step(spd.SPD, euler, lambda p: 361.0 * p, np.eye(2), 0.1)

    def test_truncation_gap_scales_with_fifth_power(self):
        # 1-term vs 3-term corrections differ at x^2 K; with K and theta
        # both proportional to h the gap scales like h^5.
        rng = np.random.default_rng(69)
        theta_dir = spd.random_sym(rng, 3)
        w_dir = spd.random_sym(rng, 3)

        def gap(scale):
            theta = scale * theta_dir
            w = scale * w_dir
            ad2 = lambda x: spd.ad2(theta, x)
            a = dexpinv_series_apply(dexpinv_coefficients(1), ad2, w)
            b = dexpinv_series_apply(dexpinv_coefficients(3), ad2, w)
            return float(np.max(np.abs(a - b)))

        ratio = gap(0.2) / gap(0.1)
        assert 25.6 <= ratio <= 38.4

    def test_implicit_midpoint_converges_second_order(self):
        field = lambda p: np.eye(2)
        y0 = symmetrize(np.array([[2.0, 0.5], [0.5, 1.0]]))
        t = builtin_tableau("implicit_midpoint")
        errors = []
        for h in (0.1, 0.05):
            trajectory, records = integrate(spd.SPD, t, field, y0, h, round(1.0 / h))
            assert all(r.fixed_point_iterations > 0 for r in records)
            errors.append(np.max(np.abs(trajectory[-1] - (y0 + np.eye(2)))))
        assert 3.0 <= errors[0] / errors[1] <= 5.0


class TestRebasedContract:
    """The SPD space against ambient routes that take no square root."""

    def test_generic_step_matches_fixed_base_step(self):
        rng = np.random.default_rng(71)
        y = spd.random_spd(rng, 3)
        field = double_bracket_field(np.diag([1.0, 2.0, 3.0]))
        t = builtin_tableau("rk4")
        for _ in range(10):
            via_step, _ = cssi_step(spd.SPD, t, field, y, 0.01, dexpinv_terms=2)
            via_ambient = ambient_step("spd", t, field, y, 0.01, terms=2)
            assert np.max(np.abs(via_step - via_ambient)) <= 1e-10
            y = via_step

    def test_exp_at_identity_is_matrix_exponential(self):
        rng = np.random.default_rng(72)
        v = spd.random_sym(rng, 3)
        base = spd.SPD.base(np.eye(3))
        assert np.max(np.abs(spd.SPD.exp(base, v, spd.SPD.stage(v)[1]) - mat_exp(v))) <= 1e-12

    def test_triple_at_identity_reduces_to_commutators(self):
        # A one-term series with c_1 = 1 adds exactly ad^2_theta of the
        # pulled-back value, which the space applies in the eigenbasis.
        rng = np.random.default_rng(73)
        theta, value = (spd.random_sym(rng, 3) for _ in range(2))
        base = spd.SPD.base(np.eye(3))
        data = spd.SPD.stage(theta)[1]
        w = spd.SPD.tangent(base, theta, data, value, (), 1.0)
        c = w @ theta - theta @ w
        by_hand = 0.25 * (c @ theta - theta @ c)
        gap = np.max(np.abs(spd.SPD.tangent(base, theta, data, value, (1.0,), 1.0) - w - by_hand))
        assert gap <= 1e-12


def _relative_gap(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestChartExponentials:
    """The eigh-based exp(theta) and stage tangent against Taylor `mat_exp`."""

    @staticmethod
    def _draw(seed, n, theta_norm, log10_cond):
        # y = Q diag(lam) Q^T with condition number exactly 10**log10_cond.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 10.0 ** (log10_cond * rng.uniform(0.0, 1.0, n))
        if n > 1:
            lam[0], lam[-1] = 1.0, 10.0**log10_cond
        y = symmetrize((q * lam) @ q.T)
        theta = spd.random_sym(rng, n, scale=theta_norm)
        value = symmetrize(rng.standard_normal((n, n)))
        return y, theta, value

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        theta_norm=st.floats(0.0, 4.0),
        log10_cond=st.floats(0.0, 6.0),
    )
    def test_exp_and_pullback_match_taylor_route(self, seed, n, theta_norm, log10_cond):
        y, theta, value = self._draw(seed, n, theta_norm, log10_cond)
        base = spd.SPD.base(y)
        _, s, s_inv = base
        phi, data = spd.SPD.stage(theta)
        assert phi == np.linalg.norm(theta)
        if phi == 0.0:
            # A zero stage takes no decomposition, and its Exp is y itself.
            assert data is None and spd.SPD.exp(base, theta, data) is y
            return
        taylor = symmetrize(s @ mat_exp(theta) @ s)
        assert _relative_gap(spd.SPD.exp(base, theta, data), taylor) <= 1e-12

        # With no series terms the stage tangent is the pullback alone.
        half = mat_exp(-0.5 * theta)
        taylor = symmetrize(half @ (s_inv @ value @ s_inv) @ half)
        assert _relative_gap(spd.SPD.tangent(base, theta, data, value, (), 1.0), taylor) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        terms=st.integers(0, 5),
        theta_norm=st.floats(1e-3, 2.0),
        log10_cond=st.floats(0.0, 6.0),
    )
    def test_tangent_matches_series_over_ad2(self, seed, n, terms, theta_norm, log10_cond):
        # The eigenbasis scaling against the Taylor pullback followed by the
        # series of nested commutators.
        y, theta, value = self._draw(seed, n, theta_norm, log10_cond)
        base = spd.SPD.base(y)
        s_inv = base[2]
        coefficients = dexpinv_coefficients(terms)
        got = spd.SPD.tangent(base, theta, spd.SPD.stage(theta)[1], value, coefficients, 1.0)
        half = mat_exp(-0.5 * theta)
        pulled = symmetrize(half @ (s_inv @ value @ s_inv) @ half)
        want = dexpinv_series_apply(coefficients, lambda w: spd.ad2(theta, w), pulled)
        assert _relative_gap(got, want) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        half_spread=st.floats(0.0, 2.5),
        log10_cond=st.floats(0.0, 6.0),
    )
    def test_closed_tangent_matches_long_series(self, seed, n, half_spread, log10_cond):
        # The closed dExp^{-1}, r / sinh(r) on each eigenvalue r^2 of
        # ad^2_theta, against the series of nested commutators. The series
        # converges for r = |w_j - w_k| / 2 < pi; theta's eigenvalues are
        # drawn to span exactly 2 half_spread, so r <= 2.5, where 80 terms
        # leave a remainder below 1e-15 of the pulled-back value.
        y, _, value = self._draw(seed, n, 0.0, log10_cond)
        rng = np.random.default_rng([seed, 1])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(-1.0, 1.0, n)
        w[0], w[-1] = -1.0, 1.0
        theta = symmetrize((q * (half_spread * w + rng.uniform(-1.0, 1.0))) @ q.T)
        base = spd.SPD.base(y)
        got = spd.SPD.tangent(base, theta, spd.SPD.stage(theta)[1], value, None, 1.0)
        half = mat_exp(-0.5 * theta)
        pulled = symmetrize(half @ (base[2] @ value @ base[2]) @ half)
        want = dexpinv_series_apply(
            dexpinv_coefficients(80), lambda x: spd.ad2(theta, x), pulled
        )
        assert _relative_gap(got, want) <= 1e-12

    def test_rk4_step_takes_five_decompositions(self, monkeypatch):
        # One for sqrt(y), one per non-zero stage (3) shared by its exp and
        # tangent, and one for the update. The dExp^{-1} series is applied in
        # the stage's eigenbasis, so no double bracket is formed.
        calls = []
        real = spd.sym_eig
        monkeypatch.setattr(spd, "sym_eig", lambda a: calls.append(a) or real(a))
        brackets = []
        real_ad2 = spd.ad2
        monkeypatch.setattr(spd, "ad2", lambda t, w: brackets.append(w) or real_ad2(t, w))
        y = spd.random_spd(np.random.default_rng(75), 5)
        field = double_bracket_field(np.diag(np.arange(1.0, 6.0)))
        cssi_step(spd.SPD, builtin_tableau("rk4"), field, y, 0.01)
        assert len(calls) == 5
        assert brackets == []


EXPLICIT = [name for name in tableau_names() if builtin_tableau(name).is_explicit]


def _oracle_sensitivity(tableau, field, y, h, terms, y_next):
    """Largest relative change of the oracle's output y_next over relative
    changes of 1e-7 in one entry pair of y (NaN if a changed step overflows)."""
    delta = 1e-7 * np.max(np.abs(y))
    worst = 0.0
    for i, j in zip(*np.triu_indices(len(y))):
        nudge = np.zeros_like(y)
        nudge[i, j] = nudge[j, i] = delta
        moved = ambient_step("spd", tableau, field, y + nudge, h, terms=terms)
        worst = np.maximum(worst, np.max(np.abs(moved - y_next)))  # keeps NaN
    return worst / np.max(np.abs([y, y_next])) / 1e-7


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("method", EXPLICIT)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.floats(0.001, 0.1))
# Gaps relative to the output: a heun2 step (n = 5) that grows y 230x at
# sensitivity 40 and gaps 8e-14; kutta3 steps (n = 3; n = 2; n = 4; n = 5;
# n = 5) of sensitivity 4e4, 2600, 970, 3400 and 470 that gap 2.9e-12,
# 5.6e-13, 1.5e-12, 1.2e-11 and 2.1e-12, and an rk4 step (n = 4) of 1e5
# that gaps 2.1e-10; kutta3 and rk4 steps (n = 2..5) that overflow; an rk4
# step (n = 2) whose last stage midpoint the oracle cannot invert and whose
# output is not positive definite.
@example(seed=131553, h=0.09375)
@example(seed=564793, h=0.09375)
@example(seed=18, h=0.1)
@example(seed=596, h=0.09375)
@example(seed=1244, h=0.09375)
@example(seed=63, h=0.09375)
@example(seed=4143, h=0.08984375)
@example(seed=1437, h=0.0625)
@example(seed=108, h=0.1)
def test_default_step_matches_ambient_step(method, n, seed, h):
    # The series route, truncated to ceil((p - 1)/2) terms for a tableau of
    # order p, against the ambient oracle's series with the same terms,
    # which takes no square root and iterates the commutator bracket.
    rng = np.random.default_rng(seed)
    y = spd.random_spd(rng, n)
    field = double_bracket_field(spd.random_sym(rng, n, scale=3.0))
    t = builtin_tableau(method)
    terms = t.declared_order // 2
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            via_ambient = ambient_step("spd", t, field, y, h, terms=terms)
        except (NumericalFailure, NonPositiveDefinite):
            via_ambient = None
        if via_ambient is None or not np.all(np.isfinite(via_ambient)):
            # The oracle overflows, or meets a stage midpoint that is not
            # positive definite in double precision: the step leaves the SPD
            # matrices that floats hold, so the stepper must raise or return
            # a matrix that `check_point` refuses.
            try:
                via_step, _ = cssi_step(spd.SPD, t, field, y, h, dexpinv_terms=terms)
            except (NumericalFailure, StepTooLarge):
                return
            with pytest.raises(NotOnManifold):
                spd.SPD.check_point(via_step)
            return
    try:
        via_step, _ = cssi_step(spd.SPD, t, field, y, h, dexpinv_terms=terms)
    except StepTooLarge:
        # The stage guard may fire only where the oracle's output is not an
        # SPD matrix either.
        with pytest.raises(NotOnManifold):
            spd.SPD.check_point(via_ambient)
        return
    # Each route's round-off scales with the output when a step grows y, and
    # a step amplifies it by its sensitivity to y: the relative change of its
    # output per relative change of y, taken on the oracle route. Among
    # 48 000 steps at five h from 0.05 to 0.1 (seeds 0..299, n <= 8), the
    # gaps past 1e-12 of the output are at most 2e-15 of it times that
    # sensitivity, which reaches 1e5; the largest known, 4.5e-15, is the
    # kutta3 example of sensitivity 470.
    scale = np.max(np.abs([y, via_step]))
    gap = np.max(np.abs(via_step - via_ambient))
    if gap > 1e-12 * scale:
        sensitivity = _oracle_sensitivity(t, field, y, h, terms, via_ambient)
        assert gap <= 1e-12 * scale * max(1.0, sensitivity / 100)


# sha256 of the trajectory bytes of double_bracket n = 4 seed 42, h = 0.01 to
# T = 2, taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64. An edit that
# reorders the arithmetic of a step changes them. The default run was
# re-taken when it moved from the order-matched two-term series to the
# closed dExp^{-1}: its largest gap to the two-term trajectory is 5.9e-14
# (the entries reach 2.8).
TRAJECTORY_SHA256 = {
    ("implicit_midpoint", 1): "167897cd2f5089bbbae2111750ce879ddba90fd3b0a04fbb1dcc375b1b9085e3",
    ("rk4", None): "a849ebe8f7bc601fdd43eec05fff69f41be0bed6a8a34d31225d1a567eb9b478",
    ("rk4", 2): "1224d62411671a06e0a32240c22dbb3a6e6630495336d235c5a44eaa45cd90de",
}


@pytest.mark.parametrize("method, terms", sorted(TRAJECTORY_SHA256, key=str))
def test_trajectory_bits_are_pinned(method, terms):
    problem = build_problem("spd", "double_bracket", dim=4, T=2.0)
    trajectory, _ = integrate(
        spd.SPD,
        builtin_tableau(method),
        problem.field,
        problem.spec.y0,
        0.01,
        200,
        dexpinv_terms=terms,
    )
    digest = hashlib.sha256(np.stack(trajectory).tobytes()).hexdigest()
    assert digest == TRAJECTORY_SHA256[method, terms]
