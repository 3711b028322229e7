import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from symmflow import hyperbolic, sphere
from symmflow.checks import ambient_step, dexp_forward
from symmflow.core import cssi_step, dexpinv_coefficients, dexpinv_series_apply
from symmflow.curved import PHI_SMALL
from symmflow.errors import StepTooLarge
from symmflow.tableau import builtin_tableau

# Per space: the space, the module of its random draws and hat matrices, a
# random base point at a given distance from the reference point, and the
# cap on phi.
SPACES = {
    "sphere": (
        sphere.SPHERE,
        sphere,
        lambda rng, n, _: sphere.random_point(rng, n),
        sphere.MAX_STAGE_ANGLE,
    ),
    "hyperboloid": (
        hyperbolic.HYPERBOLOID,
        hyperbolic,
        lambda rng, n, r: hyperbolic.random_point(rng, n, scale=r),
        hyperbolic.MAX_STAGE_RAPIDITY,
    ),
}


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    fraction=st.one_of(st.floats(0.0, 1.01), st.floats(0.0, PHI_SMALL / 30.0)),
    base_distance=st.floats(0.0, 3.0),
)
@example(seed=0, n=2, fraction=1.0, base_distance=0.0)
@example(seed=0, n=2, fraction=1.01, base_distance=1.0)
@example(seed=1, n=3, fraction=3e-6, base_distance=0.5)
def test_chart_matches_ambient_routes(name, seed, n, fraction, base_distance):
    # phi runs up to just past the space's cap (pi - 1e-6 or rapidity 30) and
    # below PHI_SMALL, where the small-angle series take over. The ambient
    # side is the exponential of the hat matrix, by scipy: `linalg.mat_exp`
    # scales by the largest entry, which leaves Taylor remainders up to 3e-9
    # at these dimensions.
    space, module, draw_point, cap = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=fraction * cap)
    v, w = (module.random_tangent(rng, base) for _ in range(2))

    step_base = space.base(base)
    phi, data = space.stage(theta)
    assert phi == math.sqrt(abs(space.form(theta, theta)))
    if phi > space.exp_limit:
        with pytest.raises(StepTooLarge):
            space.exp(step_base, theta, data)
        with pytest.raises(StepTooLarge):
            space.tangent(step_base, theta, data, v, None)
        return

    # Round-off grows with the coordinates (like e^(2 phi) on the
    # hyperboloid), so gaps are measured against y.y, as residuals are.
    transvection = expm(module.hat_matrix(base, theta))
    endpoint = space.exp(step_base, theta, data)
    scale = space.scale(endpoint)
    assert np.max(np.abs(endpoint - transvection @ base)) <= 1e-12 * scale
    if phi < space.stage_limit:
        # The stage tangent of v carried to the endpoint by the transvection
        # is dExp^{-1} of v: the forward differential takes it back to v, up
        # to round-off stretched by S(phi)/phi or its inverse.
        tangent = space.tangent(step_base, theta, data, transvection @ v, None)
        ratio = space.s(phi) / phi if phi else 1.0
        bound = 1e-12 * scale * max(1.0, np.max(np.abs(v))) * max(ratio, 1.0 / ratio)
        assert np.max(np.abs(dexp_forward(theta, tangent, space) - v)) <= bound
    else:
        # The stepper stops the stage before it: heun2's second stage is
        # h F(y), which a constant field theta at h = 1 puts at theta.
        with pytest.raises(StepTooLarge):
            cssi_step(space, builtin_tableau("heun2"), lambda p: theta, base, 1.0)
    if phi < 1.0:
        # dExp^{-1} undoes the forward differential, series branch included.
        roundtrip = space.dexpinv(theta, data, dexp_forward(theta, w, space))
        assert np.max(np.abs(roundtrip - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("n", range(2, 9))
def test_sphere_step_matches_ambient_step(n):
    # y' = A y + (b - (b.y) y): a rotation plus a pull towards b, tangent to S^n.
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n + 1, n + 1))
    a = a - a.T
    b = rng.standard_normal(n + 1)
    field = lambda y: a @ y + (b - float(b @ y) * y)
    t = builtin_tableau("rk4")
    y = sphere.random_point(rng, n)
    for _ in range(10):
        via_step, _ = cssi_step(sphere.SPHERE, t, field, y, 0.05)
        via_ambient = ambient_step("sphere", t, field, y, 0.05)
        assert np.max(np.abs(via_step - via_ambient)) <= 1e-13
        y = via_step


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    terms=st.integers(0, 5),
    phi=st.floats(1e-6, 2.0),
    base_distance=st.floats(0.0, 3.0),
)
def test_forced_series_matches_iterated_double_bracket(name, seed, n, terms, phi, base_distance):
    # With forced terms the space sums the series as one scalar on the part
    # B-normal to theta; the reference applies [., theta, theta] term by term.
    space, module, draw_point, _ = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=phi)
    value = module.random_tangent(rng, base)
    coefficients = dexpinv_coefficients(terms)
    step_base, data = space.base(base), space.stage(theta)[1]
    got = space.tangent(step_base, theta, data, value, coefficients)
    pulled = space.transport(space.exp(step_base, theta, data, 0.5), value)
    want = dexpinv_series_apply(coefficients, lambda w: space.triple(w, theta, theta), pulled)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
