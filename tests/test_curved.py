import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from symmflow import hyperbolic, sphere
from symmflow.checks import ambient_step, dexp_forward
from symmflow.core import (
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    dexpinv_series_tail,
)
from symmflow.curved import PHI_SMALL
from symmflow.errors import StepTooLarge, SymmflowError
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
    # side is the exponential of the hat matrix by scipy, a route outside
    # the library; test_linalg.py's `TestMatExp` holds `linalg.mat_exp` to
    # 1e-13 of it on hat matrices of these dimensions.
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
            space.tangent(step_base, theta, data, v, None, 1.0)
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
        tangent = space.tangent(step_base, theta, data, transvection @ v, None, 1.0)
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


def _sphere_field(rng, n):
    # y' = A y + (b - (b.y) y): a rotation plus a pull towards b, tangent to S^n.
    a = rng.standard_normal((n + 1, n + 1))
    a = a - a.T
    b = rng.standard_normal(n + 1)
    return lambda y: a @ y + (b - float(b @ y) * y)


@pytest.mark.parametrize("n", range(2, 9))
def test_sphere_step_matches_ambient_step(n):
    rng = np.random.default_rng(100 + n)
    field = _sphere_field(rng, n)
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
    got = space.tangent(step_base, theta, data, value, coefficients, 1.0)
    pulled = space.transport(space.exp(step_base, theta, data, 0.5), value)
    want = dexpinv_series_apply(coefficients, lambda w: space.triple(w, theta, theta), pulled)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _tau(space, data, coefficients):
    """dExp^{-1}'s factor less 1 on the part B-normal to theta, for phi > 0."""
    m, phi = data
    if coefficients is not None:
        return dexpinv_series_tail(coefficients, -m)
    return phi / space.s(phi) - 1.0


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    terms=st.one_of(st.none(), st.integers(0, 5)),
    fraction=st.one_of(st.just(0.0), st.floats(0.0, PHI_SMALL / 30.0), st.floats(0.0, 1.0)),
    base_distance=st.floats(0.0, 3.0),
    theta_tilt=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
    value_tilt=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    h=st.floats(1e-3, 1.0),
)
@example(seed=5, n=2, terms=0, fraction=2.0 / 30.0, base_distance=3.0, theta_tilt=0.0,
         value_tilt=0.0, h=1.0)
@example(seed=0, n=1, terms=None, fraction=1.0, base_distance=0.0, theta_tilt=0.0,
         value_tilt=0.0, h=1.0)
def test_tangent_matches_composed_route(
    name, seed, n, terms, fraction, base_distance, theta_tilt, value_tilt, h
):
    # `tangent` is one linear map of the raw field value; the reference is
    # the composition it replaces, h dExp^{-1}(transport(Exp(theta/2), v)).
    # theta and v leave the tangent space along the base point y (tangents
    # and y span R^{n+1}); phi runs from 0 through the small-angle series to
    # the space's cap.
    space, module, draw_point, cap = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    # The tilt lengthens theta on the sphere, so its tangent part is drawn
    # shorter by that factor; on the hyperboloid it shortens theta.
    stretch = math.sqrt(1.0 + theta_tilt**2) if space.kappa > 0.0 else 1.0
    size = fraction * cap / stretch
    theta = module.random_tangent(rng, base, scale=size) + (theta_tilt * size) * base
    value = module.random_tangent(rng, base) + value_tilt * base
    coefficients = None if terms is None else dexpinv_coefficients(terms)

    step_base = space.base(base)
    phi, data = space.stage(theta)
    try:
        pulled = space.transport(space.exp(step_base, theta, data, 0.5), value)
        want = h * space.dexpinv(theta, data, pulled, coefficients)
    except SymmflowError as err:
        with pytest.raises(type(err)):
            space.tangent(step_base, theta, data, value, coefficients, h)
        return
    got = space.tangent(step_base, theta, data, value, coefficients, h)
    # In units of the output's scale: |want|, or the stretched part
    # h (1 + tau) v when it is larger, as it is near the sphere's conjugate
    # point, where the part along theta is the difference of two such terms.
    stretched = h * abs(1.0 + _tau(space, data, coefficients)) if phi else h
    scale = max(np.max(np.abs(want)), stretched * np.max(np.abs(value)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _composed_exactly(mp, kappa, y, theta, v, h, coefficients, m=None):
    """h dExp^{-1}(transport(Exp(theta/2), v)) in mpmath, from the square m or B(theta, theta).

    Returns the output and (m, s, w, tau): the square, the midpoint, the
    transported value and dExp^{-1}'s factor less 1 on the part B-normal to
    theta (at phi = 0: m, y, v and 0).
    """
    signs = [kappa] * (len(y) - 1) + [1]
    form = lambda a, b: mp.fsum(c * x * z for c, x, z in zip(signs, a, b))
    if m is None:
        m = form(theta, theta)
    if not kappa * m > 0:
        beta = form(y, v)
        return [h * (vi - 2 * beta * yi) for vi, yi in zip(v, y)], (m, y, v, mp.mpf(0))
    phi = mp.sqrt(kappa * m)
    s_of, c_of = (mp.sin, mp.cos) if kappa > 0 else (mp.sinh, mp.cosh)
    a, c = s_of(phi / 2) / phi, c_of(phi / 2)
    mid = [a * ti + c * yi for ti, yi in zip(theta, y)]
    beta = form(mid, v)
    w = [vi - 2 * beta * si for vi, si in zip(v, mid)]
    if coefficients is None:
        tau = phi / s_of(phi) - 1
    else:
        tau = mp.fsum(mp.mpf(cn) * (-m) ** (k + 1) for k, cn in enumerate(coefficients))
    tw = form(theta, w)
    return [h * ((1 + tau) * wi - tau * tw / m * ti) for wi, ti in zip(w, theta)], (m, mid, w, tau)


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    terms=st.one_of(st.none(), st.integers(0, 5)),
    fraction=st.one_of(st.just(0.0), st.floats(0.0, PHI_SMALL / 30.0), st.floats(0.0, 1.0)),
    base_distance=st.floats(0.0, 3.0),
    h=st.floats(1e-3, 1.0),
)
@example(seed=5, n=2, terms=0, fraction=2.0 / 30.0, base_distance=3.0, h=1.0)
# theta of size 2e-162, whose Minkowski square underflows to +5e-324; the
# spacelike guard took that for a timelike theta.
@example(seed=0, n=28, terms=None, fraction=9.417982284161555e-164, base_distance=1.5, h=1.0)
def test_tangent_matches_50_digit_reference(name, seed, n, terms, fraction, base_distance, h):
    # `tangent` against the exact map of its float inputs, taken in 50
    # digits. The bound is the map's condition in units of (n + 1) ulps, the
    # worst-case relative round-off of an inner product of n + 1 terms:
    #   - the reflection at s: B(s, v) and s itself round to ulp |s| |v| and
    #     ulp |s|, which the reflection carries as ulp |s|^2 |v|, times
    #     dExp^{-1}'s factor 1 + tau (formed from tau, which rounds to
    #     ulp |tau|);
    #   - the part along theta: B(theta, w) rounds to ulp |theta| |w|,
    #     scaled by tau / m and carried by theta;
    #   - the square m = B(theta, theta), which rounds to ulp |theta|^2 and
    #     from which phi, s and tau derive: that times |d output / dm|.
    # Norms are Euclidean; on the hyperboloid at distance r they grow like
    # e^r while the Minkowski products cancel, which the bound carries.
    mpmath = pytest.importorskip("mpmath")
    space, module, draw_point, cap = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=fraction * cap)
    value = module.random_tangent(rng, base)
    coefficients = None if terms is None else dexpinv_coefficients(terms)
    phi, data = space.stage(theta)
    if phi > space.exp_limit:
        return
    got = space.tangent(space.base(base), theta, data, value, coefficients, h)

    with mpmath.workdps(50):
        y, t, v = ([mpmath.mpf(float(x)) for x in vec] for vec in (base, theta, value))
        args = (mpmath, space.kappa, y, t, v, mpmath.mpf(h), coefficients)
        want, (m, mid, w, tau) = _composed_exactly(*args)
        norm = lambda x: mpmath.sqrt(mpmath.fsum(xi * xi for xi in x))
        bound = h * (abs(1 + tau) + abs(tau)) * norm(mid) ** 2 * norm(v)
        if m:
            bound += h * abs(tau) * norm(t) ** 2 * norm(w) / abs(m)
            dm = m * mpmath.mpf(10) ** -25
            moved, _ = _composed_exactly(*args, m=m + dm)
            bound += norm([(a - b) / dm for a, b in zip(moved, want)]) * norm(t) ** 2
        gap = max(abs(mpmath.mpf(float(g)) - x) for g, x in zip(got, want))
        assert gap <= (n + 1) * np.finfo(float).eps * bound


def _hyperboloid_field(rng, n):
    # y' = G y for G in so(n, 1): a skew block of Frobenius norm 1 and a
    # boost column of norm 1/2, as `lorentz_linear` builds them. Larger
    # generators put the stages where the oracle's 10-term series has not
    # converged (at phi = 2 it is off by 1e-6 of y.y).
    g = np.zeros((n + 1, n + 1))
    skew = rng.standard_normal((n, n))
    skew = skew - skew.T
    norm = np.linalg.norm(skew)
    g[:n, :n] = skew / norm if norm else skew
    boost = rng.standard_normal(n)
    g[:n, n] = g[n, :n] = 0.5 * boost / np.linalg.norm(boost)
    return lambda y: g @ y


FIELDS = {"sphere": _sphere_field, "hyperboloid": _hyperboloid_field}
CHECK_NAMES = {"sphere": "sphere", "hyperboloid": "hyperbolic"}


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    h=st.floats(0.001, 0.1),
    method=st.sampled_from(["euler", "heun2", "kutta3", "rk4"]),
    base_distance=st.floats(0.0, 2.0),
)
def test_step_matches_ambient_step_property(name, seed, n, h, method, base_distance):
    # The stepper against `checks.ambient_step`, which builds the same step
    # from hat-matrix exponentials and the 10-term series over commutators.
    # Gaps are measured against y.y, which grows like e^(2r) on the
    # hyperboloid and is 1 on the sphere.
    space, _, draw_point, _ = SPACES[name]
    rng = np.random.default_rng(seed)
    field = FIELDS[name](rng, n)
    y = draw_point(rng, n, base_distance)
    t = builtin_tableau(method)
    via_step, _ = cssi_step(space, t, field, y, h)
    via_ambient = ambient_step(CHECK_NAMES[name], t, field, y, h)
    assert np.max(np.abs(via_step - via_ambient)) <= 1e-13 * space.scale(y)


def test_sphere_step_memory_is_linear():
    # One rk4 step at ambient size 10^6 under a block-rotation field: the
    # stepper holds a few vectors at once and builds no (n+1)^2 object.
    size = 10**6
    rng = np.random.default_rng(0)
    y = rng.standard_normal(size)
    y /= np.linalg.norm(y)
    omega = rng.uniform(-1.0, 1.0, size // 2)

    def field(p):
        out = np.empty_like(p)
        out[0::2] = -omega * p[1::2]
        out[1::2] = omega * p[0::2]
        return out

    tracemalloc.start()
    try:
        y_next, _ = cssi_step(sphere.SPHERE, builtin_tableau("rk4"), field, y, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(float(y_next @ y_next) - 1.0) <= 1e-12
    assert peak <= 8 * (8 * size)
