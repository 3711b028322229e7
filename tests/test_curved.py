import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from symmflow import hyperbolic, sphere
from symmflow.checks import ambient_step, dexp_forward
from symmflow.core import (
    cssi_step,
    dexpinv_coefficients,
)
from symmflow.errors import StepTooLarge
from symmflow.tableau import builtin_tableau

# A small phi, below which S(phi)/phi and phi/S(phi) round close to 1; the
# draws reach below it on their own.
PHI_SMALL = 1e-4
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
    # below PHI_SMALL, where S(phi)/phi and phi/S(phi) round close to 1. The ambient
    # side is the exponential of the hat matrix by scipy, a route outside
    # the library; test_linalg.py's `TestMatExp` holds `linalg.mat_exp` to
    # 1e-13 of it on hat matrices of these dimensions.
    space, module, draw_point, cap = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=fraction * cap)
    v, w = (module.random_tangent(rng, base) for _ in range(2))

    step_base = space.base(base)
    if math.sqrt(abs(space.form(theta, theta))) > space.exp_limit:
        with pytest.raises(StepTooLarge):
            space.stage(theta)
        return
    phi, data = space.stage(theta)
    assert phi == math.sqrt(abs(space.form(theta, theta)))

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


def _form(kappa):
    """B in mpmath: kappa times the Euclidean form on all but the last coordinate."""
    def form(a, b):
        signs = [kappa] * (len(a) - 1) + [1]
        return mpmath.fsum(c * x * z for c, x, z in zip(signs, a, b))

    return form


def _mp(vec):
    return [mpmath.mpf(float(x)) for x in vec]


def _norm(x):
    return mpmath.sqrt(mpmath.fsum(xi * xi for xi in x))


def _composed_exactly(kappa, y, theta, v, h, coefficients, m=None):
    """h dExp^{-1}(transport(Exp(theta/2), v)) in mpmath, from the square m or B(theta, theta).

    Returns the output and (m, s, w, tau): the square, the midpoint, the
    transported value and dExp^{-1}'s factor less 1 on the part B-normal to
    theta (at phi = 0: m, y, v and 0).
    """
    form = _form(kappa)
    if m is None:
        m = form(theta, theta)
    if not kappa * m > 0:
        beta = form(y, v)
        return [h * (vi - 2 * beta * yi) for vi, yi in zip(v, y)], (m, y, v, mpmath.mpf(0))
    phi = mpmath.sqrt(kappa * m)
    s_of, c_of = (mpmath.sin, mpmath.cos) if kappa > 0 else (mpmath.sinh, mpmath.cosh)
    a, c = s_of(phi / 2) / phi, c_of(phi / 2)
    mid = [a * ti + c * yi for ti, yi in zip(theta, y)]
    beta = form(mid, v)
    w = [vi - 2 * beta * si for vi, si in zip(v, mid)]
    if coefficients is None:
        tau = phi / s_of(phi) - 1
    else:
        tau = mpmath.fsum(mpmath.mpf(cn) * (-m) ** (k + 1) for k, cn in enumerate(coefficients))
    tw = form(theta, w)
    return [h * ((1 + tau) * wi - tau * tw / m * ti) for wi, ti in zip(w, theta)], (m, mid, w, tau)


def _exactly(space, base, theta, value, h, coefficients):
    """The map `tangent` rounds, in 50 digits at its float inputs, and its round-off bound.

    The bound is the map's condition in units of (n + 1) ulps, the
    worst-case relative round-off of an inner product of n + 1 terms. With
    s the midpoint, beta = B(s, v) and w = v - 2 beta s the transported
    value, the output is h [(1 + tau) w - tau B(theta, w)/m theta], and
      - the reflection at s: B(s, v) and s itself round to ulp |s| |v| and
        ulp |s|, which the reflection carries as ulp |s|^2 |v|, and the
        vector 2 beta s rounds to ulp 2 |beta| |s|; dExp^{-1} carries both
        by at most |1 + tau| + |tau|. For a v with a part along y, beta
        takes c B(y, v) and grows up to |s| |v|;
      - a theta with a part along y: B(theta, s) = a m + c B(theta, y),
        with a = S(phi/2)/phi and c = C(phi/2), so dExp^{-1}'s part along
        theta carries the reflection's round-off along s by
        tau B(theta, s)/m theta, whose term in a is in the line above and
        whose term in c is h |tau| |c B(theta, y)| |theta| |s| |v| / |m|;
      - B(theta, w) rounds to ulp |theta| |w|, scaled by tau / m and
        carried by theta;
      - tau rounds to ulp |tau| as a series, and to ulp |1 + tau| in
        closed form, phi/S(phi) - 1 being a difference with 1; it moves the
        output by that times h (w - B(theta, w)/m theta). On the
        hyperboloid theta's part along y shrinks m against |theta|^2,
        which lengthens that projection;
      - the square m = B(theta, theta), which rounds to ulp |theta|^2 and
        from which phi, s and tau derive: that times |d output / dm|.
    Norms are Euclidean; on the hyperboloid at distance r they grow like
    e^r while the Minkowski products cancel, which the bound carries.
    """
    kappa = space.kappa
    with mpmath.workdps(50):
        y, t, v = _mp(base), _mp(theta), _mp(value)
        args = (kappa, y, t, v, mpmath.mpf(h), coefficients)
        want, (m, s, w, tau) = _composed_exactly(*args)
        form = _form(kappa)
        bound = h * (abs(1 + tau) + abs(tau)) * _norm(s) * (
            _norm(s) * _norm(v) + 2 * abs(form(s, v))
        )
        if kappa * m > 0:
            c = (mpmath.cos if kappa > 0 else mpmath.cosh)(mpmath.sqrt(kappa * m) / 2)
            tw = form(t, w)
            bound += h * abs(tau) * abs(c * form(t, y)) * _norm(t) * _norm(s) * _norm(v) / abs(m)
            bound += h * abs(tau) * _norm(t) ** 2 * _norm(w) / abs(m)
            projected = _norm([wi - tw / m * ti for wi, ti in zip(w, t)])
            bound += h * max(abs(1 + tau), abs(tau)) * projected
        if m:
            dm = m * mpmath.mpf(10) ** -25
            moved, _ = _composed_exactly(*args, m=m + dm)
            bound += _norm([(a - b) / dm for a, b in zip(moved, want)]) * _norm(t) ** 2
        return want, (len(base) * np.finfo(float).eps) * bound


def _gap(got, want):
    with mpmath.workdps(50):
        return max(abs(mpmath.mpf(float(g)) - x) for g, x in zip(got, want))


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    terms=st.integers(0, 5),
    phi=st.floats(1e-6, 2.0),
    base_distance=st.floats(0.0, 3.0),
)
# On the hyperboloid `tangent` is 1.4e-13 of the output from a float
# reference that shares the composed route's transport, which a fixed 1e-13
# refused; against 50 digits it is 0.05 of the bound.
@example(seed=5, n=2, terms=0, phi=2.0, base_distance=3.0)
def test_forced_series_matches_iterated_double_bracket(name, seed, n, terms, phi, base_distance):
    # With forced terms the space sums the series as one scalar on the part
    # B-normal to theta; the reference applies [., theta, theta] to the
    # transported value term by term in 50 digits, and must equal the
    # scalar form there. `tangent` is held to it within its round-off bound.
    space, module, draw_point, _ = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=phi)
    value = module.random_tangent(rng, base)
    coefficients = dexpinv_coefficients(terms)
    got = space.tangent(space.base(base), theta, space.stage(theta)[1], value, coefficients, 1.0)
    want, bound = _exactly(space, base, theta, value, 1.0, coefficients)

    form = _form(space.kappa)
    with mpmath.workdps(50):
        y, t, v = _mp(base), _mp(theta), _mp(value)
        _, (m, _, power, _) = _composed_exactly(space.kappa, y, t, v, 1, None)
        series = list(power)
        for cn in coefficients:
            # [x, theta, theta] = B(x, theta) theta - B(theta, theta) x.
            power = [form(power, t) * ti - m * xi for xi, ti in zip(power, t)]
            series = [a + mpmath.mpf(cn) * b for a, b in zip(series, power)]
        assert max(abs(a - b) for a, b in zip(series, want)) <= mpmath.mpf(10) ** -40 * _norm(want)
    assert _gap(got, series) <= bound


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
# On the hyperboloid theta's rapidity rounds to just past the cap of 30.
@example(seed=0, n=2, terms=None, fraction=1.0, base_distance=1.0, theta_tilt=0.0,
         value_tilt=0.0, h=1.0)
# phi = 21.2 with a part along y: on the hyperboloid the two routes were
# 1.01e-13 of the output apart, which a fixed 1e-13 refused. `tangent` is
# 1.9e-13 of the output from the exact value, 0.008 of the bound.
@example(seed=0, n=1, terms=None, fraction=1.0, base_distance=0.0, theta_tilt=0.70703125,
         value_tilt=0.0, h=1.0)
# Far out with a part along y: on the hyperboloid both routes are about
# 1e-9 of the output from the exact value, 0.005 of the bound.
@example(seed=4012614134, n=14, terms=None, fraction=0.840, base_distance=2.59,
         theta_tilt=0.7071, value_tilt=0.0, h=1.0)
# Each exceeded the bound without one of its terms: the rounding of tau
# (hyperboloid), and of 2 beta s for a v along y (sphere).
@example(seed=2323708269, n=1, terms=None, fraction=0.03819949065938477, base_distance=0.0,
         theta_tilt=-0.9, value_tilt=0.0, h=1.0)
@example(seed=561504460, n=2, terms=3, fraction=0.09334147535697312,
         base_distance=1.1302290122631424, theta_tilt=-0.8144004724420001,
         value_tilt=1.9779777932612856, h=0.35432696749375525)
def test_tangent_matches_composed_route(
    name, seed, n, terms, fraction, base_distance, theta_tilt, value_tilt, h
):
    # `tangent` is one linear map of the raw field value; the composed route
    # is h dExp^{-1}(transport(Exp(theta/2), v)). Both are held to the 50-digit
    # value of that map within its round-off bound. theta and v leave the
    # tangent space along the base point y (tangents and y span R^{n+1});
    # phi runs from 0 through PHI_SMALL to the space's cap.
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
    try:
        _, data = space.stage(theta)
    except StepTooLarge:
        # `stage` refuses theta once, for the composed route and `tangent` alike.
        assert math.sqrt(abs(space.form(theta, theta))) > space.exp_limit
        return
    half = 0.5 * theta
    pulled = space.transport(space.exp(step_base, half, space.stage(half)[1]), value)
    composed = h * space.dexpinv(theta, data, pulled, coefficients)
    got = space.tangent(step_base, theta, data, value, coefficients, h)
    want, bound = _exactly(space, base, theta, value, h, coefficients)
    assert _gap(got, want) <= bound
    assert _gap(composed, want) <= bound


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
# On the hyperboloid theta's rapidity rounds to just past the cap of 30.
@example(seed=0, n=2, terms=None, fraction=1.0, base_distance=1.0, h=1.0)
def test_tangent_matches_50_digit_reference(name, seed, n, terms, fraction, base_distance, h):
    # `tangent` against the exact map of its float inputs, taken in 50
    # digits, within the round-off bound of `_exactly`.
    space, module, draw_point, cap = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=fraction * cap)
    value = module.random_tangent(rng, base)
    coefficients = None if terms is None else dexpinv_coefficients(terms)
    try:
        _, data = space.stage(theta)
    except StepTooLarge:
        return
    got = space.tangent(space.base(base), theta, data, value, coefficients, h)
    want, bound = _exactly(space, base, theta, value, h, coefficients)
    assert _gap(got, want) <= bound


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


def _memory_case(name, rng, size):
    """(y, field) at ambient size `size`: a point and an O(n) field of
    rotation blocks, with one boost plane on the hyperboloid."""
    if name == "sphere":
        y = rng.standard_normal(size)
        y /= np.linalg.norm(y)
        omega = rng.uniform(-1.0, 1.0, size // 2)

        def field(p):
            out = np.empty_like(p)
            out[0::2] = -omega * p[1::2]
            out[1::2] = omega * p[0::2]
            return out

        return y, field
    # Near the origin of the hyperboloid: the time coordinate is last.
    y = np.empty(size)
    y[:-1] = rng.standard_normal(size - 1) * (0.5 / math.sqrt(size - 1))
    y[-1] = math.sqrt(1.0 + float(y[:-1] @ y[:-1]))
    omega = rng.uniform(-1.0, 1.0, (size - 2) // 2)

    def field(p):
        out = np.empty_like(p)
        out[0:-2:2] = -omega * p[1:-1:2]
        out[1:-1:2] = omega * p[0:-2:2]
        out[-2] = 0.5 * p[-1]
        out[-1] = 0.5 * p[-2]
        return out

    return y, field


@pytest.mark.parametrize("name", sorted(SPACES))
def test_sphere_step_memory_is_linear(name):
    # One rk4 step at ambient size 10^6 under an O(n) field: the stepper
    # holds a few vectors at once and builds no (n+1)^2 object.
    size = 10**6
    space = SPACES[name][0]
    y, field = _memory_case(name, np.random.default_rng(0), size)

    tracemalloc.start()
    try:
        y_next, _ = cssi_step(space, builtin_tableau("rk4"), field, y, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.invariant_residual(y_next) <= 1e-12
    assert peak <= 8 * (8 * size)
