import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symmflow import hyperbolic, sphere
from symmflow.checks import ambient_step, dexp_forward
from symmflow.core import cssi_step, dexpinv_coefficients, dexpinv_series_apply
from symmflow.curved import PHI_SMALL
from symmflow.errors import NonSpacelikeTangent, StepTooLarge
from symmflow.linalg import minkowski
from symmflow.tableau import builtin_tableau

# Per space: the space, the module of its public functions, a random base
# point at a given distance from the reference point, the public midpoint
# Exp(theta/2), the square B(theta, theta), the cap on phi and the forward
# differential of Exp written out with math.sin / math.sinh.
SPACES = {
    "sphere": (
        sphere.SPHERE,
        sphere,
        lambda rng, n, _: sphere.random_point(rng, n),
        lambda base, t: sphere.exp_point(base, 0.5 * t),
        lambda t: float(t @ t),
        sphere.MAX_STAGE_ANGLE,
        lambda t, w: dexp_forward(t, w, lambda u, v: float(u @ v), 1.0, math.sin),
    ),
    "hyperboloid": (
        hyperbolic.HYPERBOLOID,
        hyperbolic,
        lambda rng, n, r: hyperbolic.random_point(rng, n, scale=r),
        hyperbolic.exp_half,
        lambda t: minkowski(t, t),
        hyperbolic.MAX_STAGE_RAPIDITY,
        lambda t, w: dexp_forward(t, w, minkowski, -1.0, math.sinh),
    ),
}


def _outcome(fn, *args):
    """fn(*args), or the type of the guard error it raises."""
    try:
        return fn(*args)
    except (NonSpacelikeTangent, StepTooLarge) as err:
        return type(err)


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return a.tobytes() == b.tobytes()


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
def test_chart_matches_public_functions(name, seed, n, fraction, base_distance):
    # phi runs up to just past the space's cap (pi - 1e-6 or rapidity 30) and
    # below PHI_SMALL, where the small-angle series take over.
    space, module, draw_point, public_half, square, cap, forward = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=fraction * cap)
    value, w = (module.random_tangent(rng, base) for _ in range(2))

    step_base = space.base(base)
    phi, data = space.stage(theta)
    assert phi == math.sqrt(abs(square(theta)))

    assert _same(
        _outcome(space.exp, step_base, theta, data), _outcome(module.exp_point, base, theta)
    )
    # The stage tangent is the public transport back from the midpoint
    # followed by the public dExp^{-1}. The stepper stops a stage at
    # space.stage_limit before it; the public dexpinv raises there.
    tangent = _outcome(space.tangent, step_base, theta, data, value, None)
    public = _outcome(
        lambda: module.dexpinv(theta, module.transport_inv(public_half(base, theta), value))
    )
    if phi < space.stage_limit:
        assert _same(tangent, public)
    else:
        assert public is StepTooLarge
    if phi < 1.0:
        # dExp^{-1} undoes the forward differential, series branch included.
        roundtrip = space.dexpinv(theta, data, forward(theta, w))
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
    space, module, draw_point, public_half, *_ = SPACES[name]
    rng = np.random.default_rng(seed)
    base = draw_point(rng, n, base_distance)
    theta = module.random_tangent(rng, base, scale=phi)
    value = module.random_tangent(rng, base)
    coefficients = dexpinv_coefficients(terms)
    got = space.tangent(space.base(base), theta, space.stage(theta)[1], value, coefficients)
    pulled = module.transport_inv(public_half(base, theta), value)
    want = dexpinv_series_apply(coefficients, lambda w: space.triple(w, theta, theta), pulled)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
