import numpy as np
import pytest

from symmflow.errors import UnknownTableau
from symmflow.tableau import (
    ButcherTableau,
    builtin_tableau,
    check_order_conditions,
    tableau_names,
)


def test_rk4_coefficients_and_order_conditions():
    t = builtin_tableau("rk4")
    assert np.allclose(t.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert t.declared_order == 4
    assert all(res <= 1e-15 for _, res in check_order_conditions(t, 4))


def test_euler_is_first_order_only():
    t = builtin_tableau("euler")
    assert t.a.shape == (1, 1) and t.a[0, 0] == 0.0
    assert t.b[0] == 1.0 and t.declared_order == 1
    conditions = dict(check_order_conditions(t, 2))
    assert conditions["sum b c = 1/2"] == 0.5


def test_heun2_order_two_exact():
    t = builtin_tableau("heun2")
    assert all(res == 0.0 for _, res in check_order_conditions(t, 2))


def test_implicit_midpoint():
    t = builtin_tableau("implicit_midpoint")
    assert t.kind == "implicit"
    assert t.declared_order == 2
    assert all(res <= 1e-15 for _, res in check_order_conditions(t, 2))
    # and it is genuinely not third order
    assert dict(check_order_conditions(t, 3))["sum b c^2 = 1/3"] > 1e-2


def test_kutta3_order_three():
    t = builtin_tableau("kutta3")
    assert all(res <= 1e-15 for _, res in check_order_conditions(t, 3))
    assert any(res > 1e-3 for _, res in check_order_conditions(t, 4))


@pytest.mark.parametrize("name", tableau_names())
def test_every_builtin_passes_its_declared_order(name):
    t = builtin_tableau(name)
    assert all(
        res <= 1e-13 for _, res in check_order_conditions(t, min(t.declared_order, 4))
    )
    assert abs(float(t.b.sum()) - 1.0) <= 1e-14


@pytest.mark.parametrize("name", tableau_names())
def test_explicit_tableaus_strictly_lower_triangular(name):
    t = builtin_tableau(name)
    if t.is_explicit:
        r = t.stages
        for i in range(r):
            for j in range(i, r):
                assert t.a[i, j] == 0.0


def test_unknown_name_raises():
    with pytest.raises(UnknownTableau):
        builtin_tableau("rk5")


def test_wrong_declared_order_rejected_at_construction():
    with pytest.raises(ValueError):
        ButcherTableau("bad", np.array([[0.0]]), np.array([1.0]), declared_order=2)


@pytest.mark.parametrize(
    "a, b, order, message",
    [
        ([[0.0, 0.0]], [1.0], 1, "inconsistent tableau shapes"),
        ([[0.0]], [0.5, 0.5], 1, "inconsistent tableau shapes"),
        ([0.0], [1.0], 1, "inconsistent tableau shapes"),
        ([[np.nan]], [1.0], 1, "finite"),
        ([[0.0]], [1.0], 0, "declared_order"),
    ],
)
def test_malformed_tableau_rejected_at_construction(a, b, order, message):
    with pytest.raises(ValueError, match=message):
        ButcherTableau("bad", np.array(a), np.array(b), declared_order=order)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ButcherTableau("bad", np.array([[0.0]]), np.array([0.9]), declared_order=1)


def test_coefficients_are_frozen():
    t = builtin_tableau("rk4")
    with pytest.raises(ValueError):
        t.a[0, 0] = 1.0
