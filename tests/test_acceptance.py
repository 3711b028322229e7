"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; a failed assertion marks the criterion red.
"""

import time

import numpy as np
import pytest

from symmflow import sphere
from symmflow.checks import ambient_step, lts_suite, oracle_suite
from symmflow.core import cssi_step
from symmflow.errors import StepTooLarge
from symmflow.harness import converge, run_problem
from symmflow.problems import build_problem
from symmflow.tableau import builtin_tableau

H_GRID = [0.1, 0.05, 0.025, 0.0125]


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_order_reproduction():
    problem = build_problem("sphere", "rigid_body", T=1.0)
    started = time.perf_counter()
    report = converge(problem, "rk4", H_GRID, dexpinv_terms=1)
    elapsed = time.perf_counter() - started
    assert 3.8 <= report.fitted_order <= 4.2
    assert elapsed < 1.0
    _report(
        1,
        f"rk4 with 1-term correction fits order {report.fitted_order:.3f} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_2_no_correction_order_drop():
    problem = build_problem("sphere", "rigid_body", T=1.0)
    rk4_report = converge(problem, "rk4", H_GRID, dexpinv_terms=0)
    assert rk4_report.fitted_order <= 3.3
    kutta3_report = converge(problem, "kutta3", H_GRID, dexpinv_terms=0)
    assert 2.7 <= kutta3_report.fitted_order <= 3.3
    _report(
        2,
        f"without correction rk4 drops to {rk4_report.fitted_order:.3f}, "
        f"kutta3 keeps {kutta3_report.fitted_order:.3f}",
    )


def test_criterion_3_structural_preservation():
    started = time.perf_counter()

    problem = build_problem("sphere", "rigid_body", T=100.0)
    _, records, _ = run_problem(problem, "rk4", 0.01)
    sphere_residual = max(r.residual for r in records)
    assert len(records) == 10_000
    assert sphere_residual <= 1e-12

    problem = build_problem("hyperbolic", "lorentz_linear", T=100.0)
    _, records, _ = run_problem(problem, "rk4", 0.01)
    hyper_residual = max(r.residual for r in records)
    assert len(records) == 10_000
    assert hyper_residual <= 1e-10

    problem = build_problem("spd", "double_bracket", T=10.0)
    trajectory, records, _ = run_problem(problem, "rk4", 0.01)
    spd_residual = max(r.residual for r in records)
    assert len(records) == 1_000
    assert spd_residual <= 1e-12
    assert min(np.linalg.eigvalsh(p).min() for p in trajectory[::20]) > 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(
        3,
        f"residuals sphere {sphere_residual:.1e}, hyperboloid {hyper_residual:.1e}, "
        f"spd {spd_residual:.1e} in {elapsed:.2f}s",
    )


def test_criterion_4_oracle_equivalence():
    results = [r for r in oracle_suite(seed=4, samples=100)]
    failing = [r for r in results if not r.passed]
    assert not failing, failing
    worst = max(r.worst for r in results)
    _report(4, f"{len(results)} oracle comparisons pass, worst residual {worst:.1e}")


def test_criterion_5_lts_axioms():
    results = lts_suite(seed=5)
    failing = [r for r in results if not r.passed]
    assert not failing, failing
    worst = max(r.worst for r in results)
    _report(
        5, f"triple-system axioms hold for all geometries, worst {worst:.1e}"
    )


def test_criterion_6_exact_solution_convergence():
    ratios = []
    for space, name in (("sphere", "rotation"), ("hyperbolic", "lorentz_linear")):
        problem = build_problem(space, name, T=1.0)
        report = converge(problem, "rk4", [0.1, 0.05])
        ratios.append(2.0 ** report.pair_orders[0])
    assert all(13.0 <= ratio <= 19.0 for ratio in ratios)
    _report(
        6,
        "halving h shrinks the error against the matrix-exponential "
        f"references by {ratios[0]:.1f}x (sphere) and {ratios[1]:.1f}x "
        "(hyperboloid)",
    )


def test_criterion_7_isospectral_drift():
    problem = build_problem("spd", "double_bracket", T=1.0)
    trajectory, _, _ = run_problem(problem, "rk4", 0.01)
    drift = float(
        np.max(np.abs(np.linalg.eigvalsh(trajectory[-1]) - np.linalg.eigvalsh(trajectory[0])))
    )
    assert drift <= 1e-7
    _report(7, f"double-bracket eigenvalue drift {drift:.2e} over 100 steps")


def test_criterion_8_stepper_ambient_agreement():
    tableau = builtin_tableau("rk4")
    inv_inertia = np.array([1.0, 0.5, 1.0 / 3.0])
    field = lambda y: np.cross(y, inv_inertia * y)
    y = np.array([0.6, 0.0, 0.8])
    worst = 0.0
    for _ in range(100):
        via_step, _ = cssi_step(sphere.SPHERE, tableau, field, y, 0.05)
        via_ambient = ambient_step("sphere", tableau, field, y, 0.05)
        worst = max(worst, float(np.max(np.abs(via_step - via_ambient))))
        y = via_step
    assert worst <= 1e-13
    _report(8, f"stepper and ambient matrix-exponential steps agree to {worst:.1e} per step")


def test_criterion_9_step_guard():
    tableau = builtin_tableau("rk4")
    inv_inertia = np.array([1.0, 0.5, 1.0 / 3.0])
    field = lambda y: np.cross(y, inv_inertia * y)
    y0 = np.array([0.6, 0.0, 0.8])
    for _ in range(3):
        with pytest.raises(StepTooLarge):
            cssi_step(sphere.SPHERE, tableau, field, y0, 100.0)
    _report(9, "oversized stages raise StepTooLarge deterministically")
