"""Output checks for the benchmark's workloads.

Each check compares a user call's result with a computation made apart from
symmflow (scipy's DOP853 or `expm`, LAPACK's `eigvalsh`, plain `float()`
parsing), or with a property the method must have. A check returns the list
of what failed; an empty list means the result passed. scipy is imported
here only, after the timed part of a run, and symmflow never needs it.

The tolerances sit several times above the worst case measured over many
seeds (see README.md), and far below the error a wrong step would make.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_RESIDUAL = 1e-12
ENERGY_DRIFT = 1e-11
SPHERE_ENDPOINT = 1e-9
MINKOWSKI_RESIDUAL = 1e-10
# Relative endpoint error of implicit midpoint (order 2) at h = 0.01; about
# 1e-6 at T = 10 on every seed tried.
HYPERBOLOID_ENDPOINT = 1e-5
SYMMETRY = 1e-14
# rk4 at h = 0.01 is not isospectral: over 20000 n = 10 inputs the worst
# drifts at T = 0.3 were 4.6e-4 (spectrum, relative to the largest
# eigenvalue) and 1.1e-4 (trace, relative).
SPECTRUM_DRIFT = 2e-3
TRACE_DRIFT = 1e-3
# The order between the two finest step sizes, and the least-squares order
# over the whole grid, whose h = 0.1 end is less asymptotic.
PAIR_ORDER_RANGE = (3.8, 4.2)
FITTED_ORDER_RANGE = (3.7, 4.3)
# The study's error at the finest h is measured against its own rk4 reference
# at h/16, whose error is 16^4 times smaller: it must match the error against
# an independent solution to within a few per cent.
STUDY_ERROR_AGREEMENT = 0.05


def _dop853(rhs, y0, T):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[:, -1]


def _exceeds(failures, what, value, bound):
    if not value <= bound:
        failures.append(f"{what} {value:.3e} > {bound:.1e}")


def parse_csv(path):
    """Header and rows of a trajectory CSV, every cell read with float()."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return lines[0], [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def sphere_rigid_body(op, result) -> list[str]:
    trajectory, records, summary = result
    failures = []
    ys = np.array(trajectory)
    inertia = np.asarray(op.problem.spec.params["inertia"], dtype=float)
    y0 = np.asarray(op.problem.spec.y0, dtype=float)
    h = op.kwargs["h"]
    _exceeds(failures, "unit residual", float(np.max(np.abs(np.sum(ys * ys, axis=1) - 1.0))), UNIT_RESIDUAL)
    _exceeds(failures, "step residual", max(r.residual for r in records), UNIT_RESIDUAL)
    energy = 0.5 * np.sum(ys * ys / inertia, axis=1)
    _exceeds(failures, "energy drift", float(np.max(np.abs(energy - energy[0]))), ENERGY_DRIFT)

    reference = _dop853(lambda t, m: np.cross(m, m / inertia), y0, summary["T_effective"])
    _exceeds(failures, "endpoint vs DOP853", float(np.linalg.norm(ys[-1] - reference)), SPHERE_ENDPOINT)

    header, rows = parse_csv(op.kwargs["out"])
    if header != "t,y0,y1,y2":
        failures.append(f"CSV header {header!r}")
    if len(rows) != len(ys):
        failures.append(f"CSV has {len(rows)} rows for {len(ys)} points")
    elif not (
        all(row[0] == i * h for i, row in enumerate(rows))
        and np.array_equal(np.array([row[1:] for row in rows]), ys)
    ):
        failures.append("CSV values differ from the trajectory")
    return failures


def _minkowski_rows(ys):
    return ys[:, -1] ** 2 - np.sum(ys[:, :-1] ** 2, axis=1)


def hyperboloid_linear(op, result) -> list[str]:
    from scipy.linalg import expm

    trajectory, records, summary = result
    failures = []
    ys = np.array(trajectory)
    _exceeds(failures, "Minkowski residual", float(np.max(np.abs(_minkowski_rows(ys) - 1.0))), MINKOWSKI_RESIDUAL)
    if not np.all(ys[:, -1] > 0.0):
        failures.append("time component left the upper sheet")
    # The field is linear: its values on the basis vectors are the columns of A.
    basis = np.eye(ys.shape[1])
    generator = np.column_stack([op.problem.field(e) for e in basis])
    reference = expm(summary["T_effective"] * generator) @ op.problem.spec.y0
    error = float(np.linalg.norm(ys[-1] - reference) / np.linalg.norm(reference))
    _exceeds(failures, "relative endpoint error vs expm", error, HYPERBOLOID_ENDPOINT)
    return failures


def spd_isospectral(op, result) -> list[str]:
    trajectory, records, summary = result
    failures = []
    ys = np.array(trajectory)
    scale = float(np.max(np.abs(ys)))
    _exceeds(failures, "symmetry defect", float(np.max(np.abs(ys - ys.transpose(0, 2, 1)))), SYMMETRY * scale)
    spectra = np.linalg.eigvalsh(ys)
    if not np.all(spectra[:, 0] > 0.0):
        failures.append(f"smallest eigenvalue {float(np.min(spectra[:, 0])):.3e} <= 0")
    _exceeds(failures, "spectrum drift", float(np.max(np.abs(spectra - spectra[0]))), SPECTRUM_DRIFT * float(spectra[0, -1]))
    traces = np.trace(ys, axis1=1, axis2=2)
    _exceeds(failures, "trace drift", float(np.max(np.abs(traces - traces[0]))), TRACE_DRIFT * abs(float(traces[0])))
    return failures


def converge_double_bracket(op, report) -> list[str]:
    from symmflow.harness import run_problem

    failures = []
    for what, order, (lo, hi) in (
        ("finest pair order", report.pair_orders[-1], PAIR_ORDER_RANGE),
        ("fitted order", report.fitted_order, FITTED_ORDER_RANGE),
    ):
        if not lo <= order <= hi:
            failures.append(f"{what} {order:.3f} outside [{lo}, {hi}]")
    hs = [h for h, _ in report.entries]
    if hs != sorted(op.kwargs["h_list"], reverse=True):
        failures.append(f"study step sizes {hs}")
    h_min, study_error = report.entries[-1]

    # The finest run again, through run_problem, against Y' = [Y, [Y, N]].
    spec = op.problem.spec
    trajectory, _, _ = run_problem(op.problem, op.kwargs["method"], h_min)
    n = spec.y0.shape[0]
    target = np.diag(np.arange(1.0, n + 1.0))

    def rhs(t, flat):
        y = flat.reshape(n, n)
        inner = y @ target - target @ y
        return (y @ inner - inner @ y).ravel()

    reference = _dop853(rhs, spec.y0.ravel(), spec.T).reshape(n, n)
    error = float(np.linalg.norm(trajectory[-1] - reference))
    if not (math.isfinite(error) and abs(error / study_error - 1.0) <= STUDY_ERROR_AGREEMENT):
        failures.append(
            f"finest-h error vs DOP853 {error:.3e} disagrees with the study's {study_error:.3e}"
        )
    return failures
