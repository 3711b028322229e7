"""Experiment drivers: single runs, convergence studies, CSV emission.

Trajectory CSV schema: header `t,y0,...,yN` for vector geometries or
`t,m00,m01,...` (row-major) for SPD, one row per accepted point including
the initial one, every value printed with 17 significant digits so a
read-back reproduces the floats exactly.

Convergence CSV schema: header `h,error,pair_order`, one row per step size
(pair_order of the first row is nan), and a footer comment line
`# fitted_order=<value>` with the least-squares slope in log-log.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .core import integrate
from .errors import IoFailure, ReferenceUnavailable
from .problems import _SPACES, Problem
from .tableau import builtin_tableau

_REFERENCE_REFINEMENT = 16


def _steps_for(T: float, h: float, *, exact_division: bool) -> int:
    if not (math.isfinite(h) and h > 0.0 and math.isfinite(T / h)):
        raise ValueError(f"step size h must be finite and > 0, with T / h finite: {h}")
    n = max(1, round(T / h))
    mismatch = abs(n * h - T)
    if mismatch > 1e-9 * max(T, 1.0):
        if exact_division:
            raise ValueError(
                f"step size {h} does not divide the horizon {T} (off by {mismatch:.3e})"
            )
        warnings.warn(
            f"step size {h} does not divide T={T}; integrating to {n * h} instead",
            stacklevel=3,
        )
    return n


def _format(value: float) -> str:
    return f"{value:.16e}"


def _header_for(point: np.ndarray) -> str:
    if point.ndim == 1:
        return "t," + ",".join(f"y{i}" for i in range(point.shape[0]))
    n = point.shape[0]
    return "t," + ",".join(f"m{i}{j}" for i in range(n) for j in range(n))


def emit_csv(trajectory, path, h: float, header: str | None = None) -> None:
    """Write a trajectory (times i*h) in the schema above; full precision."""
    if header is None:
        if not len(trajectory):
            raise ValueError("cannot infer a header from an empty trajectory")
        header = _header_for(np.asarray(trajectory[0]))
    lines = [header]
    for i, point in enumerate(trajectory):
        values = np.asarray(point).ravel()
        lines.append(",".join([_format(i * h)] + [_format(v) for v in values]))
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise IoFailure(f"could not write trajectory to {path}: {err}") from err


def read_csv(path):
    """Read back an emitted trajectory CSV as (times, flat value rows)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as err:
        raise IoFailure(f"could not read {path}: {err}") from err
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in lines[1:]
        if not line.startswith("#")
    ]
    times = np.array([row[0] for row in rows])
    values = np.array([row[1:] for row in rows])
    return times, values


@dataclass
class ConvergenceReport:
    """Endpoint errors over a step-size grid and the fitted order."""

    entries: tuple  # ((h, error), ...) with h strictly decreasing
    pair_orders: tuple
    fitted_order: float

    def __post_init__(self):
        hs = [h for h, _ in self.entries]
        errors = [e for _, e in self.entries]
        if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
            raise ValueError("step sizes must be strictly decreasing")
        if any(e <= 0 for e in errors):
            raise ValueError("endpoint errors must be positive")


def run_problem(
    problem: Problem,
    method: str = "rk4",
    h: float = 0.01,
    *,
    dexpinv_terms=None,
    diagnostics: bool = False,
    out: str | None = None,
):
    """Integrate a built-in problem; returns (trajectory, records, summary).

    Writes the trajectory CSV when `out` is given. The summary collects the
    worst manifold residual, renormalization count, drifts of the problem's
    conserved quantities and, when the problem has a closed-form solution,
    the endpoint error against it.
    """
    tableau = builtin_tableau(method)
    spec = problem.spec
    n_steps = _steps_for(spec.T, h, exact_division=False)
    started = time.perf_counter()
    trajectory, records = integrate(
        _SPACES[problem.space],
        tableau,
        problem.field,
        spec.y0,
        h,
        n_steps,
        dexpinv_terms=dexpinv_terms,
        diagnostics=diagnostics,
    )
    elapsed = time.perf_counter() - started

    summary = {
        "space": spec.space,
        "problem": spec.problem,
        "method": method,
        "h": h,
        "n_steps": n_steps,
        "T_effective": n_steps * h,
        "max_residual": max((r.residual for r in records), default=0.0),
        "renormalizations": sum(r.renormalized for r in records),
        "max_stage_norm": max(
            (max(r.stage_norms) for r in records if r.stage_norms), default=0.0
        ),
        "runtime_seconds": elapsed,
    }
    if diagnostics:
        summary["max_tangency_defect"] = max(
            (r.tangency_defect for r in records), default=0.0
        )
    drifts = {}
    for name, quantity in problem.conserved.items():
        reference = quantity(spec.y0)
        drifts[name] = max(abs(quantity(point) - reference) for point in trajectory)
    summary["conserved_drift"] = drifts
    if problem.exact is not None:
        reference = problem.exact(n_steps * h)
        summary["endpoint_error"] = float(
            np.linalg.norm((trajectory[-1] - reference).ravel())
        )
    if out is not None:
        emit_csv(trajectory, out, h)
        summary["out"] = out
    return trajectory, records, summary


def _reference_endpoint(problem: Problem, T: float, h_min: float):
    if problem.exact is not None:
        return problem.exact(T)
    tableau = builtin_tableau("rk4")
    h_ref = h_min / _REFERENCE_REFINEMENT
    n_steps = _steps_for(T, h_ref, exact_division=True)
    space = _SPACES[problem.space]
    trajectory, _ = integrate(space, tableau, problem.field, problem.spec.y0, h_ref, n_steps)
    return trajectory[-1]


def converge(
    problem: Problem,
    method: str,
    h_list,
    *,
    dexpinv_terms=None,
) -> ConvergenceReport:
    """Endpoint-error convergence study over a decreasing step-size grid.

    The reference is the problem's closed-form solution when it has one,
    otherwise a self-reference run with rk4 at min(h)/16.
    """
    hs = sorted(set(float(h) for h in h_list), reverse=True)
    if len(hs) < 2:
        raise ReferenceUnavailable("need at least two step sizes for a study")
    T = problem.spec.T
    for h in hs:
        _steps_for(T, h, exact_division=True)
    reference = _reference_endpoint(problem, T, hs[-1])

    tableau = builtin_tableau(method)
    space = _SPACES[problem.space]
    entries = []
    for h in hs:
        n_steps = _steps_for(T, h, exact_division=True)
        trajectory, _ = integrate(
            space,
            tableau,
            problem.field,
            problem.spec.y0,
            h,
            n_steps,
            dexpinv_terms=dexpinv_terms,
        )
        error = float(np.linalg.norm((trajectory[-1] - reference).ravel()))
        entries.append((h, error))

    pair_orders = tuple(
        math.log(e1 / e2) / math.log(h1 / h2)
        for (h1, e1), (h2, e2) in zip(entries, entries[1:])
    )
    log_h = np.log([h for h, _ in entries])
    log_e = np.log([e for _, e in entries])
    fitted = float(np.polyfit(log_h, log_e, 1)[0])
    return ConvergenceReport(tuple(entries), pair_orders, fitted)


def emit_report(report: ConvergenceReport, path) -> None:
    """Write a convergence report in the schema above."""
    lines = ["h,error,pair_order"]
    for i, (h, error) in enumerate(report.entries):
        order = "nan" if i == 0 else _format(report.pair_orders[i - 1])
        lines.append(f"{_format(h)},{_format(error)},{order}")
    lines.append(f"# fitted_order={report.fitted_order:.6f}")
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise IoFailure(f"could not write report to {path}: {err}") from err
