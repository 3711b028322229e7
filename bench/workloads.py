"""The benchmark's workloads: inputs made from the seed, and the user calls.

A workload is a fixed list of operations (one *round*). Each operation is one
user call, `run_problem` or `converge`, on a problem built from the seed with
`build_problem`. Every run repeats whole rounds, so the share of failed
operations is the same in every run whatever its length.

Why each workload exists, and which layers it is meant to move, is written
down in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from symmflow.harness import converge, run_problem
from symmflow.problems import build_problem
from symmflow.tableau import builtin_tableau

import checks

SPHERE_T = 20.0
HYPERBOLOID_DIM = 16
HYPERBOLOID_T = 10.0
HYPERBOLOID_PROBLEMS = 4
# The implicit solver's absolute stopping test fails on this run at step 1457
# (FixedPointDivergence); it is attempted once per round and counted as failed.
FAULT_SEED = 42
FAULT_T = 20.0
SPD_DIM = 10
SPD_T = 0.3
SPD_PROBLEMS = 4
CONVERGE_DIM = 3
CONVERGE_T = 1.0
CONVERGE_H = (0.1, 0.05, 0.025, 0.0125)
# h_min / 16, the self-reference `converge` runs when there is no closed form.
CONVERGE_REFERENCE_STEPS = 16 * round(CONVERGE_T / CONVERGE_H[-1])
# Band of |F(y0)| (Frobenius) inside which the h-grid above is in rk4's
# asymptotic regime. Outside it the measured order leaves [3.8, 4.2] for
# reasons of the input alone: a fast initial transient keeps the grid
# pre-asymptotic (orders up to 5.2), a nearly scalar y0 drives the finest
# error to round-off (orders down to 3.0). Over 464 seeds, those inside the
# band gave finest pair orders 3.93-4.10 and fitted orders 3.92-4.19.
CONVERGE_FIELD_BAND = (0.5, 1.5)


@dataclass
class Operation:
    """One user call of a round, and how to check what it returns."""

    label: str
    problem: object
    call: Callable  # run_problem or converge
    kwargs: dict
    steps: tuple  # step counts of the integrations the call makes, in order
    check: Callable  # (operation, result) -> list of failure messages
    measured: bool = True  # False: kept out of steps_per_s and run_s

    def run(self, invoke=None):
        """Make the call; `invoke(name, fn, *args, **kwargs)` may wrap it."""
        if invoke is None:
            return self.call(self.problem, **self.kwargs)
        return invoke(f"harness.{self.call.__name__}", self.call, self.problem, **self.kwargs)

    def integration_s(self, result, wall_s: float) -> float:
        """Integration time of one call: the harness's own figure when it has one.

        `converge` reports none; its time outside the integrations (sorting
        the grid, norms and a 4-point fit) is under 0.1% of the call.
        """
        if self.call is run_problem:
            return result[2]["runtime_seconds"]
        return wall_s

    def fingerprint(self, result) -> bytes:
        """Bytes that two calls on the same input must reproduce exactly."""
        if self.call is run_problem:
            return np.asarray(result[0]).tobytes()
        return repr((result.entries, result.pair_orders, result.fitted_order)).encode()


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _steps(T: float, h: float) -> tuple:
    return (round(T / h),)


def build_sphere_rk4(seed: int, workdir: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal(3)
    y0 /= np.linalg.norm(y0)
    inertia = np.sort(rng.uniform(1.0, 3.0, size=3))
    problem = build_problem(
        "sphere", "rigid_body", T=SPHERE_T, y0=tuple(y0), inertia=tuple(inertia)
    )
    h = 0.01
    return [
        Operation(
            "rigid_body",
            problem,
            run_problem,
            {"method": "rk4", "h": h, "out": str(workdir / f"sphere-rk4-{seed}.csv")},
            _steps(SPHERE_T, h),
            checks.sphere_rigid_body,
        )
    ]


def build_hyperboloid_implicit(seed: int, workdir: Path) -> list[Operation]:
    h = 0.01
    ops = []
    for child in _child_seeds(seed, HYPERBOLOID_PROBLEMS):
        problem = build_problem(
            "hyperbolic", "lorentz_linear", dim=HYPERBOLOID_DIM, seed=child, T=HYPERBOLOID_T
        )
        ops.append(
            Operation(
                f"lorentz_linear seed={child}",
                problem,
                run_problem,
                {"method": "implicit_midpoint", "h": h},
                _steps(HYPERBOLOID_T, h),
                checks.hyperboloid_linear,
            )
        )
    fault = build_problem(
        "hyperbolic", "lorentz_linear", dim=HYPERBOLOID_DIM, seed=FAULT_SEED, T=FAULT_T
    )
    ops.append(
        Operation(
            f"lorentz_linear seed={FAULT_SEED} T={FAULT_T:g}",
            fault,
            run_problem,
            {"method": "implicit_midpoint", "h": h},
            _steps(FAULT_T, h),
            checks.hyperboloid_linear,
            measured=False,
        )
    )
    return ops


def build_spd_rk4_n10(seed: int, workdir: Path) -> list[Operation]:
    h = 0.01
    return [
        Operation(
            f"double_bracket n={SPD_DIM} seed={child}",
            build_problem("spd", "double_bracket", dim=SPD_DIM, seed=child, T=SPD_T),
            run_problem,
            {"method": "rk4", "h": h},
            _steps(SPD_T, h),
            checks.spd_isospectral,
        )
        for child in _child_seeds(seed, SPD_PROBLEMS)
    ]


def build_spd_converge_n3(seed: int, workdir: Path) -> list[Operation]:
    lo, hi = CONVERGE_FIELD_BAND
    for child in _child_seeds(seed, 256):
        problem = build_problem(
            "spd", "double_bracket", dim=CONVERGE_DIM, seed=child, T=CONVERGE_T
        )
        if lo <= float(np.linalg.norm(problem.field(problem.spec.y0))) <= hi:
            break
    else:
        raise RuntimeError(f"no double_bracket input in the field band for seed {seed}")
    steps = (CONVERGE_REFERENCE_STEPS,) + tuple(round(CONVERGE_T / h) for h in CONVERGE_H)
    return [
        Operation(
            f"converge double_bracket n={CONVERGE_DIM} seed={child}",
            problem,
            converge,
            {"method": "rk4", "h_list": CONVERGE_H},
            steps,
            checks.converge_double_bracket,
        )
    ]


# name -> (round builder, tableau the round steps with)
WORKLOADS = {
    "sphere-rk4": (build_sphere_rk4, "rk4"),
    "hyperboloid-implicit": (build_hyperboloid_implicit, "implicit_midpoint"),
    "spd-rk4-n10": (build_spd_rk4_n10, "rk4"),
    "spd-converge-n3": (build_spd_converge_n3, "rk4"),
}


def build(name: str, seed: int, workdir: Path) -> list[Operation]:
    """The workload's round, ready to step: problems built, tableau loaded."""
    builder, tableau = WORKLOADS[name]
    builtin_tableau(tableau)
    return builder(seed, workdir)
