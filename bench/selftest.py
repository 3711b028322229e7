"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed N]

For every workload it makes the real calls once, requires each check to pass
on the real result, then perturbs the result in ways a faulty program could
and requires the check to reject every perturbed copy. Exits 1 if a check
rejects a real result or accepts a perturbed one.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _with_points(result, change):
    """Copy of a run_problem result whose trajectory went through `change`."""
    trajectory, records, summary = result
    points = [np.array(p, copy=True) for p in trajectory]
    change(points)
    return points, copy.deepcopy(records), dict(summary)


def _scale(k, factor):
    def change(points):
        points[k] = points[k] * factor
    return change


def _rotate_end(angle):
    """Move the sphere endpoint along the sphere, keeping |y| = 1."""
    def change(points):
        y = points[-1]
        t = np.cross(y, [0.0, 0.0, 1.0])
        t /= np.linalg.norm(t)
        points[-1] = np.cos(angle) * y + np.sin(angle) * t
    return change


def _boost_end(rapidity):
    """Move the hyperboloid endpoint along the sheet, keeping <y, y> = 1."""
    def change(points):
        y = points[-1]
        # e_0 + y_0 y is Minkowski-orthogonal to y, with <w, w> = -(1 + y_0^2).
        w = y[0] * y
        w[0] += 1.0
        points[-1] = np.cosh(rapidity) * y + np.sinh(rapidity) * w / np.sqrt(1.0 + y[0] ** 2)
    return change


def _skew(k, amount):
    def change(points):
        points[k][0, 1] += amount
    return change


def _shift_end(amount):
    def change(points):
        points[-1] = points[-1] + amount * np.eye(points[-1].shape[0])
    return change


def _sphere_cases(op, result):
    def csv_last_ulp():
        path = op.kwargs["out"]
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = repr(float(np.nextafter(float(cells[-1]), np.inf)))
        lines[-1] = ",".join(cells)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return result

    return [
        ("point off the unit sphere by 1e-9", lambda: _with_points(result, _scale(7, 1 + 1e-9))),
        ("endpoint moved 1e-7 along the sphere", lambda: _with_points(result, _rotate_end(1e-7))),
        ("CSV cell one ulp off", csv_last_ulp),  # last: it rewrites the file
    ]


def _hyperboloid_cases(op, result):
    return [
        ("point off the sheet by 1e-9", lambda: _with_points(result, _scale(5, 1 + 1e-9))),
        ("time component negated", lambda: _with_points(result, _scale(5, -1.0))),
        ("endpoint moved 1e-4 along the sheet", lambda: _with_points(result, _boost_end(1e-4))),
    ]


def _spd_cases(op, result):
    return [
        ("point skewed by 1e-12", lambda: _with_points(result, _skew(3, 1e-12))),
        ("endpoint scaled by 1.01", lambda: _with_points(result, _scale(-1, 1.01))),
        ("endpoint shifted by 0.01 I", lambda: _with_points(result, _shift_end(0.01))),
        ("endpoint with a negative eigenvalue",
         lambda: _with_points(result, _shift_end(-2.0 * float(np.linalg.eigvalsh(result[0][-1])[0])))),
    ]


def _converge_cases(op, report):
    entries = list(report.entries)
    h, error = entries[-1]
    return [
        ("finest error doubled", lambda: dataclasses.replace(
            report, entries=tuple(entries[:-1] + [(h, 2 * error)]),
            pair_orders=report.pair_orders[:-1] + (report.pair_orders[-1] - 1.0,))),
        ("fitted order off by 0.5", lambda: dataclasses.replace(
            report, fitted_order=report.fitted_order + 0.5)),
        ("step sizes reordered", lambda: dataclasses.replace(
            report, entries=tuple(entries[:-1] + [(h / 2, error)]))),
    ]


CASES = {
    "sphere-rk4": _sphere_cases,
    "hyperboloid-implicit": _hyperboloid_cases,
    "spd-rk4-n10": _spd_cases,
    "spd-converge-n3": _converge_cases,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    run.WORKDIR.mkdir(exist_ok=True)
    bad = 0
    for name, cases in CASES.items():
        op = workloads.build(name, seed, run.WORKDIR)[0]
        result = op.run()
        failures = op.check(op, result)
        print(f"{name}: real result {'rejected: ' + '; '.join(failures) if failures else 'passes'}")
        bad += bool(failures)
        for label, perturb in cases(op, result):
            failures = op.check(op, perturb())
            print(f"  {label}: {'rejected: ' + '; '.join(failures) if failures else 'ACCEPTED'}")
            bad += not failures
        if "out" in op.kwargs:
            Path(op.kwargs["out"]).unlink(missing_ok=True)
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
