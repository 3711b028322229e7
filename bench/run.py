"""Run one symmflow benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload sphere-rk4 --seed 1 --seconds 20 --trace 0

With `--trace 0` the run reports the end-to-end metrics (steps_per_s, run_s,
setup_s, peak_rss_mb); with `--trace 1` it reports the per-layer metrics from
a traced half of the run against an untraced half. The last line of standard
output is the result object; the line before it records the environment.
Failed checks are listed on standard error and make `correct` false.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the set-up probes (they
# inherit the environment): a threaded BLAS costs ~200x on a 30x30 eigh.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> int:
    """In a fresh interpreter: import symmflow and build the workload's round."""
    started = time.perf_counter()
    import symmflow  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.build(name, seed, WORKDIR)
    print(time.perf_counter() - started)
    return 0


def measure_setup(name: str, seed: int) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    """Rounds of one workload, the accounting of attempts, and output checks."""

    def __init__(self, ops):
        from symmflow.errors import SymmflowError

        self.ops = ops
        self.error_type = SymmflowError
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[int, object] = {}  # op index -> result of its first call
        self.fingerprints: dict[int, bytes] = {}

    def call(self, k, op, invoke=None):
        """One user call: (result or None, wall seconds); checks reproducibility."""
        began = time.perf_counter()
        try:
            result = op.run(invoke)
        except self.error_type as err:
            wall = time.perf_counter() - began
            result, mark = None, f"{type(err).__name__} at step {err.step_index}".encode()
        else:
            wall = time.perf_counter() - began
            mark = op.fingerprint(result)
        if k not in self.fingerprints:
            self.fingerprints[k] = mark
            self.first[k] = result
        elif mark != self.fingerprints[k]:
            self.failures.append(f"{op.label}: output differs between calls on the same input")
        return result, wall

    def round(self, on_call=None, invoke=None, tracer=None):
        """Every operation once; returns (steps, integration s, [wall s]) of measured ones."""
        steps, integration, walls = 0, 0.0, []
        for k, op in enumerate(self.ops):
            self.attempted += 1
            if tracer is not None and op.measured:
                with tracer.installed([op.problem]):
                    root = len(tracer)
                    result, wall = self.call(k, op, invoke)
                    stop = len(tracer)
            else:
                result, wall = self.call(k, op)
            if result is None:
                self.failed += 1
                continue
            if not op.measured:
                continue
            steps += sum(op.steps)
            integration += op.integration_s(result, wall)
            walls.append(wall)
            if on_call is not None:
                on_call(op, result, root, stop)
        return steps, integration, walls

    def rounds(self, seconds, **kwargs):
        out = []
        began = time.perf_counter()
        while not out or time.perf_counter() - began < seconds:
            out.append(self.round(**kwargs))
        return out

    def check_outputs(self):
        """The full output checks, on the first round's results."""
        for k, op in enumerate(self.ops):
            result = self.first.get(k)
            if result is not None:
                self.failures.extend(f"{op.label}: {msg}" for msg in op.check(op, result))


def end_to_end(run: Run, name: str, seed: int, seconds: float) -> dict:
    rounds = run.rounds(seconds)
    measured = [r for r in rounds if r[2]]
    if not measured:
        return {}
    # ru_maxrss is in KiB on Linux; read before the checks import scipy.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "steps_per_s": (statistics.median(s / t for s, t, _ in measured), "steps/s"),
        "run_s": (statistics.median(statistics.fmean(w) for _, _, w in measured), "s"),
        "setup_s": (measure_setup(name, seed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(run: Run, seconds: float, span_file: Path) -> dict:
    from symmflow.harness import run_problem
    from tracing import EMIT_CSV, PER_STEP, STEPPER, CallProfile, Tracer, per_step_metric_name

    untraced = run.rounds(seconds / 2)
    untraced_steps = sum(r[0] for r in untraced)
    untraced_s = sum(r[1] for r in untraced)

    tracer = Tracer()
    totals = {"steps": 0, "integration": 0.0, "march": 0.0, "fp": 0, "renorm": 0,
              "emit_csv": 0.0, "run_problem": 0.0, "converge": 0.0, "run_calls": 0,
              "converge_calls": 0}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}

    def on_call(op, result, root, stop):
        profile = CallProfile(tracer, root, stop)
        if op.call is run_problem:
            _, records, summary = result
            integration = summary["runtime_seconds"]
            inside = profile.top_level_s(exclude=(EMIT_CSV,))
            emit = profile.top_level_s() - inside
            march = integration - inside
            totals["run_problem"] += profile.root_s - integration - emit
            totals["emit_csv"] += emit
            totals["run_calls"] += 1
            totals["fp"] += sum(r.fixed_point_iterations for r in records)
            totals["renorm"] += summary["renormalizations"]
        else:
            march = profile.step_gaps_s(op.steps)
            if march is None:
                print(f"{op.label}: step spans do not match the expected integrations; "
                      "march time is counted as converge self time", file=sys.stderr)
                march = 0.0
            integration = profile.top_level_s() + march
            totals["converge"] += profile.root_s - integration
            totals["converge_calls"] += 1
        if march < 0.0:
            run.failures.append(f"{op.label}: spans exceed the integration time by {-march:.3e} s")
        totals["steps"] += sum(op.steps)
        totals["integration"] += integration
        totals["march"] += march
        for name, value in profile.self_s.items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in profile.calls.items():
            calls[name] = calls.get(name, 0) + value

    traced = run.rounds(seconds / 2, on_call=on_call, invoke=tracer.span, tracer=tracer)
    tracer.write(span_file)

    steps = max(totals["steps"], 1)
    us = 1e6 / steps
    metrics = {}
    for span, kind in PER_STEP:
        if kind == "calls":
            metrics[per_step_metric_name(span, kind)] = (calls.get(span, 0) / steps, "calls/step")
        else:
            metrics[per_step_metric_name(span, kind)] = (self_s.get(span, 0.0) * us, "us/step")
    traced_us = totals["integration"] * us
    untraced_us = untraced_s * 1e6 / max(untraced_steps, 1)
    metrics.update({
        "core.stepper.self_us_per_step": (self_s.get(STEPPER, 0.0) * us, "us/step"),
        "core.march.self_us_per_step": (totals["march"] * us, "us/step"),
        "core.fixed_point_iterations_per_step": (totals["fp"] / steps, "iterations/step"),
        "core.renormalizations": (totals["renorm"] / len(traced), "count"),
        "harness.emit_csv.s": (totals["emit_csv"] / max(totals["run_calls"], 1), "s"),
        "harness.run_problem.self_s": (totals["run_problem"] / max(totals["run_calls"], 1), "s"),
        "harness.converge.self_s": (totals["converge"] / max(totals["converge_calls"], 1), "s"),
        "trace.untraced_us_per_step": (untraced_us, "us/step"),
        "trace.traced_us_per_step": (traced_us, "us/step"),
        "trace.overhead_us_per_step": (traced_us - untraced_us, "us/step"),
    })
    # Self times partition the traced integration time: the march is the rest.
    attributed = sum(v for k, v in self_s.items() if k != EMIT_CSV) + totals["march"]
    if abs(attributed - totals["integration"]) > 1e-6 * totals["integration"]:
        run.failures.append(
            f"self times add up to {attributed:.6f} s, integration took {totals['integration']:.6f} s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symmflow" / "__init__.py").is_file():
        print(f"symmflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(workloads.build(args.workload, args.seed, WORKDIR))
    if args.trace:
        span_file = WORKDIR / f"spans-{args.workload}.npz"  # the last traced run's
        metrics = per_layer(run, args.seconds, span_file)
    else:
        metrics = end_to_end(run, args.workload, args.seed, args.seconds)
    run.check_outputs()
    for op in run.ops:
        if "out" in op.kwargs:
            Path(op.kwargs["out"]).unlink(missing_ok=True)
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
