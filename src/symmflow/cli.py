"""Command-line harness.

    symmflow run      --space sphere --problem rigid_body --method rk4
                      --h 0.01 --T 10 --out traj.csv [--seed 42]
                      [--dexpinv-terms auto|N] [--diagnostics] [--dim N]
    symmflow converge --space spd --problem double_bracket --method rk4
                      --h-list 0.1,0.05,0.025,0.0125 [--T 1] [--out conv.csv]
    symmflow check    [--seed 0]

All flags of `run` and `converge` may instead live in a JSON config file
given with --config; explicit flags override the file. Each config value
must have its flag's type, and a key that names no flag is rejected. Exit
status is 0 on success, 1 on any failure (including a failing `check`
suite); bad input and failed runs print one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_all
from .errors import SymmflowError
from .harness import converge, emit_report, run_problem
from .problems import DEFAULT_SEED, build_problem, problem_names
from .tableau import tableau_names


def _add_shared(parser):
    parser.add_argument("--config", help="JSON file supplying defaults for all flags")
    parser.add_argument("--space", choices=("sphere", "hyperbolic", "spd"))
    parser.add_argument("--problem", help=f"one of {problem_names()}")
    parser.add_argument("--method", help=f"tableau name, one of {tableau_names()}")
    parser.add_argument("--dim", type=int, help="manifold / matrix dimension")
    parser.add_argument("--T", type=float, help="time horizon (default 1.0)")
    parser.add_argument("--seed", type=int, help=f"rng seed (default {DEFAULT_SEED})")
    parser.add_argument(
        "--dexpinv-terms",
        dest="dexpinv_terms",
        help="'auto' (the closed form, on every geometry) or an integer series term count",
    )
    parser.add_argument("--out", help="output CSV path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symmflow",
        description="structure-preserving integration on spheres, hyperbolic "
        "spaces and SPD matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one problem and emit a trajectory")
    _add_shared(run_p)
    run_p.add_argument("--h", type=float, help="step size")
    run_p.add_argument(
        "--diagnostics",
        action="store_true",
        default=None,
        help="project the field onto tangent spaces and record the defect",
    )

    conv_p = sub.add_parser("converge", help="estimate the convergence order")
    _add_shared(conv_p)
    conv_p.add_argument("--h-list", dest="h_list", help="comma-separated step sizes")

    check_p = sub.add_parser("check", help="run the self-verification suites")
    check_p.add_argument("--seed", type=int, default=0)
    return parser


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON form of each flag's type, as (description, test) by key;
# `_parse_terms` then reads dexpinv_terms as it reads the flag.
_STRING = ("a string", lambda v: isinstance(v, str))
_INTEGER = ("an integer", lambda v: _number(v) and isinstance(v, int))
_NUMBER = ("a number", _number)
_CONFIG_TYPES = {
    "space": _STRING, "problem": _STRING, "method": _STRING, "out": _STRING,
    "dim": _INTEGER, "seed": _INTEGER, "T": _NUMBER, "h": _NUMBER,
    "diagnostics": ("true or false", lambda v: isinstance(v, bool)),
    "dexpinv_terms": ("'auto' or an integer", lambda v: v is None or isinstance(v, (str, int))),
    "h_list": ("a string or a list of numbers",
               lambda v: isinstance(v, str) or isinstance(v, list) and all(map(_number, v))),
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Flags override config-file values, which override built-in defaults."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise SymmflowError(f"could not load config {args.config}: {err}") from err
        if not isinstance(loaded, dict):
            raise SymmflowError(f"config {args.config} must hold a JSON object")
        for raw_key, value in loaded.items():
            key = raw_key.replace("-", "_")
            if key in ("command", "config") or key not in vars(args):
                raise SymmflowError(f"unknown key {raw_key!r} in config {args.config}")
            kind, test = _CONFIG_TYPES[key]
            if not test(value):
                raise SymmflowError(f"{key} must be {kind} in config {args.config}: {value!r}")
            merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _require(options: dict, *keys):
    missing = [k for k in keys if options.get(k) is None]
    if missing:
        raise SymmflowError(f"missing required option(s): {', '.join(missing)}")


def _parse_terms(raw):
    """None for 'auto', else a term count from an int or a string of digits."""
    if raw is None or raw == "auto":
        return None
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0:
        return raw
    if isinstance(raw, str) and raw.isascii() and raw.isdigit():
        return int(raw)
    raise ValueError(f"dexpinv_terms must be 'auto' or a non-negative integer: {raw!r}")


def _non_negative(key: str, value):
    """The flag's value, unless it is a negative integer."""
    if value is not None and value < 0:
        raise ValueError(f"{key} must be a non-negative integer: {value}")
    return value


def _problem(options: dict):
    return build_problem(
        options["space"],
        options["problem"],
        dim=_non_negative("dim", options.get("dim")),
        seed=_non_negative("seed", options.get("seed", DEFAULT_SEED)),
        T=options.get("T", 1.0),
    )


def _cmd_run(options: dict) -> int:
    _require(options, "space", "problem", "h")
    _, records, summary = run_problem(
        _problem(options),
        method=options.get("method", "rk4"),
        h=options["h"],
        dexpinv_terms=_parse_terms(options.get("dexpinv_terms")),
        diagnostics=bool(options.get("diagnostics")),
        out=options.get("out"),
    )
    print(
        f"{summary['space']}/{summary['problem']} {summary['method']} "
        f"h={summary['h']} steps={summary['n_steps']}"
    )
    print(f"max manifold residual: {summary['max_residual']:.3e}")
    print(f"renormalizations:      {summary['renormalizations']}")
    for name, drift in summary["conserved_drift"].items():
        print(f"drift of {name}: {drift:.3e}")
    if "endpoint_error" in summary:
        print(f"endpoint error vs exact solution: {summary['endpoint_error']:.3e}")
    if "max_tangency_defect" in summary:
        print(f"max tangency defect: {summary['max_tangency_defect']:.3e}")
    if "out" in summary:
        print(f"trajectory written to {summary['out']} ({len(records) + 1} rows)")
    return 0


def _cmd_converge(options: dict) -> int:
    _require(options, "space", "problem", "h_list")
    raw = options["h_list"]
    h_list = (
        [float(tok) for tok in raw.split(",") if tok.strip()]
        if isinstance(raw, str)
        else [float(v) for v in raw]
    )
    report = converge(
        _problem(options),
        options.get("method", "rk4"),
        h_list,
        dexpinv_terms=_parse_terms(options.get("dexpinv_terms")),
    )
    print("h          error          pair_order")
    for i, (h, error) in enumerate(report.entries):
        order = "-" if i == 0 else f"{report.pair_orders[i - 1]:.3f}"
        print(f"{h:<10.6g} {error:<14.6e} {order}")
    print(f"fitted order: {report.fitted_order:.3f}")
    if options.get("out"):
        emit_report(report, options["out"])
        print(f"report written to {options['out']}")
    return 0


def _cmd_check(seed: int) -> int:
    results = run_all(seed)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += not result.passed
        print(
            f"[{status}] {result.suite:<8} {result.name:<42} "
            f"worst {result.worst:.3e} (bound {result.bound:.1e})"
        )
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(_non_negative("seed", args.seed))
        options = _merge_config(args)
        if args.command == "run":
            return _cmd_run(options)
        return _cmd_converge(options)
    except (SymmflowError, ValueError) as err:
        step = getattr(err, "step_index", None)
        where = f" (at step {step})" if step is not None else ""
        print(f"error: {err}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
