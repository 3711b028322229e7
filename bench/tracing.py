"""Span recording around symmflow's layer boundaries, and self-time analysis.

The tracer replaces module attributes that the steppers look up at call time
(`sphere.exp_point`, `hyperbolic.minkowski`, `spd.sym_eig`, ...) and each
problem's `field` with wrappers that record one span per call: name, start,
end and the index of the enclosing span. Spans live in flat arrays in memory
and are written out once, when the run ends. Every attribute is restored when
the `installed` block exits, so untraced calls run the program unchanged.

`harness` reaches the integrators through a private table, so there is no
span around an integration. The march self time is derived from the
integration time the harness already reports (`runtime_seconds`), or, for a
convergence study, from the gaps between consecutive step spans of one
integration.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from symmflow import harness, hyperbolic, spd, sphere

# (span name, module, attribute). Layers are named after symmflow's modules;
# the linear-algebra kernels are named `linalg.*` whichever module imported
# them. `spd.csgi_integrate` calls its stage loop through the module
# attribute `_csgi_step_impl`, so that is where the SPD stepper span sits.
# Attributes that a module does not have are skipped.
WRAPPED = (
    ("core.stepper", sphere, "csi_step"),
    ("core.stepper", sphere, "cssi_step"),
    ("core.stepper", hyperbolic, "chi_step"),
    ("core.stepper", hyperbolic, "cssi_step"),
    ("core.stepper", spd, "csgi_step"),
    ("core.stepper", spd, "_csgi_step_impl"),
    ("sphere.exp_point", sphere, "exp_point"),
    ("sphere.midpoint", sphere, "midpoint"),
    ("sphere.transport_inv", sphere, "transport_inv"),
    ("sphere.dexpinv", sphere, "dexpinv"),
    ("hyperbolic.exp_point", hyperbolic, "exp_point"),
    ("hyperbolic.exp_half", hyperbolic, "exp_half"),
    ("hyperbolic.transport_inv", hyperbolic, "transport_inv"),
    ("hyperbolic.dexpinv", hyperbolic, "dexpinv"),
    ("linalg.minkowski", hyperbolic, "minkowski"),
    ("linalg.sym_eig", spd, "sym_eig"),
    ("linalg.mat_exp", spd, "mat_exp"),
    ("linalg.symmetrize", spd, "symmetrize"),
    ("spd.sqrt_pair", spd, "sqrt_pair"),
    ("spd.ad2", spd, "ad2"),
    ("harness.emit_csv", harness, "emit_csv"),
)
EMIT_CSV = "harness.emit_csv"
FIELD = "problems.field"
STEPPER = "core.stepper"
NO_PARENT = -1

# Per-layer metrics reported as (span name, "calls" | "self") per step.
PER_STEP = (
    (FIELD, "calls"),
    (FIELD, "self"),
    ("sphere.exp_point", "self"),
    ("sphere.midpoint", "self"),
    ("sphere.transport_inv", "self"),
    ("sphere.dexpinv", "self"),
    ("hyperbolic.exp_point", "self"),
    ("hyperbolic.exp_half", "self"),
    ("hyperbolic.transport_inv", "self"),
    ("hyperbolic.dexpinv", "self"),
    ("linalg.minkowski", "calls"),
    ("linalg.minkowski", "self"),
    ("linalg.sym_eig", "calls"),
    ("linalg.sym_eig", "self"),
    ("linalg.mat_exp", "calls"),
    ("linalg.mat_exp", "self"),
    ("linalg.symmetrize", "self"),
    ("spd.sqrt_pair", "self"),
    ("spd.ad2", "calls"),
    ("spd.ad2", "self"),
)


def per_step_metric_name(span: str, kind: str) -> str:
    return f"{span}.{'calls_per_step' if kind == 'calls' else 'us_per_step'}"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [NO_PARENT]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finished = clock()
                stack.pop()
                start[index] = began
                end[index] = finished

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for the user call itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self, problems):
        """Wrap every layer boundary and each problem's field; restore on exit."""
        saved = []
        try:
            for name, module, attr in WRAPPED:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            for problem in problems:
                saved.append((problem, "field", problem.field))
                problem.field = self.wrap(FIELD, problem.field)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def __len__(self):
        return len(self.start)

    def write(self, path) -> None:
        """Write every span recorded so far (times in ns) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


class CallProfile:
    """Self time (s) and call count per span name for the spans of one call.

    `root` is the span of the user call; every span recorded after it, up to
    `stop`, descends from it.
    """

    def __init__(self, tracer: Tracer, root: int, stop: int):
        names = tracer.names
        ids = tracer.name_id[root:stop]
        starts = tracer.start[root:stop]
        ends = tracer.end[root:stop]
        parents = tracer.parent[root:stop]
        durations = [(e - s) * 1e-9 for s, e in zip(starts, ends)]
        child_time = [0.0] * len(durations)
        for k in range(1, len(durations)):
            child_time[parents[k] - root] += durations[k]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        for k in range(1, len(durations)):
            name = names[ids[k]]
            self.self_s[name] = self.self_s.get(name, 0.0) + durations[k] - child_time[k]
            self.calls[name] = self.calls.get(name, 0) + 1
        self.root_s = durations[0]
        # Direct children of the user call, in call order.
        self.top = [
            (names[ids[k]], starts[k], ends[k])
            for k in range(1, len(durations))
            if parents[k] == root
        ]

    def top_level_s(self, exclude=()) -> float:
        return sum((e - s) * 1e-9 for name, s, e in self.top if name not in exclude)

    def step_gaps_s(self, group_sizes) -> float | None:
        """Time between consecutive top-level step spans of each integration.

        `group_sizes` are the step counts of the integrations the call makes,
        in order. Returns None when the top-level spans do not line up with
        them (then the march cannot be told apart from the caller).
        """
        if sum(group_sizes) != len(self.top) or any(n != STEPPER for n, _, _ in self.top):
            return None
        total = 0.0
        k = 0
        for size in group_sizes:
            for j in range(k + 1, k + size):
                total += (self.top[j][1] - self.top[j - 1][2]) * 1e-9
            k += size
        return total
