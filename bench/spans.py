"""In-memory span tracer for the pelastica layers.

The tracer wraps public functions of the package modules from outside the
package: every module attribute bound to a target function is replaced by a
wrapper, so calls through ``from .quad import integrate_over_arch`` style
imports are seen as well as calls through the module.  Each wrapper records a
span (layer, function, thread id, parent, wall and CPU start and end) and
bumps the layer's work counters.  A call nested directly inside a span of its
own layer opens no new span, so a layer's self time is its outermost spans'
time minus the time in nested spans of other layers.

Spans of the CLI's pool worker threads have no parent on their own thread;
they are parented to the open ``cli.main`` span.  Self times are thread CPU
seconds (``time.thread_time``): the pool threads share the interpreter lock,
so their wall-clock spans overlap and would count pool work up to twice.  A
span's self time subtracts only its children on the same thread, which makes
``cli.self_s`` the main thread's own work (parsing, pool hand-off, writes).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter

PACKAGE = "pelastica"

# (module, function, layer, counter bumped per call).  hopf and curve are
# split into stages (lift, torus, export) so that each stage is timed alone.
TARGETS = (
    ("qpotential", "make_params", "qpotential", "qpotential.calls"),
    ("qpotential", "curvature_bounds", "qpotential", "qpotential.calls"),
    ("quad", "integrate_over_arch", "quad", "quad.integrals"),
    ("closure", "solve_closure", "closure", "closure.solves"),
    ("closure", "lambda_p", "closure", "closure.lambda_evals"),
    ("closure", "period", "closure", None),
    ("energy", "energy_closed", "energy", "energy.calls"),
    ("stability", "upsilon", "stability", "stability.calls"),
    ("curve", "trace_closed_curve", "curve", None),
    ("curve", "integrate_profile", "curve", None),
    ("curve", "embed", "curve", None),
    ("curve", "trace_to_csv", "curve.export", None),
    ("curve", "trace_to_json", "curve.export", None),
    ("curve", "trace_to_svg", "curve.export", None),
    ("hopf", "horizontal_lift", "hopf.lift", None),
    ("hopf", "build_torus", "hopf.torus", None),
    ("hopf", "solve_lift_dense", "hopf.torus", None),
    ("hopf", "patch_to_obj", "hopf.export", None),
    ("hopf", "patch_to_json", "hopf.export", None),
    ("cli", "main", "cli", None),
)

# Self-time metric reported for each (sub)layer.
SELF_TIME_METRICS = {
    "qpotential": "qpotential.self_s",
    "quad": "quad.self_s",
    "closure": "closure.self_s",
    "energy": "energy.self_s",
    "stability": "stability.self_s",
    "curve": "curve.self_s",
    "curve.export": "curve.export_s",
    "hopf.lift": "hopf.lift_s",
    "hopf.torus": "hopf.torus_s",
    "hopf.export": "hopf.export_s",
    "cli": "cli.self_s",
}


def _solve_counts(counts, result):
    counts["closure.candidates"] += len(result.a_candidates)


def _profile_counts(counts, result):
    counts["curve.ode_steps"] += len(result.sol.ts) - 1


def _trace_counts(counts, result):
    counts["curve.samples"] += len(result.states)


def _torus_counts(counts, result):
    nt, ns = result.vertices.shape[:2]
    counts["hopf.vertices"] += nt * ns
    counts["hopf.covers"] += result.covers


RESULT_HOOKS = {
    "solve_closure": _solve_counts,
    "integrate_profile": _profile_counts,
    "trace_closed_curve": _trace_counts,
    "build_torus": _torus_counts,
}


class Tracer:
    """Span recorder; spans and counters are kept in memory until reset."""

    def __init__(self):
        self.enabled = False
        # [layer, name, thread, wall start, wall end, parent, cpu start, cpu end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._root = None

    def install(self) -> None:
        """Replace every binding of each target function in the package."""
        for mod_name, func_name, layer, counter in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(module, func_name, None)
            if original is None:
                continue  # a later version dropped this function
            wrapper = self._wrap(original, layer, counter, RESULT_HOOKS.get(func_name))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, counter, hook):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            top = tracer.spans[stack[-1]] if stack else None
            if counter:
                with tracer._lock:
                    tracer.counts[counter] += 1
            if top is not None and top[0] == layer:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1] if stack else (None if layer == "cli" else tracer._root)
                with tracer._lock:
                    idx = len(tracer.spans)
                    tracer.spans.append(
                        [layer, name, threading.get_ident(), time.perf_counter(), None,
                         parent, time.thread_time(), None]
                    )
                    if layer == "cli":
                        tracer._root = idx
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    tracer.spans[idx][4] = time.perf_counter()
                    tracer.spans[idx][7] = time.thread_time()
                    if layer == "cli":
                        tracer._root = None
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Thread CPU time per (sub)layer, less same-thread nested spans."""
        out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for layer, _, thread, _, _, parent, cpu0, cpu1 in self.spans:
            metric = SELF_TIME_METRICS[layer]
            out[metric] += cpu1 - cpu0
            if parent is not None and self.spans[parent][2] == thread:
                out[SELF_TIME_METRICS[self.spans[parent][0]]] -= cpu1 - cpu0
        return out
