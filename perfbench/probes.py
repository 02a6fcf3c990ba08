"""Wrappers installed on the package's module attributes, from outside the package.

Callers inside qvortex look functions up as module globals (`cli` calls
`sweep_n`, `sweep` calls `minimize_on_sphere`, `solver` calls
`dense_profile`), so a wrapper placed on every qvortex module attribute that
holds the original function sees every call. Nothing under src/ is edited.

Two wrapper sets exist:

* Recorder, on every pass: it remembers the arguments of the set-up calls
  (build_grid, build_basis) so the set-up can be replayed and timed, and
  keeps every VortexSolution minimize_on_sphere returns. Those are a
  handful of calls per pass, so it costs microseconds.
* Tracer, used in the traced run: one span per call of every public
  function of the layer modules, plus descent-run counts from the public
  `callback` hook of minimize_on_sphere.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("quadrature", "basis", "model", "solver", "sweep", "crosscheck", "cli")

# Post-solve diagnostics of the solver layer (solver.diagnostics_s).
DIAGNOSTICS = (
    "solver.dense_profile",
    "solver.recover_omega_sq",
    "solver.residual_error",
    "solver.residual_error_split",
    "solver.check_decay_envelope",
)


def public_functions(module):
    """Module-level functions defined in `module` whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Patches:
    """Replace a function in every qvortex module namespace that holds it."""

    def __init__(self):
        self._undo = []

    def install(self, original, wrapper):
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qvortex"]:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    def remove(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def originals(qv):
    """'layer.name' -> function, taken before any wrapper is installed."""
    return {
        f"{layer}.{name}": fn
        for layer in LAYERS
        for name, fn in public_functions(importlib.import_module(f"{qv.__name__}.{layer}")).items()
    }


class Recorder:
    """Set-up timing, set-up replay and solution capture for untraced passes.

    It wraps whatever the attributes hold when it is installed, so it can
    sit outside the Tracer's wrappers; replays call the original functions.
    """

    def __init__(self, qv, functions):
        self.qv = qv
        self.functions = functions
        self.setup_calls = []
        self.solutions = []

    def install(self, patches):
        for layer, name in (("quadrature", "build_grid"), ("basis", "build_basis")):
            current = getattr(getattr(self.qv, layer), name)
            patches.install(current, self._recorded(current, self.functions[f"{layer}.{name}"]))
        minimize = self.qv.solver.minimize_on_sphere

        def capture(*args, **kwargs):
            sol = minimize(*args, **kwargs)
            self.solutions.append(sol)
            return sol

        patches.install(minimize, capture)

    def _recorded(self, fn, original):
        def recorded(*args, **kwargs):
            self.setup_calls.append((original, args, kwargs))
            return fn(*args, **kwargs)

        return recorded

    def replay_setup(self):
        """Seconds to repeat this pass's build_grid/build_basis calls."""
        start = time.perf_counter()
        for fn, args, kwargs in self.setup_calls:
            fn(*args, **kwargs)
        return time.perf_counter() - start


@dataclass
class SolveRecord:
    """What the callback hook saw of one minimize_on_sphere call."""

    runs: int
    max_iter: int
    iterations: int
    segments: list = field(default_factory=list)


def count_step(segments, iteration):
    """Fold one callback into per-run step counts.

    The callback reports the 1-based step index within the current descent
    run, so a run starts where the index is 1 again. A run that accepts no
    step never calls back and leaves no segment; SolveRecord.runs counts it
    from the configuration instead.
    """
    if iteration == 1:
        segments.append(0)
    segments[-1] = iteration


class Tracer:
    """Spans at every public function of the layer modules, kept in memory."""

    def __init__(self, functions, clock=time.perf_counter):
        self.functions = functions
        self.clock = clock
        self.spans = []  # [name, layer, start, end, parent index]
        self._stack = []
        self.solves = []
        self.fd_iterations = 0

    def install(self, patches):
        """Install on the original functions; install before a Recorder."""
        for full_name, fn in self.functions.items():
            inner = fn
            if full_name == "solver.minimize_on_sphere":
                inner = self._counted_minimize(fn)
            elif full_name == "crosscheck.fd_minimize":
                inner = self._counted_fd(fn)
            patches.install(fn, self.span(full_name, full_name.split(".")[0], inner))

    def span(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end

        return traced

    def _counted_minimize(self, minimize):
        def counted(basis, params, config, callback=None):
            segments = []

            def hook(iteration, coeffs, f_value, grad_norm):
                count_step(segments, iteration)
                if callback is not None:
                    callback(iteration, coeffs, f_value, grad_norm)

            sol = minimize(basis, params, config, callback=hook)
            self.solves.append(
                SolveRecord(config.restarts + 1, config.max_iter, sol.iterations, segments)
            )
            return sol

        return counted

    def _counted_fd(self, fd_minimize):
        def counted(*args, **kwargs):
            result = fd_minimize(*args, **kwargs)
            self.fd_iterations += result.iterations
            return result

        return counted

    def metrics(self, wall_s):
        """Per-layer numbers of one traced pass whose wall time was wall_s.

        <layer>.self_s over all layers plus trace.unattributed_s equals
        trace.wall_s: every span's self time is its duration minus its
        children's, and time outside any span is the remainder.
        """
        n = len(self.spans)
        child = [0.0] * n
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        total = defaultdict(float)
        calls = defaultdict(int)
        minimize_durations = []
        minimize_self = 0.0
        diagnostics = 0.0
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_by_layer[layer] += duration - child[i]
            total[name] += duration
            calls[name] += 1
            if name == "solver.minimize_on_sphere":
                minimize_durations.append(duration)
                minimize_self += duration - child[i]
            if name in DIAGNOSTICS and (parent < 0 or self.spans[parent][0] not in DIAGNOSTICS):
                diagnostics += duration

        iterations = [s.iterations for s in self.solves]
        segments = [seg for s in self.solves for seg in s.segments]
        restart_steps = sum(sum(s.segments[1:]) for s in self.solves)
        runs = sum(s.runs for s in self.solves)
        out = {f"{layer}.self_s": v for layer, v in self_by_layer.items()}
        out.update({
            "quadrature.build_grid_s": total["quadrature.build_grid"],
            "basis.build_basis_s": total["basis.build_basis"],
            "basis.builds": calls["basis.build_basis"],
            "basis.evaluate_s": total["basis.evaluate"],
            "solver.minimize_s.p50": _median(minimize_durations),
            "solver.minimize_s.max": max(minimize_durations, default=0.0),
            "solver.minimize_s.count": len(minimize_durations),
            "solver.iterations_per_solve.p50": _median(iterations),
            "solver.iterations_per_solve.max": max(iterations, default=0),
            "solver.s_per_iteration": minimize_self / sum(iterations) if sum(iterations) else 0.0,
            "solver.descent_runs": runs,
            "solver.empty_runs": runs - len(segments),
            "solver.runs_at_max_iter": sum(
                1 for s in self.solves for seg in s.segments if seg >= s.max_iter
            ),
            "solver.restart_iteration_share": restart_steps / sum(segments) if sum(segments) else 0.0,
            "solver.diagnostics_s": diagnostics,
            "solver.functional_gradient_s": total["solver.functional_gradient"],
            "solver.discrete_functional_s": total["solver.discrete_functional"],
            "solver.gradient_fd_check_s": total["solver.gradient_fd_check"],
            "crosscheck.fd_minimize_s": total["crosscheck.fd_minimize"],
            "crosscheck.fd_iterations": self.fd_iterations,
            "crosscheck.bessel_first_zero_s": total["crosscheck.bessel_first_zero"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(self_by_layer.values()),
        })
        return out


def _median(values):
    return statistics.median(values) if values else 0.0
