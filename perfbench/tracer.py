"""Span tracer that measures the package's layers from outside.

``Tracer.install`` wraps each target function at every module attribute
of the ``hyperburg`` package that refers to it: the defining module, the
modules that imported it by name (``hyperburg.solver.pde_rhs``,
``hyperburg.diagnostics.pde_rhs``) and the package's re-exports.  A caller
resolves the function through one of those attributes at call time, so
every call passes through exactly one wrapper.  Nothing in the package is
edited; ``uninstall`` restores the attributes.

A span records its name, start, end, parent span and iteration; spans
stay in memory until ``aggregate`` derives self times (duration minus the
durations of direct children), call counts and work counts.  A target
missing from the package is listed in ``absent`` instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional


def _nodes(args, kwargs) -> int:
    """Grid nodes in the first array argument (all rows of a batch)."""
    return int(getattr(args[0], "size", 0)) if args else 0


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    attr: str
    count_only: bool = False
    work: Optional[Callable] = None


TARGETS = (
    Target("operators.pde_rhs", "hyperburg.operators", "pde_rhs", work=_nodes),
    Target("solver.step_rk4", "hyperburg.solver", "step_rk4"),
    Target("solver.integrate", "hyperburg.solver", "integrate"),
    Target("solver.sample_trajectory", "hyperburg.solver", "sample_trajectory"),
    Target("solver.estimate_blowup_time", "hyperburg.solver", "estimate_blowup_time"),
    Target("diagnostics.compute_record", "hyperburg.diagnostics", "compute_record"),
    Target("diagnostics.identity_residual", "hyperburg.diagnostics", "identity_residual"),
    Target("diagnostics.gronwall_check_E1", "hyperburg.diagnostics", "gronwall_check_E1"),
    Target("diagnostics.cone_max", "hyperburg.diagnostics", "cone_max"),
    Target("certificate.build_certificate", "hyperburg.certificate", "build_certificate"),
    Target("certificate.comparison_check", "hyperburg.certificate", "comparison_check"),
    Target("certificate.aux_ode_oracle", "hyperburg.certificate", "aux_ode_oracle"),
    Target("certificate.g_closed_form", "hyperburg.certificate", "g_closed_form", count_only=True),
    Target("initial_data.calibrated_profile", "hyperburg.initial_data", "calibrated_profile"),
    Target("initial_data.sample_initial_state", "hyperburg.initial_data", "sample_initial_state"),
    Target("config.config_from_dict", "hyperburg.config", "config_from_dict"),
    Target("runner.execute_config", "hyperburg.runner", "execute_config"),
    Target("runner.write_csv", "hyperburg.runner", "write_csv"),
    Target("suite.run_suite", "hyperburg.suite", "run_suite"),
    Target("suite.epsilon_scan_oracle", "hyperburg.suite", "epsilon_scan_oracle"),
)


@dataclass
class LayerStats:
    """Per-iteration totals for one span name."""

    calls: int = 0
    self_ns: int = 0
    work: int = 0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.iteration = -1
        # Span columns: name, start ns, end ns, parent index, iteration.
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.iters: list[int] = []
        self.counts: dict = defaultdict(int)
        self.work: dict = defaultdict(int)
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _span(self, target: Target, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, iters, stack = self.parents, self.iters, self._stack
        name, work = target.name, target.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self.work[(self.iteration, name)] += work(args, kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            iters.append(self.iteration)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def _counter(self, target: Target, fn):
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.iteration, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at every package attribute that holds it."""
        self.absent = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "hyperburg" or key.startswith("hyperburg."))
        ]
        for target in self.targets:
            try:
                home = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            original = getattr(home, target.attr, None)
            if not callable(original):
                self.absent.append(target.name)
                continue
            make = self._counter if target.count_only else self._span
            wrapper = make(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def aggregate(self):
        """Per-iteration layer totals, root-span time and span durations.

        Returns ``(layers, roots, durations)``: ``layers[it][name]`` is a
        LayerStats, ``roots[it]`` the summed duration of spans without a
        parent in iteration ``it`` (ns) and ``durations[name]`` every
        span's inclusive duration (ns).
        """
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        layers: dict = defaultdict(lambda: defaultdict(LayerStats))
        roots: dict = defaultdict(int)
        durations: dict = defaultdict(list)
        for i in range(n):
            it, name = self.iters[i], self.names[i]
            stats = layers[it][name]
            stats.calls += 1
            stats.self_ns += dur[i] - child[i]
            durations[name].append(dur[i])
            if self.parents[i] < 0:
                roots[it] += dur[i]
        for (it, name), calls in self.counts.items():
            layers[it][name].calls += calls
        for (it, name), work in self.work.items():
            layers[it][name].work += work
        return layers, roots, durations
