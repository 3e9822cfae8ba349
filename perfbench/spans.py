"""Spans around calls into radialma's layers, and the per-layer metrics.

The wrappers live in the benchmark, not in the program: each public entry
point of a layer is replaced, for the duration of a traced run, in every
radialma module that holds a reference to it (``comparison`` and ``cli``
bind solver names with ``from .solver import ...``, so patching only
``radialma.solver`` would miss their calls). Private helpers are not
wrapped; Jacobian assembly and the banded step count as ``newton_solve``
self time.

A span records its name, start, end, parent span and experiment id. Spans
are kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# wrapped function -> (module that defines it, layer it belongs to)
FUNCTIONS = {
    "build_dirac_rhs": ("radialma.rhs", "rhs"),
    "check_lower_bound": ("radialma.rhs", "rhs"),
    "newton_solve": ("radialma.solver", "solver.newton"),
    "residual_from_perturbation": ("radialma.solver", "solver.residual"),
    "continuity_in_t": ("radialma.solver", "solver.continuation"),
    "neutral_oracle": ("radialma.solver", "solver.oracle"),
    "diagnostics_for": ("radialma.solver", "solver.diagnostics"),
    "sweep_epsilon": ("radialma.solver", "family"),
    "magnification_experiment": ("radialma.comparison", "family"),
    "germ_integral": ("radialma.multiplier", "multiplier"),
    "stalk_from_sequence": ("radialma.multiplier", "multiplier"),
    "main": ("radialma.cli", "cli"),
}
FAMILY = ("magnification_experiment", "sweep_epsilon")
EXPERIMENT = "experiment"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    experiment: int | None
    end: float = 0.0
    work: dict | None = None


class Tracer:
    """Records spans while an experiment is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._experiment: int | None = None
        self._restore: list[tuple] = []

    def install(self) -> None:
        """Replace every radialma module's reference to each wrapped function."""
        for name, (module_name, _) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), name)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "radialma" or mod_name.startswith("radialma.")) \
                        and getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self._experiment is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.work = _work(name, args, result)
            return result
        return traced

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._experiment)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def experiment(self, experiment_id: int, fn, *args):
        """Run ``fn(*args)`` as one experiment, under an experiment span."""
        self._experiment = experiment_id
        span = self._open(EXPERIMENT)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._experiment = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _work(name: str, args, result) -> dict | None:
    """The counts a span carries, read from the call's inputs and result."""
    if name == "newton_solve":
        return {"iterations": result.iterations, "converged": bool(result.converged),
                "points": args[0].grid.points}
    if name == "magnification_experiment":
        return {"members": len(args[3])}
    if name == "sweep_epsilon":
        return {"members": len(args[4])}
    return None


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass counts and self times of each layer.

    A span's self time is its duration minus the durations of its direct
    children. Counts and times are totals over the traced passes divided by
    the number of passes, so the counts of a deterministic pass are exact.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def under_family(span: Span) -> bool:
        p = span.parent
        while p is not None:
            if by_id[p].name in FAMILY:
                return True
            p = by_id[p].parent
        return False

    calls = defaultdict(int)
    self_s = defaultdict(float)
    iterations = nonconverged = node_iters = 0
    attempts = accepted = members = fallbacks = 0
    for s in spans:
        if s.name == EXPERIMENT:
            continue
        calls[s.name] += 1
        self_s[FUNCTIONS[s.name][1]] += (s.end - s.start) - sum(
            c.end - c.start for c in children[s.id])
        if s.work is None and s.name in ("newton_solve", *FAMILY):
            continue  # the call raised; the experiment records the failure
        if s.name == "newton_solve":
            iterations += s.work["iterations"]
            nonconverged += not s.work["converged"]
            node_iters += s.work["iterations"] * s.work["points"]
        elif s.name == "continuity_in_t":
            # the first Newton solve of a continuation is its neutral base
            steps = [c for c in children[s.id] if c.name == "newton_solve"][1:]
            attempts += len(steps)
            accepted += sum(bool(c.work and c.work["converged"]) for c in steps)
            fallbacks += under_family(s)
        elif s.name in FAMILY:
            members += s.work["members"]

    trials = calls["residual_from_perturbation"] - calls["newton_solve"]
    p = float(passes)
    return {
        "rhs.calls": (calls["build_dirac_rhs"] + calls["check_lower_bound"]) / p,
        "rhs.self_s": self_s["rhs"] / p,
        "solver.newton.calls": calls["newton_solve"] / p,
        "solver.newton.iterations": iterations / p,
        "solver.newton.nonconverged": nonconverged / p,
        "solver.newton.node_iters": node_iters / p,
        "solver.newton.self_s": self_s["solver.newton"] / p,
        "solver.newton.ns_per_node_iter":
            1e9 * self_s["solver.newton"] / node_iters if node_iters else 0.0,
        "solver.residual.calls": calls["residual_from_perturbation"] / p,
        "solver.residual.self_s": self_s["solver.residual"] / p,
        "solver.damping.accept_ratio": iterations / trials if trials else 0.0,
        "solver.continuation.attempts": attempts / p,
        "solver.continuation.accepted": accepted / p,
        "solver.continuation.accept_ratio": accepted / attempts if attempts else 0.0,
        "solver.continuation.self_s": self_s["solver.continuation"] / p,
        "solver.oracle.calls": calls["neutral_oracle"] / p,
        "solver.oracle.self_s": self_s["solver.oracle"] / p,
        "solver.diagnostics.calls": calls["diagnostics_for"] / p,
        "solver.diagnostics.self_s": self_s["solver.diagnostics"] / p,
        "family.members": members / p,
        "family.fallbacks": fallbacks / p,
        "family.self_s": self_s["family"] / p,
        "multiplier.germ.calls": calls["germ_integral"] / p,
        "multiplier.germ.self_s": self_s["multiplier"] / p,
        "cli.self_s": self_s["cli"] / p,
    }
