"""Per-layer tracing from outside the program.

Public callables of each layer (module) are wrapped where they are
defined and everywhere they are looked up: modules import each other
with ``from .x import y``, so a function is replaced in every
``contactfive`` module namespace that holds it, and a method or a
constructor is replaced on its class.  A wrapper records calls,
inclusive (busy) time and self time (busy minus the traced calls made
beneath it), plus counts read from arguments and returned objects.

A traced name that no longer exists is listed in ``absent`` and keeps
zero calls; nothing else changes, so the benchmark survives merges and
renames inside the program.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> traced public calls; `contact` and `cli` have no hot path in
# the workloads and are not traced
TRACED = (
    "expr.parse",
    "expr.lambdify_with_derivatives",
    "acs.j_matrices",
    "charts.Chart5.to_ambient",
    "charts.chart_of_plane_j",
    "lift.lagrangian_graph",
    "lift.legendrian_lift",
    "lift.exact_patch",
    "solver.AdaptedChart.coeff_arrays",
    "solver.EllipticOperator",          # constructor = one operator assembly
    "solver.EllipticOperator.solve",
    "solver.smallness_report",
    "solver.adapt_chart",
    "solver.picard_solve",
    "solver.psi",
    "solver.psi_invert",
    "foliation.leaf_through_polar",
    "foliation.leaf_through_parallel",
    "foliation.build_leaf",
    "foliation.intersect",
    "foliation.Leaf.point",
    "forms.comass",
    "forms.wedge_coeff",
    "scenarios.s5_point",
    "scenarios.n5_point",
    "scenarios.cy_levelset_point",
)

LOOKUPS = ("foliation.leaf_through_polar", "foliation.leaf_through_parallel")

# counts read from the arguments and results of traced calls
COUNTS = (
    "acs.j_matrices.points",
    "solver.AdaptedChart.coeff_arrays.points",
    "solver.picard_iterations",
    "solver.psi_invert.iterations",
    "foliation.lookup_iterations",
    "foliation.lookup_disk_solves",
    "foliation.intersection_sign_sum",
    "scenarios.passed",
)


def _points(p) -> int:
    shape = getattr(p, "shape", None)
    if shape is None:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _count(name: str, counts: Counter, args, result, stack) -> None:
    if name == "acs.j_matrices":
        counts["acs.j_matrices.points"] += _points(args[1])
    elif name == "solver.AdaptedChart.coeff_arrays":
        counts["solver.AdaptedChart.coeff_arrays.points"] += _points(args[1])
    elif name == "solver.picard_solve":
        counts["solver.picard_iterations"] += result.iterations
        if any(frame[0] in LOOKUPS for frame in stack):
            counts["foliation.lookup_disk_solves"] += 1
    elif name == "solver.psi_invert":
        counts["solver.psi_invert.iterations"] += result.iterations
    elif name in LOOKUPS:
        counts["foliation.lookup_iterations"] += result.iterations
    elif name == "foliation.intersect":
        counts["foliation.intersection_sign_sum"] += (
            result.sign if result is not None else 0)
    elif name.startswith("scenarios."):
        counts["scenarios.passed"] += int(result.report.passed)


class Tracer:
    """Aggregated spans: per name [calls, busy_s, self_s]."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}
        self.counts = Counter({name: 0 for name in COUNTS})
        self.absent: list[str] = []
        self._stack: list = []          # [name, child_s] per open call

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[1]
            _count(name, counts, args, result, stack)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED; imported contactfive modules only."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "contactfive" or key.startswith("contactfive.")]
        for name in TRACED:
            module_name, *path = name.split(".")
            owner = sys.modules.get(f"contactfive.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            obj = getattr(owner, path[-1], None) if owner else None
            if obj is None or not callable(obj):
                self.absent.append(name)
            elif isinstance(obj, type):
                obj.__init__ = self.wrap(name, obj.__init__)
            elif isinstance(owner, type):
                setattr(owner, path[-1], self.wrap(name, obj))
            else:
                wrapper = self.wrap(name, obj)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is obj:
                            setattr(module, key, wrapper)

    def report(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "absent": self.absent}
