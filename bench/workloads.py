"""Workloads: inputs made from a seed, one session's operations, and the
checks every output must pass.

A session is one fresh process, like a user's: it imports the package,
builds the workload's fields, draws its inputs and then runs a fixed
list of operations back to back.  An operation fails when it raises
ContractionError or ValueError, or when an output misses the model's
own tolerance; failures are counted, never retried or re-drawn.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from contactfive import acs, charts, foliation, scenarios, solver

FAILURES = (getattr(solver, "ContractionError", RuntimeError), ValueError)
LOOKUP_RESIDUAL_TOL = 1e-6      # leaf lookup acceptance (test_09)

# exact counts read from returned objects; two runs of the same code and
# seed give the same values
FINGERPRINT = ("disk_solutions", "picard_iterations", "psi_invert_iterations",
               "lookup_iterations", "intersection_sign_sum",
               "scenario_passed")

SIN_BETA = {"builtin": "sin-beta", "params": {"eps": 0.01}}
COEFFS = {"coeffs": {"sigma": "0.02*x1*y1",
                     "beta": "0.01*sin(x1)*sin(y2)",
                     "gamma": "1 + 0.02*cos(x2)",
                     "delta": "0.2 + 0.01*t"}}


class Batch:
    """Timed operations of one session, their failures and exact counts."""

    def __init__(self):
        self.op_s: list[float] = []
        self.batch_s = 0.0              # operations plus timed set-up work
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprint = Counter({k: 0 for k in FINGERPRINT})

    def timed(self, fn, *args, **kwargs):
        """Program work that belongs to the batch but is no operation."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.batch_s += time.perf_counter() - t0

    def op(self, check, fn, *args, **kwargs) -> None:
        """Time fn(*args) as one operation, then check its result."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except FAILURES as exc:
            reasons = [f"{type(exc).__name__}: {exc}"]
        else:
            reasons = None
        elapsed = time.perf_counter() - t0
        self.op_s.append(elapsed)
        self.batch_s += elapsed
        if reasons is None:
            reasons = check(result, self.fingerprint)
        if reasons:
            self.failures.append("; ".join(reasons))

    def skip(self, reason: str) -> None:
        """An operation that cannot run because its input failed."""
        self.attempted += 1
        self.failures.append(reason)


def check_disk(sol, fp: Counter) -> list[str]:
    fp["disk_solutions"] += 1
    fp["picard_iterations"] += sol.iterations
    reasons = []
    if not sol.converged:
        reasons.append(f"disk solve not converged after {sol.iterations}")
    tol = sol.jinv_tolerance
    if not sol.jinv_residual <= tol:
        reasons.append(f"jinv_residual {sol.jinv_residual:.3g} > {tol:.3g}")
    return reasons


def check_lookup(res, fp: Counter) -> list[str]:
    fp["lookup_iterations"] += res.iterations
    fp["psi_invert_iterations"] += res.inversion.iterations
    reasons = check_disk(res.inversion.value.solution, fp)
    if not res.residual <= LOOKUP_RESIDUAL_TOL:
        reasons.append(f"lookup residual {res.residual:.3g}")
    return reasons


def check_scenario(point, fp: Counter) -> list[str]:
    if point.report.passed:
        fp["scenario_passed"] += 1
        return []
    return [f"{point.scenario}: failed {point.report.failed_hypotheses()}"]


def _stratified(seed: int, tag: int, dims: int, session: int, count: int):
    """Points [session * count, (session + 1) * count) of a low-discrepancy
    sequence drawn for the whole run, so that the run's inputs cover the
    query region evenly and its mean cost varies little from seed to seed.

    The sequence is the additive recurrence on the powers of the
    generalized golden ratio (Roberts' R_d), shifted by a random vector
    drawn from the seed (a Cranley-Patterson rotation)."""
    phi = 2.0
    for _ in range(50):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -np.arange(1.0, dims + 1)
    shift = np.random.default_rng([seed, tag]).random(dims)
    n = np.arange(session * count, (session + 1) * count)[:, None] + 1
    return (shift + n * alpha) % 1.0


def _polar_query(u) -> np.ndarray:
    """Query of the polar coverage campaign of test_09 from 5 uniforms."""
    zr = 0.15 + 0.55 * u[0]
    z = zr * np.exp(2j * np.pi * u[1])
    zeta = 0.7 * u[2] * zr * np.exp(2j * np.pi * u[3])
    return np.array([z.real, zeta.real, zeta.imag, z.imag,
                     -0.25 + 0.5 * u[4]])


def _parallel_query(u):
    """Query and direction chart of the parallel coverage campaign of
    test_09 from 7 uniforms."""
    z = (0.1 + 0.6 * u[0]) * np.exp(2j * np.pi * u[1])
    zeta = 0.5 * u[2] * np.exp(2j * np.pi * u[3])
    w = complex(-0.2 + 0.4 * u[4], -0.2 + 0.4 * u[5])
    q = np.array([z.real, zeta.real, zeta.imag, z.imag, -0.25 + 0.5 * u[6]])
    return q, w


# --- disk_sweep: fresh solves on big grids ----------------------------------

# per session and field: three solves at n = 65 and one each at 129 and
# 257.  Six of ten solves take ~0.05 s, so the median falls inside one
# mode; with one solve per size it would fall between the n = 129 solves
# of the two fields, which differ by 15 %.
SWEEP_SIZES = (65, 65, 65, 129, 257)


def disk_sweep_setup(seed: int, session: int):
    rng = np.random.default_rng([seed, session])
    fields = [acs.field_from_spec(SIN_BETA), acs.field_from_spec(COEFFS)]
    return [(n, field, rng.uniform(-0.3, 0.3, 5), rng.normal(size=4))
            for n in SWEEP_SIZES for field in fields]


def disk_sweep_run(inputs, batch: Batch) -> None:
    for n, field, p, v in inputs:
        batch.op(check_disk, solver.solve_disk, p, v, field,
                 solver.SolverConfig(n=n))


# --- leaf_lookup: many small solves per operation ---------------------------

# Polar lookups take 3 to 12 outer iterations (0.25-1.2 s) and parallel
# ones 2 (0.16 s).  A per-lookup quantile that falls among the polar
# lookups sits on those discrete levels and jumps from seed to seed, so
# one lookup in seven is polar: the median and the tail fall among the
# parallel lookups and the polar cost shows in ops_per_s.
LOOKUP_BLOCKS = 2
PARALLEL_PER_POLAR = 6


def leaf_lookup_setup(seed: int, session: int):
    field = acs.field_from_spec(SIN_BETA)
    polar = _stratified(seed, 1, 5, session, LOOKUP_BLOCKS)
    parallel = _stratified(seed, 2, 7, session,
                           PARALLEL_PER_POLAR * LOOKUP_BLOCKS)
    queries = []
    for k in range(LOOKUP_BLOCKS):
        queries.append(("polar", _polar_query(polar[k]), None))
        queries.extend(("parallel", *_parallel_query(u)) for u in
                       parallel[PARALLEL_PER_POLAR * k:
                                PARALLEL_PER_POLAR * (k + 1)])
    return field, queries


def leaf_lookup_run(inputs, batch: Batch) -> None:
    field, queries = inputs
    cfg = solver.SolverConfig(n=25)
    for kind, q, w in queries:
        if kind == "polar":
            batch.op(check_lookup, foliation.leaf_through_polar, q, field, cfg)
        else:
            batch.op(check_lookup, foliation.leaf_through_parallel, q,
                     charts.PlaneChart(w), field, cfg)


# --- leaf_intersect: leaf builds, then transversal disks and intersect ------

LEAVES = 4
PAIRS = 80


def leaf_intersect_setup(seed: int, session: int):
    rng = np.random.default_rng([seed, session])
    field = acs.field_from_spec(SIN_BETA)
    ws = [rng.uniform(0.0, 0.2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
          for _ in range(LEAVES)]
    pairs = []
    for k in range(PAIRS):
        rad = rng.uniform(0.15, 0.5)
        ang = rng.uniform(0, 2 * np.pi)
        t = rng.uniform(-0.25, 0.25)
        dw = rng.uniform(0.15, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        pairs.append((k % LEAVES, rad * np.cos(ang), rad * np.sin(ang), t, dw))
    return field, ws, pairs


def _pair(leaf, field, cfg, a, b, t, dw):
    p0 = leaf.point(a, b, t)
    v = charts.plane_vector_from_chart(charts.PlaneChart(leaf.X.w + dw),
                                       acs.j_matrices(field, p0))
    sol = solver.solve_disk(p0, v, field, cfg)
    return sol, foliation.intersect(leaf, sol.ambient_patch())


def leaf_intersect_run(inputs, batch: Batch) -> None:
    field, ws, pairs = inputs
    cfg = solver.SolverConfig(n=25)
    leaves = []
    for w in ws:
        try:
            leaf = batch.timed(foliation.build_polar_leaf, field,
                               charts.PlaneChart(w), t_max=0.3, t_count=5,
                               cfg=cfg)
        except FAILURES as exc:
            leaves.append((None, [f"leaf build: {type(exc).__name__}: {exc}"]))
            continue
        reasons = []
        for disk in leaf.disks:
            reasons += check_disk(disk, batch.fingerprint)
        leaves.append((leaf, [f"leaf disk: {r}" for r in reasons]))

    for k, a, b, t, dw in pairs:
        leaf, leaf_reasons = leaves[k]
        if leaf is None:
            batch.skip(leaf_reasons[0])
            continue

        def check(out, fp, leaf_reasons=leaf_reasons):
            sol, rec = out
            reasons = check_disk(sol, fp) + leaf_reasons
            if rec is None:
                reasons.append("intersect returned None")
            else:
                fp["intersection_sign_sum"] += rec.sign
                if rec.sign <= 0:
                    reasons.append(f"intersection sign {rec.sign}")
            return reasons

        batch.op(check, _pair, leaf, field, cfg, a, b, t, dw)


# --- scenario_campaign: forms and scenarios only, no solver -----------------

SCENARIO_POINTS = 1500


def scenario_campaign_setup(seed: int, session: int):
    rng = np.random.default_rng([seed, session])
    points = []
    for k in range(SCENARIO_POINTS):
        name = ("s5_point", "n5_point", "cy_levelset_point")[k % 3]
        if name == "n5_point":
            e1 = rng.normal(size=4)
            e1 /= np.linalg.norm(e1)
            e2 = rng.normal(size=4)
            e2 -= (e2 @ e1) * e1
            e2 /= np.linalg.norm(e2)
            points.append((name, np.concatenate([e1, e2])))
        else:
            points.append((name, rng.normal(size=6)))
    return points


def scenario_campaign_run(inputs, batch: Batch) -> None:
    for name, p in inputs:
        batch.op(check_scenario, getattr(scenarios, name), p)


@dataclass(frozen=True)
class Workload:
    setup: Callable             # (seed, session) -> inputs, in set-up time
    run: Callable               # (inputs, Batch) -> None


WORKLOADS = {
    "disk_sweep": Workload(disk_sweep_setup, disk_sweep_run),
    "leaf_lookup": Workload(leaf_lookup_setup, leaf_lookup_run),
    "leaf_intersect": Workload(leaf_intersect_setup, leaf_intersect_run),
    "scenario_campaign": Workload(scenario_campaign_setup,
                                  scenario_campaign_run),
}
