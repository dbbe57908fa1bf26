"""contactfive benchmark: one workload, one seed, every metric checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run is a sequence of sessions, each a
fresh process (bench/session.py) that imports the package from src/,
builds its inputs from (seed, session index) and sends its operations
back to back: one closed-loop caller, no threads of its own.  Every
session starts with an empty operator cache, as a user's does, and
measures its own set-up time and peak memory.

Every run makes the same planned sessions, so every commit is measured
on the same inputs; the plan is sized to take about S seconds at the
first baseline (BENCHMARK.json run_seconds).  --trace 0 reports the
end-to-end metrics.  --trace 1 runs the planned sessions twice,
untraced and then traced, and reports per-layer metrics with the
tracing overhead.

The last line of standard output is the result object; the line before
it holds details: tail percentile, failures, the exact-count
fingerprint and provenance.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import COUNTS, TRACED

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# workload: (sessions every run makes, tail percentile).  The sessions are
# sized so that an untraced run takes 20-25 s on a 2-core x86-64 host at
# the first baseline; a traced run takes twice as long.  The percentile is
# the highest of 75/90/95/99 with at least ten of the operations of those
# sessions beyond it, except on scenario_campaign: there p99 of
# sub-millisecond operations moves with host jitter, and p95 is taken.
PLAN = {"disk_sweep": (7, 75), "leaf_lookup": (6, 75),
        "leaf_intersect": (8, 95), "scenario_campaign": (14, 95)}
DEADLINE_S = 170.0

# exact counts of a traced run, inner solves included; two traced runs of
# the same code and seed give the same values
TRACE_FINGERPRINT = (
    "solver.picard_solve.calls", "solver.picard_iterations",
    "solver.EllipticOperator.calls", "solver.psi_invert.calls",
    "solver.psi_invert.iterations", "foliation.lookup_iterations",
    "foliation.intersection_sign_sum", "scenarios.passed")


class BenchError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_session(workload: str, seed: int, index: int, trace: bool,
                deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
           "--seed", str(seed), "--session", str(index),
           "--trace", str(int(trace)), "--spawned-at"]
    spawned = clock()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"session {index} passed the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"session {index} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ops_per_s(sessions: list[dict]) -> float:
    return (sum(len(s["op_s"]) for s in sessions)
            / sum(s["batch_s"] for s in sessions))


def end_to_end(sessions: list[dict], tail_p: float) -> dict:
    op_s = [t for s in sessions for t in s["op_s"]]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(len(s["failures"]) for s in sessions)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
        "ops_per_s": (ops_per_s(sessions), "1/s"),
        "op_s_p50": (statistics.median(op_s), "s"),
        "op_s_tail": (percentile(op_s, tail_p), "s"),
        "success_ratio": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]
                                          for s in sessions), "MB"),
    }


def fingerprint(sessions: list[dict]) -> dict:
    total = Counter()
    for s in sessions:
        total.update(s["fingerprint"])
    sizes = [s["operator_cache_size"] for s in sessions]
    total["operator_cache_size"] = None if None in sizes else sum(sizes)
    return dict(total)


def per_layer(plain: list[dict], traced: list[dict]):
    """Layer metrics summed over the traced sessions, the traced names
    that no longer exist, and every mismatch between traced counts and
    counts read from returned objects."""
    stats = {name: [0, 0.0, 0.0] for name in TRACED}
    counts = Counter()
    for s in traced:
        for name, values in s["trace"]["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], values)]
        counts.update(s["trace"]["counts"])
    absent = set(traced[0]["trace"]["absent"])

    metrics = {}
    for name, (calls, busy, own) in stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.self_s"] = (own, "s")
    for name in COUNTS:
        if name != "foliation.lookup_disk_solves":
            metrics[name] = (counts[name], "count")
    solves = stats["solver.picard_solve"][0]
    assemblies = stats["solver.EllipticOperator"][0]
    metrics["solver.operator_cache.hit_ratio"] = (
        1.0 - assemblies / solves if solves else 0.0, "1")
    lookups = (stats["foliation.leaf_through_polar"][0]
               + stats["foliation.leaf_through_parallel"][0])
    metrics["foliation.disk_solves_per_lookup"] = (
        counts["foliation.lookup_disk_solves"] / lookups if lookups else 0.0,
        "count")
    metrics["trace.overhead_ops_per_s"] = (
        ops_per_s(traced) - ops_per_s(plain), "1/s")

    mismatches = [f"session {k}: traced fingerprint {b['fingerprint']} "
                  f"!= untraced {a['fingerprint']}"
                  for k, (a, b) in enumerate(zip(plain, traced))
                  if a["fingerprint"] != b["fingerprint"]]
    fp = fingerprint(traced)

    def compare(trace_value, needs, object_value, equal):
        # a returned object comes from a traced call, so the traced count
        # equals the object count, or bounds it where the program makes
        # calls whose results it does not return
        if absent & set(needs):
            return
        bad = (trace_value != object_value) if equal else (
            trace_value < object_value)
        if bad:
            mismatches.append(f"traced {needs[0]}: {trace_value} "
                              f"{'!=' if equal else '<'} {object_value}")

    compare(counts["foliation.lookup_iterations"],
            ("foliation.leaf_through_polar",
             "foliation.leaf_through_parallel"),
            fp["lookup_iterations"], True)
    compare(counts["foliation.intersection_sign_sum"],
            ("foliation.intersect",), fp["intersection_sign_sum"], True)
    compare(counts["scenarios.passed"],
            ("scenarios.s5_point", "scenarios.n5_point",
             "scenarios.cy_levelset_point"), fp["scenario_passed"], True)
    compare(solves, ("solver.picard_solve",), fp["disk_solutions"], False)
    compare(counts["solver.picard_iterations"], ("solver.picard_solve",),
            fp["picard_iterations"], False)
    compare(counts["solver.psi_invert.iterations"], ("solver.psi_invert",),
            fp["psi_invert_iterations"], False)
    if fp["operator_cache_size"] is not None:
        compare(assemblies, ("solver.EllipticOperator",),
                fp["operator_cache_size"], False)
    return metrics, sorted(absent), mismatches


def provenance(session: dict) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(src)).encode() + b"\0" + data)
        lines += len(data.splitlines())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "src_files": len(files),
            "nproc": len(os.sched_getaffinity(0)),
            **session["versions"], "threads": session["threads"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLAN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "contactfive" / "__init__.py").is_file():
        print(f"no contactfive sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = clock() + DEADLINE_S
    sessions, tail_p = PLAN[args.workload]
    plain, traced = [], []
    try:
        for k in range(sessions):
            plain.append(run_session(args.workload, args.seed, k, False,
                                     deadline))
            if args.trace:
                traced.append(run_session(args.workload, args.seed, k, True,
                                          deadline))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    everything = plain + traced
    op_s = [t for s in plain for t in s["op_s"]]
    tail = percentile(op_s, tail_p)
    attempted = sum(s["attempted"] for s in everything)
    failures = [f for s in everything for f in s["failures"]]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sessions": len(everything), "operations": len(op_s),
        "tail_percentile": tail_p,
        "tail_samples_beyond": sum(t > tail for t in op_s),
        "failed": len(failures), "attempted": attempted,
        "failed_ratio": len(failures) / attempted,
        "failures": sorted(set(failures))[:10],
        "fingerprint": fingerprint(plain),
        "provenance": provenance(everything[0]),
    }
    if args.trace:
        metrics, absent, mismatches = per_layer(plain, traced)
        details.update(absent=absent, trace_mismatches=mismatches,
                       trace_fingerprint={k: metrics[k][0]
                                          for k in TRACE_FINGERPRINT})
    else:
        metrics, mismatches = end_to_end(plain, tail_p), []
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
