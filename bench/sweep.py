"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --seeds N [--trace] [--out FILE]

Runs bench/run.py once per workload of BENCHMARK.json and seed 1..N, one
run at a time, for run_seconds, and prints per end-to-end metric the
median, the quartiles and the spread (third minus first quartile, as a
share of the median).  With --trace it adds one traced run per workload
on seed 1.  --out writes every run's metrics and fingerprints, so that
two sweeps can be compared number by number.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return {"details": json.loads(lines[-2])["details"],
            "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    seconds = cfg["run_seconds"]
    seeds = range(1, args.seeds + 1)
    report = {}
    for workload in (w["name"] for w in cfg["workloads"]):
        runs = []
        for seed in seeds:
            run = one_run(workload, seed, seconds, False)
            provenance = run["details"]["provenance"]
            runs.append({"seed": seed, "correct": run["result"]["correct"],
                         "failed": run["result"]["failed"],
                         "metrics": {k: v["value"] for k, v
                                     in run["result"]["metrics"].items()},
                         "fingerprint": run["details"]["fingerprint"]})
            print(workload, seed, json.dumps(runs[-1]["metrics"]),
                  file=sys.stderr)
        summary = {name: summarize([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        entry = {"provenance": provenance, "summary": summary, "runs": runs}
        print(f"\n{workload}: {len(runs)} runs, "
              f"{sum(not r['correct'] for r in runs)} not correct")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-"
            print(f"  {name:14s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}")
        if args.trace:
            traced = one_run(workload, seeds[0], seconds, True)
            entry["traced"] = {
                "seed": seeds[0], "correct": traced["result"]["correct"],
                "absent": traced["details"]["absent"],
                "mismatches": traced["details"]["trace_mismatches"],
                "fingerprint": traced["details"]["trace_fingerprint"],
                "metrics": {k: v["value"] for k, v
                            in traced["result"]["metrics"].items()}}
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
