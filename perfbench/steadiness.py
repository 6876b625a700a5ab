#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--traced N] [--out FILE]

For every workload it runs perfbench/run.py once per seed (seeds 1..runs)
and prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. With --traced N it also makes traced runs on the first N
seeds and reports the tracing overhead on throughput, CPU per tuple and p99
latency. Failed runs are reported and left out of the spreads.
With --out it writes the environment and the results as JSON.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    """Returns the run's metrics, or None (after printing why) if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if p.returncode != 0 or res is None or not res["correct"] or res["failed"]:
        print(f"  FAILED {workload} seed {seed} trace {trace} (exit {p.returncode}):")
        print("    " + "\n    ".join(l for l in p.stderr.splitlines() if "FAILED" in l or "perfbench:" in l))
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def environment():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "gomaxprocs": os.environ.get("GOMAXPROCS", "default (= nproc)"),
            "go": go, "os": platform.platform(), "parent_commit": commit}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = [w["name"] for w in manifest["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in names:
        print(f"{w}:")
        runs = [run_once(w, s, seconds, 0) for s in seeds]
        failed = [s for s, r in zip(seeds, runs) if r is None]
        runs = [r for r in runs if r is not None]
        entry = {"failed_seeds": failed}
        if len(runs) < 2:
            report["workloads"][w] = entry
            continue
        for m, bound in bounds.items():
            med, sp = spread([r[m] for r in runs])
            flag = "" if m == "setup_s" or sp <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {m:20s} median {med:12.4f}  spread {sp:7.2%}  bound {bound:.0%}{flag}")
            entry[m] = {"median": med, "spread": round(sp, 4), "bound": bound, "values": [r[m] for r in runs]}
        traced = [r for r in (run_once(w, s, seconds, 1) for s in seeds[:args.traced]) if r is not None]
        if traced:
            for m in ("throughput_tps", "cpu_us_per_tuple", "latency_p99_ms"):
                t = statistics.median(r["trace." + m] for r in traced)
                entry[m]["traced_median"] = t
                entry[m]["tracing_overhead"] = round(t / entry[m]["median"] - 1, 4)
                print(f"  tracing overhead on {m}: {t / entry[m]['median'] - 1:+.1%}")
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
