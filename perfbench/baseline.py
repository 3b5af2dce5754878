#!/usr/bin/env python3
"""Records a baseline: every workload run on several seeds, untraced and
traced, with each metric's median, quartiles and run-to-run spread.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --traced 3 --out perfbench/baseline.json

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles(values, n=4)) as a share of
their median. A later change is compared against the medians recorded
here, measured on the same machine.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ["cold-shp2", "churn-serve", "dist-bsp"]


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-3000:]}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {time.time() - start:.1f} s wall, "
          f"{out['attempted']} attempted, {out['failed']} failed", file=sys.stderr, flush=True)
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize(outs):
    values = {}
    for out in outs:
        for name, m in out["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    summary = {}
    for name, (unit, vs) in sorted(values.items()):
        med = statistics.median(vs)
        entry = {"unit": unit, "median": med, "values": vs}
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        summary[name] = entry
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload, seeds 1..runs")
    ap.add_argument("--traced", type=int, default=3, help="traced runs per workload, seeds 1..traced")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()

    result = {
        "machine": {"platform": platform.platform(), "cpu": cpu_model(),
                    "cpus": len(os.sched_getaffinity(0))},
        "seconds": args.seconds,
        "workloads": {},
    }
    for w in args.workloads.split(","):
        untraced = [run(w, s, args.seconds, 0) for s in range(1, args.runs + 1)]
        traced = [run(w, s, args.seconds, 1) for s in range(1, args.traced + 1)]
        result["workloads"][w] = {
            "failed": sum(o["failed"] for o in untraced + traced),
            "end_to_end": summarize(untraced),
            "per_layer": summarize(traced),
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for w, r in result["workloads"].items():
        for name, e in r["end_to_end"].items():
            print(f"{w:12} {name:14} median {e['median']:.5g} {e['unit']:14} spread {e.get('spread', 0):.4f}")


if __name__ == "__main__":
    main()
