#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload it runs `bash gembench/run.sh` once per seed, reads the
JSON result line, and prints per metric the median, the quartiles and the
spread: the distance between the first and third quartile as a share of
the median (statistics.quantiles with n=4). Usage, from the repository
root:

    python3 gembench/spread.py [--workloads matrix,rw-deep,campaign]
        [--seeds 1-10] [--seconds 20] [--trace 0] [--out FILE.json]

--out writes the medians, quartiles, spreads and raw values as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "gembench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: incorrect result {lines[-1]}")
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="matrix,rw-deep,campaign")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        per_metric = {}
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            result = run_once(workload, seed, args.seconds, args.trace)
            elapsed = time.monotonic() - start
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        report[workload] = {}
        for name, m in sorted(per_metric.items()):
            s = summarize(m["values"])
            s["unit"] = m["unit"]
            report[workload][name] = s
            print(f"  {workload:9s} {name:24s} median {s['median']:12.5g} {m['unit']:6s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
