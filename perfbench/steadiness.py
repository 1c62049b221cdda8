#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/steadiness.py --workloads reload-churn --seeds 1-10

For every workload and metric it prints the median of the runs and the
spread: the distance between the first and third quartile (Python's
statistics.quantiles, n=4) as a share of the median. Run it from the
checkout root; it reads the command and run length from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def machine_probe():
    """Times a fixed single-threaded loop, in ms: a rough gauge of how
    fast the machine ran next to each benchmark run."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma list; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--json", help="also write the raw results here")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for w in names:
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(secs), "--trace", str(args.trace)]
            probe = machine_probe()
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                sys.exit(f"{w} seed {s}: exit {p.returncode}")
            r = json.loads(p.stdout.strip().splitlines()[-1])
            if not r["correct"]:
                sys.exit(f"{w} seed {s}: incorrect")
            r["wall_s"] = wall
            r["probe_ms"] = probe
            runs.append(r)
            vals = " ".join(f"{m}={v['value']:.4g}" for m, v in sorted(r["metrics"].items()))
            print(f"{w} seed {s}: {wall:.1f}s probe={probe:.0f}ms attempted={r['attempted']} failed={r['failed']} {vals}", flush=True)
        raw[w] = runs
        print(f"\n{w}: {len(runs)} runs")
        for m in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(m)
            flag = ""
            if bound is not None and m != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO NOISY")
            print(f"  {m:38s} median {med:14.4f}  spread {spread:7.4f}  {flag}")
        print(flush=True)
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
