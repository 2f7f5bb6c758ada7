#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload oneshot-n100 --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median of the runs, the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of that median, and the bound BENCHMARK.json gives it. Raw results
are appended to .bench_build/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)

    values = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(lines[-1])
        with open(os.path.join(".bench_build", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, "result": res}) + "\n")
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)

    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if share <= bound / 3 else ("  WIDE" if share <= bound else "  OVER"))
        print(f"{name:28s} median {med:12.6g}  iqr/median {share:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
