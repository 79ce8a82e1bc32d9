"""Run every workload over a range of seeds and summarize the runs.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/BENCH_0.json

Run from the root of an occkit checkout. Each workload runs untraced once
per seed, then traced once on the first seed, one process at a time. For
each end-to-end metric the summary holds the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json`` when that file is present. Runs last that file's
``run_seconds`` unless ``--seconds`` says otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(".perfbench_out", f"{workload}-{seed}-trace{trace}", "result.json")
    with open(path) as f:
        full = json.load(f)
    return {**last, "environment": full["environment"], "error_rate": full["error_rate"],
            "latency": full.get("latency"), "layers": full.get("layers")}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    bounds = {}
    workloads = []
    seconds = 30.0
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
    workloads = args.workload or workloads
    args.seconds = args.seconds or seconds

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "tail_percentiles": [r["latency"]["tail_percentile"] for r in runs],
            "metrics": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}"
              f"/{entry['attempted']}")
        for name, m in runs[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = m["unit"]
            entry["metrics"][name] = s
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:<16} median {s['median']:10.4f} {m['unit']:<9} "
                  f"spread {s['spread']:.4f}{note}")
        traced = run_once(workload, seeds[0], args.seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        summary["environment"] = runs[0]["environment"]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
