#!/usr/bin/env python3
"""Mark every per-layer count as exact or varying.

    python3 perfbench/audit_counts.py [--repeats 3] [--seeds 1 2]

Runs the traced run of every workload `repeats` times per seed (through
perfbench/run.py, from the repository root) and compares each per-layer
metric whose unit is not seconds across the runs of one seed.  A count that
reads the same on every run of every seed is "exact"; any other is
"varying" and must not carry a claim.  Writes perfbench/count_audit.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"audit: traced {workload} seed {seed} reported incorrect output")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # trace.* are properties of the measurement (times and their ratios).
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and not m["name"].startswith("trace.")]

    audit = {}
    for wl in (w["name"] for w in spec["workloads"]):
        values = {seed: [traced_run(wl, seed) for _ in range(args.repeats)]
                  for seed in args.seeds}
        audit[wl] = {}
        for name in counts:
            per_seed = {str(seed): [r[name]["value"] for r in runs] for seed, runs in values.items()}
            exact = all(len(set(v)) == 1 for v in per_seed.values())
            audit[wl][name] = {"status": "exact" if exact else "varying", "values": per_seed}
            print(f"{wl:16s} {name:28s} {audit[wl][name]['status']}", file=sys.stderr)

    doc = {
        "how": f"traced run of each workload, {args.repeats} times per seed "
               f"{args.seeds}; a count is exact when every run of a seed reads the same",
        "workloads": audit,
    }
    with open(os.path.join(HERE, "count_audit.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
