"""Run every workload over several seeds and summarise the spread.

From the repository root:

    python3 perfbench/baseline.py --seeds 10 --first-seed 100
    python3 perfbench/baseline.py --seeds 10 --write perfbench/baseline.json --label seed-tree

For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to a third of the metric's bound in BENCHMARK.json. With
``--write`` it also makes one traced run per workload and stores everything,
with the machine description, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")


def run_bench(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def finite(obj):
    """The object with NaN and infinities replaced by None (strict JSON)."""
    if isinstance(obj, dict):
        return {k: finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def spread(values) -> dict:
    med = statistics.median(values)
    q1, q3 = run.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "n": len(values),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--write", type=Path, help="baseline file to write")
    ap.add_argument("--label", default="", help="what was measured, stored in the file")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    result = {"label": args.label, "run_seconds": bench["run_seconds"], "seeds": seeds,
              "workloads": {}}
    steady = True
    for name in names:
        runs = [run_bench(bench, name, s, 0) for s in seeds]
        entry = {"failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
                 "all_correct": all(r["correct"] for r in runs), "end_to_end": {}}
        steady &= entry["all_correct"]
        print(f"{name}: failed_share {entry['failed_share']:.4f}")
        for m in bench["end_to_end"]:
            stats = spread([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = stats
            ok = m["name"] == "setup_s" or stats["iqr_share"] < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<12} median {stats['median']:10.4f} {m['unit']:<3} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread {stats['iqr_share']:.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}){'' if ok else '  <-- too wide'}", flush=True)
        if args.write:
            traced = run_bench(bench, name, seeds[0], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            record = json.loads((run.OUT / f"{name}-seed{seeds[0]}-trace1.json").read_text())
            for key in ("inputs", "work", "outputs", "accounting"):
                entry[key] = finite(record[key])
        result["workloads"][name] = entry
    if args.write:
        result["machine"] = {**run.machine_info(), "cpu": cpu_model()}
        args.write.write_text(json.dumps(result, indent=1, allow_nan=False) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
