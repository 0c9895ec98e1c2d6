"""Run-to-run spread of the benchmark, from two sets of runs.

    python3 perfbench/spread.py --out perfbench/baseline.json

Runs every workload ten times with seeds 1..10 (set A), then every workload
ten times again with seeds 11..20 (set B), each run as long as
BENCHMARK.json's run_seconds.  For each set, workload and end-to-end metric
it reports the median of the run values and their spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  It also reports how far set B's median lies from set A's, as
a share of set A's.  One traced run per workload adds the per-layer medians
and trace.overhead_ratio.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
SETS = {"A": 1, "B": 1 + RUNS}  # set name -> first seed


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for set_name, first_seed in SETS.items():
        for workload in workloads:
            runs = [one_run(workload, first_seed + i, seconds, 0) for i in range(RUNS)]
            entry = summary["workloads"].setdefault(workload, {"sets": {}})
            entry["sets"][set_name] = {
                "seeds": [first_seed, first_seed + RUNS - 1],
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                               for name in bounds},
            }
            for name, s in entry["sets"][set_name]["end_to_end"].items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"set {set_name} {workload} {name}: median {s['median']:.6g} "
                      f"spread {spread} (bound {bounds[name]})", flush=True)

    for workload, entry in summary["workloads"].items():
        a, b = (entry["sets"][s]["end_to_end"] for s in SETS)
        entry["median_shift"] = {name: (b[name]["median"] - a[name]["median"]) / a[name]["median"]
                                 for name in bounds}
        for name, shift in entry["median_shift"].items():
            print(f"{workload} {name}: set B median vs set A {shift:+.4f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = one_run(workload, 1, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()
                              if m["value"] is not None}
        print(f"{workload} trace.overhead_ratio: "
              f"{entry['per_layer'].get('trace.overhead_ratio')}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
