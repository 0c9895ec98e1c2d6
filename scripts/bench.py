"""Before/after timings of two source trees, written as one JSON file.

    python3 scripts/bench.py --before OLD_TREE --after NEW_TREE --out BENCH.json

Each tree is a checkout root with `src/grasscy`.  Every measurement runs in
a fresh interpreter with PYTHONPATH=<tree>/src, and the two trees alternate
which goes first, so both see the same machine drift.  Recorded:

- per case and per pipeline stage, the in-process seconds of one
  `pipeline.run_case` at COUNT instantons, each stage timed by wrapping
  its `grasscy.pipeline` attribute (median over STAGE_RUNS processes),
  plus `qh.scalar_operator` for the five Grassmannians of the registry and
  for G(2,8) and G(3,7), the largest input `toric.DIM_BOUND` admits, and
  whether both trees give the same operators (their `dop_to_json`);
- the in-process seconds of each constant-term route in CT_CHILD
  (median over STAGE_RUNS processes), and whether both trees compute the
  same values on the routes they share, among them the mirror periods of
  the six registry cases to m <= 6 and m <= 10 by
  `laxmirror.mirror_period`;
- the in-process seconds of `toric.facets_and_reflexivity` on each of
  FACET_CASES (median over STAGE_RUNS processes), and whether both trees
  list the same facets;
- the wall time of `python -m grasscy.cli verify-all --count COUNT` (median
  and quartiles over CLI_RUNS processes), and whether its report is the
  same for both trees (`strip_seconds`);
- the wall time of `python -c "import grasscy.cli"` (median and quartiles
  over CLI_RUNS processes), the start-up every command pays;
- the in-process seconds of `import grasscy` plus `registry_load()` in a
  fresh interpreter (median and quartiles over CLI_RUNS processes), the
  set-up that perfbench's probe times;
- the wall time of one Tier-1 run of each tree.

Standard library only; the trees' own code is the only import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

STAGE_RUNS = 5
CLI_RUNS = 15
COUNT = 5

# One process: pipeline.run_case for every registry case, each stage timed
# by wrapping its grasscy.pipeline attribute; then the qh scalar operators.
# Prints {"times": {case: {stage: s}}, "operators": {shape: dop_to_json}}.
STAGE_CHILD = r"""
import json, sys, time
from grasscy import pipeline as pl
from grasscy.dop import dop_to_json
from grasscy.qh import scalar_operator
from grasscy.registry import registry_load

STAGES = {"a_series": "a_series", "factorial_trick": "phi", "pf_fit": "pf_fit",
          "frobenius": "frobenius", "mirror_map": "mirror_map", "yukawa_z": "yukawa_z",
          "yukawa_q": "yukawa_q", "extract_instantons": "instantons"}
t = {}

def timed(stage, fn):
    def wrapper(*args, **kw):
        t0 = time.perf_counter()
        res = fn(*args, **kw)
        t[stage] = time.perf_counter() - t0
        return res
    return wrapper

for attr, stage in STAGES.items():
    setattr(pl, attr, timed(stage, getattr(pl, attr)))
count = int(sys.argv[1])
out, ops = {}, {}
for name, rc in sorted(registry_load().items()):
    t.clear()
    pl.run_case(rc, count)
    out[name] = dict(t)
for k, n in [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (2, 8), (3, 7)]:
    t0 = time.perf_counter()
    op = scalar_operator(k, n)
    out[f"scalar_operator_G{k}{n}"] = {"scalar_operator": time.perf_counter() - t0}
    ops[f"G{k}{n}"] = dop_to_json(op, "q")
print(json.dumps({"times": out, "operators": ops}))
"""

# One process: the constant-term routes, each timed once, with their values.
# Prints {"times": {route: s}, "values": {route: [str]}}.
CT_CHILD = r"""
import json, time
from grasscy.laurent import laurent_pow_ct
from grasscy.laxmirror import canonical_gauge_coeffs, lax_operator, mirror_period, mirror_system, period_ct
from grasscy.registry import registry_load

def mirror_route(case, order):
    # sum_m CT(prod F_i^(l_i m)) z^m, F_i the sum of the vertex polynomials of
    # block J_i of the consecutive nef partition, in the canonical gauge at q = 1
    partition, start = [], 1
    for d in case.degrees:
        partition.append(tuple(range(start, start + d)))
        start += d
    ms = mirror_system(case.k, case.n, case.degrees, partition,
                       *canonical_gauge_coeffs(case.k, case.n, q=1))
    return lambda: mirror_period(ms, order).coeffs

L24 = lax_operator(2, 4, q=1, track_q=False)
CASES = sorted(registry_load().items())
ROUTES = {
    "laurent_pow_ct_G24_4d_le_20": lambda: [laurent_pow_ct(L24, 4 * d) for d in range(6)],
    "period_ct_G25_order_2": lambda: period_ct(lax_operator(2, 5), 1, 2).coeffs,
    "period_ct_G25_order_5": lambda: period_ct(lax_operator(2, 5), 1, 5).coeffs,
    "period_ct_G25_order_8": lambda: period_ct(lax_operator(2, 5), 1, 8).coeffs,
    "period_ct_G26_order_4": lambda: period_ct(lax_operator(2, 6), 1, 4).coeffs,
}
for order in (6, 10):
    for name, case in CASES:
        ROUTES[f"mirror_period_{name}_m_le_{order}"] = mirror_route(case, order)
times, values = {}, {}
for name, route in ROUTES.items():
    t0 = time.perf_counter()
    v = route()
    times[name] = time.perf_counter() - t0
    values[name] = [str(c) for c in v]
print(json.dumps({"times": times, "values": values}))
"""

# One process: the facets of Delta(k,n) for each (k, n) of the JSON list in
# argv[1], each timed once after Delta is built.
# Prints {"times": {case: s}, "values": {case: [reflexive, [m, c], ...]}}.
FACET_CHILD = r"""
import json, sys, time
from grasscy.toric import build_delta, facets_and_reflexivity

times, values = {}, {}
for k, n in json.loads(sys.argv[1]):
    delta = build_delta(k, n)
    t0 = time.perf_counter()
    facets, reflexive = facets_and_reflexivity(delta)
    times[f"G{k}{n}"] = time.perf_counter() - t0
    values[f"G{k}{n}"] = [reflexive] + [[list(m), str(c)] for m, c in facets]
print(json.dumps({"times": times, "values": values}))
"""
FACET_CASES = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (2, 8), (3, 7)]

# One fresh process: `import grasscy` plus `registry_load()`, timed from
# inside.  Prints the seconds.
SETUP_CHILD = r"""
import time
t = time.perf_counter()
import grasscy
grasscy.registry_load()
print(time.perf_counter() - t)
"""


def env_for(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run(cmd: list[str], tree: Path, ok: tuple[int, ...] = (0,)) -> tuple[float, str]:
    """Wall seconds and stdout of `cmd` in `tree`; any exit code outside
    `ok`, or a non-zero one in `ok` that printed nothing, stops the script
    with the child's output."""
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=tree, env=env_for(tree), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if res.returncode not in ok or (res.returncode and not res.stdout):
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {res.returncode}:\n"
                         f"{res.stdout[-2000:]}{res.stderr}")
    return wall, res.stdout


def quartiles(xs: list[float]) -> dict:
    xs = sorted(xs)
    if len(xs) < 2:
        return {"median": round(xs[0], 4), "q1": round(xs[0], 4), "q3": round(xs[0], 4), "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(xs)}


def strip_seconds(report: str) -> dict:
    """The verify-all report without its per-case `seconds`.  Reports today
    carry no timing, but a tree whose `RunReport` still timed its run
    prints one, and such a tree can be the --before side."""
    data = json.loads(report)
    for case in data["cases"]:
        case.pop("seconds", None)
    return data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    py = sys.executable

    stage_runs: dict = {side: [] for side in trees}
    qh_ops: dict = {side: [] for side in trees}
    ct_runs: dict = {side: [] for side in trees}
    facet_runs: dict = {side: [] for side in trees}
    cli_walls: dict = {side: [] for side in trees}
    import_walls: dict = {side: [] for side in trees}
    setups: dict = {side: [] for side in trees}
    reports: dict = {}
    for i in range(STAGE_RUNS):
        for side in (list(trees) if i % 2 == 0 else list(reversed(trees))):
            _, out = run([py, "-c", STAGE_CHILD, str(COUNT)], trees[side])
            staged = json.loads(out)
            stage_runs[side].append(staged["times"])
            qh_ops[side].append(staged["operators"])
            _, out = run([py, "-c", CT_CHILD], trees[side])
            ct_runs[side].append(json.loads(out))
            _, out = run([py, "-c", FACET_CHILD, json.dumps(FACET_CASES)], trees[side])
            facet_runs[side].append(json.loads(out))
    for i in range(CLI_RUNS):
        for side in (list(trees) if i % 2 == 0 else list(reversed(trees))):
            # exit 1 with a report is a verification mismatch, which the report
            # comparison shows; exit 1 without one (an error line) stops the script
            wall, out = run([py, "-m", "grasscy.cli", "verify-all", "--count", str(COUNT)],
                            trees[side], ok=(0, 1))
            cli_walls[side].append(wall)
            reports[side] = strip_seconds(out)
            wall, _ = run([py, "-c", "import grasscy.cli"], trees[side])
            import_walls[side].append(wall)
            _, out = run([py, "-c", SETUP_CHILD], trees[side])
            setups[side].append(float(out))

    result: dict = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "count": COUNT,
        "stage_runs": STAGE_RUNS,
        "cli_runs": CLI_RUNS,
        "verify_all_report_identical": reports["before"] == reports["after"],
        "qh_operators_identical": all(ops == qh_ops["before"][0]
                                      for side in trees for ops in qh_ops[side]),
        "stages": {},
        "stage_totals": {},
        "ct_routes_identical": all(r["values"][route] == ct_runs["before"][0]["values"][route]
                                   for side in trees for r in ct_runs[side]
                                   for route in ct_runs["before"][0]["values"]),
        "ct_routes_s": {side: {route: round(statistics.median(r["times"][route]
                                                               for r in ct_runs[side]), 5)
                               for route in ct_runs[side][0]["times"]}
                        for side in trees},
        "facet_routes_identical": all(r["values"][case] == facet_runs["before"][0]["values"][case]
                                      for side in trees for r in facet_runs[side]
                                      for case in facet_runs["before"][0]["values"]),
        "facet_routes_s": {side: {case: round(statistics.median(r["times"][case]
                                                                for r in facet_runs[side]), 5)
                                  for case in facet_runs[side][0]["times"]}
                           for side in trees},
        "verify_all_wall_s": {side: quartiles(cli_walls[side]) for side in trees},
        "import_wall_s": {side: quartiles(import_walls[side]) for side in trees},
        "setup_s": {side: quartiles(setups[side]) for side in trees},
    }
    cases = list(stage_runs["before"][0])
    for side in trees:
        per_case = {}
        for case in cases:
            per_case[case] = {
                stage: round(statistics.median(r[case][stage] for r in stage_runs[side]), 5)
                for stage in stage_runs[side][0][case]
            }
        result["stages"][side] = per_case
        totals: dict = {}
        for case_times in per_case.values():
            for stage, s in case_times.items():
                totals[stage] = round(totals.get(stage, 0.0) + s, 5)
        result["stage_totals"][side] = totals
    tier1 = {}
    for side in trees:
        wall, _ = run([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors"], trees[side])
        tier1[side] = round(wall, 1)
    result["tier1_wall_s"] = tier1
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({side: result["stage_totals"][side] for side in trees}, indent=1))
    print(json.dumps(result["ct_routes_s"], indent=1))
    print(json.dumps(result["facet_routes_s"], indent=1))
    print(json.dumps(result["verify_all_wall_s"]))
    print(json.dumps(result["import_wall_s"]))
    print(json.dumps(result["setup_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
