"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/record_reference.py

Runs one operation of each workload, checks it against facts that do not
depend on the recording (published instanton tables, the
quantum-cohomology operators of acceptance criterion 4, (4d)! a_d,
(5d)! a_d, reflexive polytopes with C(n,k) facets), and writes
perfbench/reference/<workload>.json.  The references in the repository were
recorded at the seed commit; results must stay bit-identical, so a change
that needs new references is a change in behaviour.
"""

from __future__ import annotations

import json
import sys

import check
import run


def criterion_4_forms() -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from grasscy.dop import DOp, dop_to_json

    D, z = DOp.D(), DOp.z()
    forms = {
        "2,4": D**5 - 2 * z * (2 * D + 1),
        "2,5": D**7 * (D - 1) ** 3 - z * D**3 * (11 * D * D + 11 * D + 3) - z * z,
        "2,6": D**9 * (D - 1) ** 5
        - z * D**5 * (2 * D + 1) * (13 * D * D + 13 * D + 4)
        - 3 * z * z * (3 * D + 4) * (3 * D + 2),
        "3,6": D**10 * (D - 1) ** 4
        - z * D**4 * (65 * D**4 + 130 * D**3 + 105 * D**2 + 40 * D + 6)
        + 4 * z * z * (4 * D + 3) * (4 * D + 5),
    }
    return {kn: dop_to_json(op.canonical(), "q") for kn, op in forms.items()}


def main() -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        result = run.spawn(run.op_cmd(workload, run.ops.ORDERS[workload]), run.RUN_CAP_S)
        if result.returncode != 0:
            print(f"{workload}: exit {result.returncode}\n{result.stderr}", file=sys.stderr)
            return 1
        out = check.normalize(workload, json.loads(result.stdout))
        problems = check.INVARIANTS[workload](out)
        if workload == "crosscheck":
            for kn, form in criterion_4_forms().items():
                if out["qh"][kn]["operator"] != form:
                    problems.append(f"qh {kn}: operator differs from the criterion-4 form")
        if problems:
            print(f"{workload}: not recorded: {problems}", file=sys.stderr)
            return 1
        path = check.REFERENCE_DIR / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {result.wall_s:.2f} s, wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
