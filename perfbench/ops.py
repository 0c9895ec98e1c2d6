"""One benchmark operation, run in a fresh interpreter.

    python3 perfbench/ops.py --workload crosscheck --order "laurent;qh:2,4" [--trace FILE]

Prints the operation's deterministic outputs as JSON on stdout; the
benchmark (run.py) checks them against the recorded reference.  With
--trace the spans of the operation are written to FILE as JSON when it
ends.  `verify_all` runs here only when traced: untraced, run.py runs
the real command line, `python3 -m grasscy.cli verify-all`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from math import comb, factorial

QH_CASES = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6)]
QH_ORDER = 20
LAURENT_DEGREES = 5  # CT(L^(4d)) for d <= 5
PERIOD_ORDER = 2
TORIC_CASES = [(2, 4), (2, 5), (2, 6)]

# crosscheck sub-checks, in registry order; the seed permutes them
CROSS_TASKS = ([f"qh:{k},{n}" for k, n in QH_CASES] + ["laurent", "period"]
               + [f"toric:{k},{n}" for k, n in TORIC_CASES])

ORDERS = {"crosscheck": CROSS_TASKS, "verify_all": []}


def verify_all(order) -> tuple[str, int]:
    """grasscy verify-all with default arguments, in-process; returns the
    printed report and the exit code."""
    from grasscy import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify-all"])
    return buf.getvalue(), rc


def crosscheck(order) -> tuple[str, int]:
    from grasscy import hypergeom, laurent, laxmirror, qh, toric
    from grasscy.dop import dop_to_json
    from grasscy.series import qstr

    out: dict = {"qh": {}, "toric": {}}
    for task in order:
        kind, _, kn = task.partition(":")
        if kind == "qh":
            k, n = map(int, kn.split(","))
            op = qh.scalar_operator(k, n)
            rep = qh.verify_conjecture(k, n, QH_ORDER, operator=op)
            out["qh"][kn] = {"operator": dop_to_json(op, "q"), "residual_zero": rep.passed,
                             "indicial_unique": rep.indicial_unique}
        elif kind == "laurent":
            a = hypergeom.a_series_qspecialized(2, 4, LAURENT_DEGREES)
            L = laxmirror.lax_operator(2, 4, q=1, track_q=False)
            out["laurent"] = [
                {"d": d, "ct": qstr(laurent.laurent_pow_ct(L, 4 * d)),
                 "expected": qstr(factorial(4 * d) * a.coeffs[d])}
                for d in range(LAURENT_DEGREES + 1)
            ]
        elif kind == "period":
            ps = laxmirror.period_ct(laxmirror.lax_operator(2, 5), 1, PERIOD_ORDER)
            a = hypergeom.a_series_qspecialized(2, 5, PERIOD_ORDER)
            out["period"] = {
                "coeffs": [qstr(c) for c in ps.coeffs],
                "expected": [qstr(factorial(5 * d) * a.coeffs[d]) for d in range(PERIOD_ORDER + 1)],
            }
        elif kind == "toric":
            k, n = map(int, kn.split(","))
            facets, reflexive = toric.facets_and_reflexivity(toric.build_delta(k, n))
            out["toric"][kn] = {"facets": len(facets), "reflexive": reflexive,
                                "binomial": comb(n, k)}
        else:
            raise ValueError(f"unknown crosscheck task {task!r}")
    return json.dumps(out, sort_keys=True), 0


RUNNERS = {"verify_all": verify_all, "crosscheck": crosscheck}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--order", required=True, help="cases or tasks to run, ';'-separated")
    p.add_argument("--trace", default=None, help="write the operation's spans to this file")
    args = p.parse_args(argv)
    order = args.order.split(";") if args.order else []

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(op_id=os.getpid())  # one operation per process
        tracer.install()
    try:
        text, rc = RUNNERS[args.workload](order)
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(args.trace, "w") as fh:
                json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
