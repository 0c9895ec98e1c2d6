"""Command-line front end.  Every subcommand prints a JSON report; exit
codes are 0 on success/pass, 1 when a check fails, 2 on bad input (see
grasscy.errors), 141 when the reader of stdout has exited.  Every truncation
order accepted on the command line is capped at hypergeom.MAX_ORDER."""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import contextmanager, redirect_stdout
from itertools import islice

from .dop import dop_to_json, pf_fit
from .errors import GrasscyError, UsageError
from .hypergeom import a_series, a_series_terms, check_order, check_param_bound, factorial_trick
from .laurent import laurent_from_json, laurent_to_json
from .laxmirror import canonical_gauge_coeffs, lax_operator, mirror_system, period_ct
from .mirror_analysis import yukawa_z
from .pipeline import INSTANTON_COUNT, KZ_ORDER, check_case, fit_operator, run_case
from .qh import NoDependence, scalar_operator, verify_conjecture
from .registry import registry_load
from .series import Q, qstr, series_from_json, series_to_json
from .toric import DIM_BOUND, binomial_equations, build_delta, check_degrees, facets_and_reflexivity

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

# order to which `qh-operator` certifies its operator against the A-series
QH_CHECK_ORDER = 20


@contextmanager
def _parsing(option: str, value):
    """Read and parse `value`, given with `option`, inside the block: a
    failure there is bad input, so it becomes a UsageError."""
    try:
        yield
    except GrasscyError:
        raise
    except (OSError, ValueError, LookupError, TypeError, ZeroDivisionError) as e:
        raise UsageError(f"bad {option} {value!r}: {type(e).__name__}: {e}") from e


def _parse_degrees(text: str) -> tuple[int, ...]:
    with _parsing("--degrees", text):
        degrees = tuple(int(x) for x in text.split(","))
    check_degrees(degrees, f"bad --degrees {text!r}")
    return degrees


def cmd_toric(args) -> dict:
    # the equations first: their Pluecker check refuses a Delta too large to list
    equations = binomial_equations(args.k, args.n)
    delta = build_delta(args.k, args.n)
    out = {
        "k": args.k,
        "n": args.n,
        "dim": delta.dim,
        "vertices": [
            {"label": list(lab), "vector": list(v)}
            for lab, v in zip(delta.labels, delta.vertices)
        ],
        "binomial_equations": [
            {"a": list(r["a"]), "b": list(r["b"]), "min": list(r["min"]), "max": list(r["max"])}
            for r in equations
        ],
    }
    if args.facets:
        facets, reflexive = facets_and_reflexivity(delta)
        out["facets"] = [{"normal": list(m), "c": qstr(c)} for m, c in facets]
        out["reflexive"] = reflexive
    return out


def cmd_aseries(args) -> dict:
    bound = args.param_bound
    if args.keep_params:
        return {
            "k": args.k,
            "n": args.n,
            "trunc": args.order,
            "nparams": (args.k - 1) * (args.n - args.k - 1),
            "terms": [
                {"m": m, "s": list(s), "c": qstr(c)}
                for (m, s), c in sorted(a_series_terms(args.k, args.n, args.order, bound).items())
            ],
        }
    if bound is not None:
        check_param_bound(bound)
        raise UsageError("a parameter degree bound needs keep_params: "
                         "the specialized series has no parameters")
    return series_to_json(a_series(args.k, args.n, args.order))


def cmd_phi(args) -> dict:
    degrees = _parse_degrees(args.degrees)
    return series_to_json(factorial_trick(a_series(args.k, args.n, args.order), degrees))


def cmd_pf_fit(args) -> dict:
    with _parsing("--series", args.series), open(args.series) as fh:
        f = series_from_json(json.load(fh))
    return dop_to_json(pf_fit(f, max_order=args.max_order, max_zdeg=args.max_degree), f.var)


def cmd_qh_operator(args) -> dict:
    op = scalar_operator(args.k, args.n)
    if not verify_conjecture(args.k, args.n, QH_CHECK_ORDER, operator=op).passed:
        raise NoDependence(f"computed operator for G({args.k},{args.n}) fails to annihilate "
                           f"the hypergeometric series to order {QH_CHECK_ORDER}")
    return dop_to_json(op, "q")


def cmd_verify_conjecture(args) -> dict:
    rep = verify_conjecture(args.k, args.n, args.order)
    return {
        "k": args.k,
        "n": args.n,
        "order": args.order,
        "operator": dop_to_json(rep.operator, "q"),
        "residual_zero": rep.passed,
        "indicial_unique": rep.indicial_unique,
        "pass": rep.passed and rep.indicial_unique,
    }


def _registry(args):
    with _parsing("--registry", args.registry):
        return registry_load(args.registry)


def _case(args):
    reg = _registry(args)
    if args.case not in reg:
        raise UsageError(f"unknown case {args.case!r}; have {sorted(reg)}")
    check_case(reg[args.case])
    return reg[args.case]


def cmd_yukawa(args) -> dict:
    check_order(args.order)
    case = _case(args)
    kz3 = yukawa_z(fit_operator(case), case.n0, args.order)
    fixture = case.kz3_fixture(args.order)
    ok = kz3 == fixture
    return {
        "case": args.case,
        "kz3": series_to_json(kz3),
        "fixture": series_to_json(fixture),
        "fixture_match": ok,
        "pass": ok,
    }


def cmd_instanton(args) -> dict:
    return run_case(_case(args), count=args.count).to_json()


def cmd_lax(args) -> dict:
    with _parsing("--q", args.q):
        q = None if args.q is None else Q(args.q)
    return laurent_to_json(lax_operator(args.r, args.s, q=q, track_q=q is None))


def cmd_period(args) -> dict:
    with _parsing("--poly", args.poly), open(args.poly) as fh:
        g = laurent_from_json(json.load(fh))
    return series_to_json(period_ct(g, 1, args.order))


def cmd_mirror_system(args) -> dict:
    degrees = _parse_degrees(args.degrees)
    with _parsing("--q", args.q):
        q = Q(args.q)
    a, b = canonical_gauge_coeffs(args.k, args.n, q=q)  # refuses a Delta past the cap
    if args.partition:
        with _parsing("--partition", args.partition):
            partition = tuple(tuple(int(x) for x in block.split(","))
                              for block in args.partition.split(";"))
    else:  # consecutive blocks of the degrees' sizes, drawn from 1..n alone
        labels = iter(range(1, args.n + 1))
        partition = tuple(tuple(islice(labels, d)) for d in degrees)
    ms = mirror_system(args.k, args.n, degrees, partition, a, b)
    return {
        "k": args.k,
        "n": args.n,
        "degrees": list(degrees),
        "partition": [list(J) for J in ms.partition],
        "polys": [laurent_to_json(p) for p in ms.polys],
        "equations": [laurent_to_json(e) for e in ms.equations],
    }


def cmd_verify_all(args) -> dict:
    reg = _registry(args)
    for case in reg.values():
        check_case(case)
    reports = [run_case(reg[name], count=args.count) for name in sorted(reg)]
    return {
        "cases": [r.to_json() for r in reports],
        "pass": all(r.passed for r in reports),
    }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageErrors, reported as one JSON
    line like every other bad input; its subparsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="grasscy", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("toric", help="polytope vertices, equations, facets")
    sp.add_argument("k", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--facets", action="store_true",
                    help="also list the facets <m_F, x> >= -1, one per up-set F of the "
                         "grid [k]x[n-k], m_F(i,j) = n[(i,j) in F] - (i+j-1), each certified "
                         "on the vertices; complete as Delta(k,n) is the polar of the grid's "
                         f"order polytope (Stanley 1986); C(n,k) <= DIM_BOUND = {DIM_BOUND}")
    sp.set_defaults(func=cmd_toric)

    sp = sub.add_parser("aseries", help="specialized hypergeometric series")
    sp.add_argument("k", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--order", type=int, default=20)
    sp.add_argument("--keep-params", action="store_true")
    sp.add_argument("--param-bound", type=int, default=None,
                    help="keep only terms of parameter degree <= this (needs --keep-params)")
    sp.set_defaults(func=cmd_aseries)

    sp = sub.add_parser("phi", help="factorially modified series")
    sp.add_argument("k", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--degrees", required=True)
    sp.add_argument("--order", type=int, default=20)
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("pf-fit", help="fit a differential operator to a series file")
    sp.add_argument("--series", required=True)
    sp.add_argument("--max-order", type=int, required=True)
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(func=cmd_pf_fit)

    sp = sub.add_parser("qh-operator", help="quantum-cohomology scalar operator")
    sp.add_argument("k", type=int)
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_qh_operator)

    sp = sub.add_parser("verify-conjecture", help="operator annihilates the series")
    sp.add_argument("k", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--order", type=int, default=QH_CHECK_ORDER)
    sp.set_defaults(func=cmd_verify_conjecture)

    sp = sub.add_parser("yukawa", help="Yukawa coupling in the z coordinate")
    sp.add_argument("--case", required=True)
    sp.add_argument("--order", type=int, default=KZ_ORDER)
    sp.add_argument("--registry", default=None)
    sp.set_defaults(func=cmd_yukawa)

    sp = sub.add_parser("instanton", help="full pipeline for one case")
    sp.add_argument("--case", required=True)
    sp.add_argument("--count", type=int, default=INSTANTON_COUNT)
    sp.add_argument("--registry", default=None)
    sp.set_defaults(func=cmd_instanton)

    sp = sub.add_parser("lax", help="Lax Laurent polynomial of G(r,s)")
    sp.add_argument("r", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("--q", default=None, help="fix q to this rational instead of tracking it")
    sp.set_defaults(func=cmd_lax)

    sp = sub.add_parser("period", help="constant-term period series of a Laurent polynomial file")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--order", type=int, default=12)
    sp.set_defaults(func=cmd_period)

    sp = sub.add_parser("mirror-system", help="complete-intersection mirror equations")
    sp.add_argument("k", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--degrees", required=True)
    sp.add_argument("--partition", default=None, help="blocks like 1;2,3;4,5")
    sp.add_argument("--q", default=1)
    sp.set_defaults(func=cmd_mirror_system)

    sp = sub.add_parser("verify-all", help="run every registry case")
    sp.add_argument("--count", type=int, default=INSTANTON_COUNT)
    sp.add_argument("--registry", default=None)
    sp.set_defaults(func=cmd_verify_all)

    return p


def main(argv=None) -> int:
    """Run one command line and return its exit code.  The command returns
    its report, written here once as JSON on stdout; the code is then 1 if
    the report says "pass": false, else 0.  `--help` prints its usage and
    gives 0.  A GrasscyError gives one JSON line on stderr and 2 for a
    UsageError, 1 otherwise.  A reader of stdout that has exited gives 141
    and nothing on stderr; any other failed write of stdout, a full disk
    say, gives one JSON line on stderr and 1.  The cap on the decimal digits
    of an int is lifted for the call alone."""
    if not hasattr(sys, "set_int_max_str_digits"):  # the cap came with Python 3.10.7
        return _run(argv)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(cap)


def _run(argv) -> int:
    usage = io.StringIO()  # --help's, written below: argparse ignores its own failed write
    try:
        with redirect_stdout(usage):
            args = build_parser().parse_args(argv)
        report = args.func(args)
    except SystemExit:  # --help, which has put its usage in `usage`
        report = None
    except GrasscyError as e:
        return _fail(e, EXIT_USAGE if isinstance(e, UsageError) else EXIT_MISMATCH)
    try:
        sys.stdout.write(usage.getvalue())
        if report is not None:
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        sys.stdout.flush()  # so that a failed write fails here, not at exit
    except OSError as e:
        # what is still buffered goes to devnull when the interpreter flushes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE if isinstance(e, BrokenPipeError) else _fail(e, EXIT_MISMATCH)
    return EXIT_MISMATCH if report and report.get("pass") is False else EXIT_PASS


def _fail(e: Exception, code: int) -> int:
    print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
    return code


def console() -> None:
    """The command's entry point, for `python -m grasscy.cli` and the
    installed `grasscy`: run `main`, and end the process at once with
    main's code.  Interpreter finalization (module teardown, the last
    collection, atexit handlers) is skipped: it takes longer than any stage
    of the default `verify-all` chain and does nothing a finished command
    needs.  An exception escaping `main`, an internal fault, ends the run
    the usual way, with its traceback."""
    code = main()
    try:
        sys.stderr.flush()
    except OSError:  # stderr is gone: the code stands
        pass
    os._exit(code)


if __name__ == "__main__":
    console()
