"""Reference outputs, recorded at the seed commit, and the checks every
benchmark operation must pass.  Every check is exact."""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def normalize(workload: str, out):
    """The deterministic part of an operation's output: the verify-all
    report loses its per-case `seconds` timings."""
    if workload == "verify_all":
        out = dict(out, cases=[{k: v for k, v in c.items() if k != "seconds"}
                               for c in out["cases"]])
    return out


def first_difference(got, want, path: str = "") -> str | None:
    """Path of the first place where two JSON values differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}/{key}"
            d = first_difference(got[key], want[key], f"{path}/{key}")
            if d is not None:
                return d
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path} (length {len(got)} != {len(want)})"
        for i, (g, w) in enumerate(zip(got, want)):
            d = first_difference(g, w, f"{path}/{i}")
            if d is not None:
                return d
        return None
    if type(got) is not type(want) or got != want:
        return path or "/"
    return None


def _verify_all(out) -> list[str]:
    return [] if out.get("pass") is True else ["verify-all report says pass = false"]


def _crosscheck(out) -> list[str]:
    problems = []
    for kn, rep in sorted(out.get("qh", {}).items()):
        if not (rep.get("residual_zero") is True and rep.get("indicial_unique") is True):
            problems.append(f"qh {kn}: operator does not annihilate the series")
    for row in out.get("laurent", []):
        if row["ct"] != row["expected"]:
            problems.append(f"laurent d={row['d']}: CT {row['ct']} != (4d)! a_d {row['expected']}")
    period = out.get("period", {})
    if period.get("coeffs") != period.get("expected"):
        problems.append("period_ct coefficients != (5d)! a_d")
    for kn, rep in sorted(out.get("toric", {}).items()):
        if not (rep.get("reflexive") is True and rep.get("facets") == rep.get("binomial")):
            problems.append(f"toric {kn}: not reflexive with C(n,k) facets")
    return problems


INVARIANTS = {"verify_all": _verify_all, "crosscheck": _crosscheck}


def problems(workload: str, stdout: str, reference) -> list[str]:
    """Why an operation's printed output is wrong; empty when it passes."""
    try:
        out = normalize(workload, json.loads(stdout))
        found = INVARIANTS[workload](out)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return [f"output is not a {workload} report: {type(e).__name__}: {e}"]
    diff = first_difference(out, reference)
    if diff is not None:
        found.append(f"output differs from the reference at {diff}")
    return found
