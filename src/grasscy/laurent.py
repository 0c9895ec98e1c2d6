"""Finitely supported Laurent polynomials: exponent vector -> rational."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import add, le

from .series import Q, qstr, require_keys

ZERO = Q(0)


@dataclass(frozen=True)
class LaurentPoly:
    nvars: int
    terms: dict  # tuple[int, ...] of length nvars -> Fraction

    def __post_init__(self):
        clean = {}
        for e, c in self.terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.nvars:
                raise ValueError(f"exponent vector {e} has wrong length (want {self.nvars})")
            c = Q(c)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: Q(c)})

    @classmethod
    def monomial(cls, nvars: int, exp, c=1) -> "LaurentPoly":
        return cls(nvars, {tuple(exp): Q(c)})

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.nvars != other.nvars:
                raise ValueError("nvars mismatch")
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, ZERO) + c1 * c2
            return LaurentPoly(self.nvars, out)
        c = Q(other)
        return LaurentPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, exp) -> Q:
        return self.terms.get(tuple(exp), ZERO)

    def constant_term(self) -> Q:
        return self.terms.get((0,) * self.nvars, ZERO)


def _times(acc: dict, terms: list, lo: tuple, hi: tuple) -> dict:
    """acc * P in integers, keeping the exponents inside the box lo <= e <= hi."""
    out: dict = {}
    for e1, c1 in acc.items():
        for e2, c2 in terms:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c and all(map(le, lo, e)) and all(map(le, e, hi))}


def ct_by_param_degree(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """Constant terms of L**m for every m in powers, over the leading
    (torus) coordinates, collected by the exponents of the trailing nparams
    coordinates (tracked parameters, non-negative, each kept <= bound):
    m -> {parameter-degree tuple -> coefficient}, zeros left out.

    One sweep, meet in the middle: with a = m // 2 and b = m - a,
    CT(L^m) = sum_e [L^a]_e [L^b]_(-e) over torus parts e.  L^t is built
    once for t up to ceil(M / 2), M the largest power, pruned to what the
    M - t factors left can cancel, which covers every smaller m too; only
    the two newest powers are kept.  The products run in integers on
    P = D L, D the lcm of L's denominators: L^m = P^m / D^m.
    """
    powers = set(powers)
    if any(m < 0 for m in powers):
        raise ValueError("power must be non-negative")
    top = max(powers, default=0)
    nv = L.nvars - nparams
    den = lcm(*(c.denominator for c in L.terms.values()))
    terms = [(e, c.numerator * (den // c.denominator)) for e, c in L.terms.items()]
    # per factor a torus coordinate moves by at most +up / -down, so after t
    # factors it must lie where the M - t factors left can bring it back to 0
    up = [max([0] + [e[c] for e in L.terms]) for c in range(nv)]
    down = [max([0] + [-e[c] for e in L.terms]) for c in range(nv)]

    def box(left: int) -> tuple[tuple, tuple]:
        return (tuple(-left * u for u in up) + (0,) * nparams,
                tuple(left * d for d in down) + (bound,) * nparams)

    result: dict = {}
    half = other = {(0,) * L.nvars: 1}  # L^a and L^b for the current m
    for m in range(top + 1):
        if m % 2:  # b = a + 1 is one power past the last
            half, other = other, _times(other, terms, *box(top - m // 2 - 1))
        else:
            half = other
        if m not in powers:
            continue
        by_torus: dict = {}
        for e, c in other.items():
            by_torus.setdefault(e[:nv], []).append((e[nv:], c))
        out: dict = {}
        for e, c1 in half.items():
            for t2, c2 in by_torus.get(tuple(-x for x in e[:nv]), ()):
                t = tuple(map(add, e[nv:], t2))
                if all(x <= bound for x in t):
                    out[t] = out.get(t, 0) + c1 * c2
        scale = den**m
        result[m] = {t: Q(c, scale) for t, c in out.items() if c}
    return result


def laurent_pow_ct(L: LaurentPoly, m: int) -> Q:
    """Constant term of L**m."""
    return ct_by_param_degree(L, {m})[m].get((), ZERO)


def laurent_to_json(L: LaurentPoly) -> dict:
    items = sorted(L.terms.items())
    return {"nvars": L.nvars, "terms": [{"exp": list(e), "c": qstr(c)} for e, c in items]}


def laurent_from_json(d: dict) -> LaurentPoly:
    require_keys(d, ("nvars", "terms"), "Laurent polynomial")
    return LaurentPoly(d["nvars"], {tuple(t["exp"]): Q(t["c"]) for t in d["terms"]})
