"""Finitely supported Laurent polynomials: exponent vector -> rational."""

from __future__ import annotations

from dataclasses import dataclass

from .series import Q, qstr

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

    def max_reach(self) -> tuple[int, ...]:
        """Per coordinate, the largest |exponent| over all terms."""
        reach = [0] * self.nvars
        for e in self.terms:
            for c, x in enumerate(e):
                reach[c] = max(reach[c], abs(x))
        return tuple(reach)


def _mul_pruned(acc: dict, poly: LaurentPoly, bound: tuple[int, ...]) -> dict:
    """One convolution step, dropping exponents outside the box |e_c| <= bound_c."""
    out: dict = {}
    for e1, c1 in acc.items():
        for e2, c2 in poly.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if any(abs(x) > bx for x, bx in zip(e, bound)):
                continue
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def laurent_pow_pruned(L: LaurentPoly, m: int, param_box: tuple[int, ...] = ()) -> dict:
    """The terms of L**m that can matter for a constant term over the
    leading (torus) coordinates; the trailing len(param_box) coordinates
    are tracked parameters, each kept within its entry of param_box.

    Iterative convolution; after t factors, a torus exponent can still
    return to zero only if each coordinate is within (m - t) * max|exponent|,
    so anything outside that box is pruned.
    """
    reach = L.max_reach()[: L.nvars - len(param_box)]
    acc = {(0,) * L.nvars: Q(1)}
    for t in range(m):
        remaining = m - t - 1
        acc = _mul_pruned(acc, L, tuple(remaining * r for r in reach) + param_box)
    return acc


def laurent_pow_ct(L: LaurentPoly, m: int) -> Q:
    """Constant term of L**m."""
    if m < 0:
        raise ValueError("power must be non-negative")
    return laurent_pow_pruned(L, m).get((0,) * L.nvars, ZERO)


def laurent_pow_ct_bruteforce(L: LaurentPoly, m: int) -> Q:
    """Oracle: full m-fold product, then coefficient extraction."""
    p = LaurentPoly.constant(L.nvars, 1)
    for _ in range(m):
        p = p * L
    return p.constant_term()


def laurent_to_json(L: LaurentPoly) -> dict:
    items = sorted(L.terms.items())
    return {"nvars": L.nvars, "terms": [{"exp": list(e), "c": qstr(c)} for e, c in items]}


def laurent_from_json(d: dict) -> LaurentPoly:
    return LaurentPoly(d["nvars"], {tuple(t["exp"]): Q(t["c"]) for t in d["terms"]})
