"""Dense univariate polynomials over Q and the rational functions built on
them.  Used for the quantum differential system reduction, where vector
entries are polynomials in q and the elimination happens over Q(q)."""

from __future__ import annotations

from fractions import Fraction

Q = Fraction

Poly = tuple  # tuple of Fractions, coefficient of q^i at index i; () is zero

PZERO: Poly = ()
PONE: Poly = (Q(1),)


def pnorm(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Q(x) for x in c)


def pdeg(a: Poly) -> int:
    return len(a) - 1  # -1 for zero


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return pnorm(out)


def pneg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return PZERO
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return pnorm(out)


def pscale(a: Poly, c) -> Poly:
    c = Q(c)
    if c == 0:
        return PZERO
    return tuple(x * c for x in a)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        if len(r) < i + len(b):
            continue
        c = r[i + len(b) - 1] / lb
        if c == 0:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return pnorm(q), pnorm(r)


def pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return PZERO
    return pscale(a, 1 / a[-1])  # monic


def pshift(a: Poly, i: int) -> Poly:
    """Multiply by q^i."""
    if not a:
        return PZERO
    return (Q(0),) * i + a


def ptheta(a: Poly) -> Poly:
    """q d/dq."""
    return pnorm(tuple(Q(i) * x for i, x in enumerate(a)))


class RatFunc:
    """num/den with den monic nonzero, reduced by gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = PONE):
        num, den = pnorm(num), pnorm(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = PZERO, PONE
            return
        g = pgcd(num, den)
        if pdeg(g) > 0:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        lc = den[-1]
        self.num = pscale(num, 1 / lc)
        self.den = pscale(den, 1 / lc)

    @classmethod
    def const(cls, c) -> "RatFunc":
        c = Q(c)
        return cls((c,) if c else PZERO)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, o):
        return RatFunc(padd(pmul(self.num, o.den), pmul(o.num, self.den)), pmul(self.den, o.den))

    def __sub__(self, o):
        return RatFunc(psub(pmul(self.num, o.den), pmul(o.num, self.den)), pmul(self.den, o.den))

    def __neg__(self):
        return RatFunc(pneg(self.num), self.den)

    def __mul__(self, o):
        return RatFunc(pmul(self.num, o.num), pmul(self.den, o.den))

    def __truediv__(self, o):
        if o.is_zero():
            raise ZeroDivisionError
        return RatFunc(pmul(self.num, o.den), pmul(self.den, o.num))

    def __eq__(self, o):
        return isinstance(o, RatFunc) and self.num == o.num and self.den == o.den

    def __repr__(self):
        return f"RatFunc({self.num}, {self.den})"
