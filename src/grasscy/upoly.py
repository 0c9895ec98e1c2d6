"""Dense univariate polynomials, coefficient of q^i at index i.  Integer
coefficients stay integers under +, -, x and exact division, which is what
the fraction-free reduction of the quantum differential system works in;
pdivmod and pgcd work over Q."""

from __future__ import annotations

from fractions import Fraction

from .errors import Mismatch

Q = Fraction

Poly = tuple  # coefficient of q^i at index i; () is zero

PZERO: Poly = ()
PONE: Poly = (1,)


class InexactDivision(Mismatch):
    """A division that must be exact in Z[q] left a remainder."""


def pnorm(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return pnorm(out)


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, tuple(-x for x in b))


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return PZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return pnorm(out)


def pdivexact(a: Poly, b: Poly) -> Poly:
    """a / b for integer polynomials, raising InexactDivision unless the
    quotient lies in Z[q]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + len(b) - 1], lb)
        if rem:
            raise InexactDivision(f"{b} does not divide {a} in Z[q]")
        if c:
            q[i] = c
            for j, y in enumerate(b):
                r[i + j] -= c * y
    if any(r):
        raise InexactDivision(f"{b} does not divide {a} in Z[q]")
    return pnorm(q)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        if len(r) < i + len(b):
            continue
        c = Q(r[i + len(b) - 1]) / lb
        if c == 0:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return pnorm(q), pnorm(r)


def pgcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q; () when both are zero."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return tuple(x / Q(a[-1]) for x in a) if a else PZERO


def pshift(a: Poly, i: int) -> Poly:
    """Multiply by q^i."""
    if not a:
        return PZERO
    return (0,) * i + a


def ptheta(a: Poly) -> Poly:
    """q d/dq."""
    return pnorm(i * x for i, x in enumerate(a))
