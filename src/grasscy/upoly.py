"""Dense univariate polynomials, coefficient of q^i at index i.  Integer
coefficients stay integers under +, x and exact division, which is what the
quantum differential system and the certificate of its scalar operator work
in."""

from __future__ import annotations

from .errors import Mismatch

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


def ptheta(a: Poly) -> Poly:
    """q d/dq."""
    return pnorm(i * x for i, x in enumerate(a))
