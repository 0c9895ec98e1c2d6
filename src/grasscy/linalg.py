"""Exact linear algebra over Q: one fraction-free elimination serves
solve, nullspace and rank."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .series import over_common_den

Q = Fraction


def _integer_row(r) -> list[int]:
    """The row scaled by the lcm of its denominators, then divided by the
    gcd of its entries: an integer row spanning the same line."""
    if all(type(x) is int for x in r):
        ints = list(r)
    else:
        ints, _ = over_common_den([Q(x) for x in r])
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form in integers: (m, pivots) with row i of
    m, divided by m[i][pivots[i]], equal to row i of the reduced row echelon
    form over Q; the rows past len(pivots) are zero.

    Fraction-free Gauss-Jordan on integer rows, each row divided by its
    content after every update.  The reduced row echelon form is unique,
    so everything read off it is too.
    """
    m = [_integer_row(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[Q]]) -> list[list[Q]]:
    """Basis of the right nullspace of the matrix: one vector per free
    column f, with 1 at f, 0 at the other free columns."""
    if not rows:
        return []
    n = len(rows[0])
    m, pivots = echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [Q(0)] * n
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = Q(-m[i][f], m[i][p])
        basis.append(v)
    return basis


def solve(rows: list[list[Q]], rhs: list[Q]) -> list[Q] | None:
    """The solution of A x = b with every free variable 0, or None if the
    system is inconsistent."""
    if not rows:
        return []
    n = len(rows[0])
    m, pivots = echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for i, p in enumerate(pivots):
        x[p] = Q(m[i][n], m[i][p])
    return x


def rank(rows: list[list[Q]]) -> int:
    return len(echelon(rows)[1])
