"""Exact linear algebra over Q: solve, nullspace, rank."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction


def rref(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form (in place on a copy); returns (matrix, pivot columns)."""
    m = [list(map(Q, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _integer_rows(rows) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators, then divided by the
    gcd of its entries: integer rows with the same row space."""
    out = []
    for r in rows:
        r = [Q(x) for x in r]
        den = lcm(*(x.denominator for x in r))
        ints = [x.numerator * (den // x.denominator) for x in r]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def nullspace(rows: list[list[Q]], ncols: int | None = None) -> list[list[Q]]:
    """Basis of the right nullspace of the matrix: one vector per free
    column f, with 1 at f, 0 at the other free columns, read off the
    reduced row echelon form.

    The elimination is fraction-free Gauss-Jordan on integer rows with each
    row divided by its content after every update; since the reduced row
    echelon form is unique, the basis is the one `rref` gives.
    """
    if not rows:
        n = ncols or 0
        return [[Q(1) if j == i else Q(0) for j in range(n)] for i in range(n)]
    n = len(rows[0])
    m = _integer_rows(rows)
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(n):
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
    """One particular solution of A x = b, or None if inconsistent."""
    if not rows:
        return []
    n = len(rows[0])
    aug = [list(map(Q, r)) + [Q(b)] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Q(0)] * n
    for r, p in enumerate(pivots):
        x[p] = m[r][n]
    return x


def rank(rows: list[list[Q]]) -> int:
    return len(rref(rows)[1])
