from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscy.linalg import nullspace, rank, solve
from grasscy.upoly import (
    PZERO,
    InexactDivision,
    padd,
    pdivexact,
    pmul,
    pnorm,
)

import support
from support import pdivmod, pgcd

rationals = support.rationals(20, 10)


def test_solve_simple():
    rows = [[Q(1), Q(1)], [Q(1), Q(-1)]]
    x = solve(rows, [Q(3), Q(1)])
    assert x == [Q(2), Q(1)]


def test_solve_inconsistent():
    rows = [[Q(1), Q(1)], [Q(2), Q(2)]]
    assert solve(rows, [Q(1), Q(3)]) is None
    assert solve([[Q(0), Q(0)]], [Q(1)]) is None


def test_solve_singular():
    rows = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)], [Q(0), Q(1), Q(1)]]
    for rhs in ([Q(1), Q(3), Q(0)], [Q(1), Q(2), Q(1)]):
        assert solve(rows, rhs) == rref_solve(rows, rhs)
    assert solve(rows, [Q(1), Q(2), Q(1)]) == [Q(-1), Q(1), Q(0)]  # free x3 = 0
    assert solve([[Q(0), Q(0)]], [Q(0)]) == [Q(0), Q(0)]


def test_nullspace_known():
    rows = [[Q(1), Q(2), Q(3)]]
    basis = nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert sum(a * b for a, b in zip(rows[0], v)) == 0


def test_rank():
    assert rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert rank([[Q(1), Q(0)], [Q(0), Q(1)]]) == 2
    assert rank([[Q(0), Q(0)]]) == 0 and rank([]) == 0


def rref_nullspace(rows):
    """The nullspace basis read off the Fraction rref: 1 at each free
    column, minus that column of the reduced rows at the pivots."""
    n = len(rows[0])
    m, pivots = support.rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(v)
    return basis


@settings(max_examples=200)
@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), rationals), max_size=2),
)
def test_nullspace_vectors_annihilate(rows, combos):
    rows = [[Q(x) for x in r] for r in rows]
    # dependent rows: row a plus c times row b
    for a, b, c in combos:
        if a < len(rows) and b < len(rows):
            rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    basis = nullspace(rows)
    assert basis == rref_nullspace(rows)
    for v in basis:
        assert any(x != 0 for x in v)
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def rref_solve(rows, rhs):
    """The solution with every free variable 0 read off the Fraction rref of
    [A | b], or None when b is a pivot column."""
    n = len(rows[0])
    m, pivots = support.rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for r, p in enumerate(pivots):
        x[p] = m[r][n]
    return x


@settings(max_examples=200)
@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), rationals), max_size=2),
    st.lists(rationals, min_size=5, max_size=5),
)
def test_solve_and_rank_match_rref(rows, combos, rhs):
    """Singular systems come from dependent rows; such a system with an
    arbitrary right-hand side is mostly inconsistent."""
    rows = [[Q(x) for x in r] for r in rows]
    for a, b, c in combos:
        if a < len(rows) and b < len(rows):
            rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    rhs = rhs[: len(rows)]
    assert rank(rows) == len(support.rref(rows)[1])
    assert solve(rows, rhs) == rref_solve(rows, rhs)
    consistent = [sum(r, Q(0)) for r in rows]  # b = A (1, 1, 1)
    assert solve(rows, consistent) == rref_solve(rows, consistent)


@settings(max_examples=200)
@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
)
def test_solve_satisfies_system(rows, x):
    rows = [[Q(v) for v in r] for r in rows]
    rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    sol = solve(rows, rhs)
    assert sol is not None
    assert [sum(a * b for a, b in zip(r, sol)) for r in rows] == rhs


# -- univariate polynomials ---------------------------------------------------


def P(*cs):
    return pnorm(tuple(Q(c) for c in cs))


def test_poly_divmod():
    # (x^2 - 1) / (x - 1) = x + 1
    q, r = pdivmod(P(-1, 0, 1), P(-1, 1))
    assert q == P(1, 1) and r == PZERO


def test_poly_gcd_monic():
    g = pgcd(P(-1, 0, 1), P(1, 1))
    assert g == P(1, 1)


@settings(max_examples=200)
@given(
    st.lists(rationals, min_size=1, max_size=4),
    st.lists(rationals, min_size=1, max_size=4),
)
def test_divmod_identity(a, b):
    a, b = pnorm(tuple(a)), pnorm(tuple(b))
    if b == PZERO:
        return
    q, r = pdivmod(a, b)
    assert padd(pmul(q, b), r) == a
    assert len(r) < len(b) or r == PZERO


def test_pdivexact():
    # (q^2 - 1) / (q - 1) = q + 1, with integer coefficients throughout
    quo = pdivexact((-1, 0, 1), (-1, 1))
    assert quo == (1, 1) and all(type(c) is int for c in quo)
    with pytest.raises(InexactDivision):  # remainder 2
        pdivexact((1, 0, 1), (-1, 1))
    with pytest.raises(InexactDivision):  # quotient q/2 is not in Z[q]
        pdivexact((0, 1), (2,))
    with pytest.raises(InexactDivision):  # divisor of higher degree
        pdivexact((3,), (0, 1))


ints = st.integers(min_value=-50, max_value=50)


@settings(max_examples=200)
@given(st.lists(ints, max_size=5), st.lists(ints, min_size=1, max_size=4))
def test_pdivexact_inverts_pmul(a, b):
    a, b = pnorm(a), pnorm(b)
    if b == PZERO:
        return
    quo = pdivexact(pmul(a, b), b)
    assert quo == a and all(type(c) is int for c in quo)
    if len(b) > 1 or abs(b[0]) > 1:
        with pytest.raises(InexactDivision):
            pdivexact(padd(pmul(a, b), (1,)), b)
