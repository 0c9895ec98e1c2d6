"""`grasscy.series.Q`, the package's exact rational, against
`fractions.Fraction`: the same value, str, hash and comparisons for every
operation the package uses, with ints and Fractions on either side, and
strings read alike."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grasscy.series import Q, rational, series_from_json

BIG = 2**80  # past 2^64
numerators = st.integers(-BIG, BIG) | st.sampled_from([0, 1, -1])
pairs = st.tuples(numerators, st.integers(1, BIG) | st.just(1))

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


def outcome(op, *args):
    """op(*args), or the class of the ZeroDivisionError it raises."""
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def same(q, f):
    """q is a Q with f's reduced parts, str and hash, equal to f either way."""
    if f is ZeroDivisionError:
        assert q is ZeroDivisionError
        return
    assert type(q) is Q
    assert (q.numerator, q.denominator) == (f.numerator, f.denominator)
    assert str(q) == str(f) and hash(q) == hash(f)
    assert q == f and f == q and not q != f


@given(pairs)
def test_construction_matches_fraction(p):
    f = Fraction(*p)
    same(Q(*p), f)
    same(Q(f"{p[0]}/{p[1]}"), f)
    same(Q(Q(*p)), f)
    same(Q(f), f)
    same(Q(p[0]), Fraction(p[0]))
    same(Q(str(p[0])), Fraction(p[0]))
    assert hash(Q(p[0])) == hash(p[0]) and Q(p[0]) == p[0] and p[0] == Q(p[0])


@pytest.mark.parametrize("op", ARITHMETIC, ids=lambda op: op.__name__)
@given(a=pairs, b=pairs)
def test_arithmetic_matches_fraction(op, a, b):
    qa, qb, fa, fb, m = Q(*a), Q(*b), Fraction(*a), Fraction(*b), b[0]
    want = outcome(op, fa, fb)
    for x, y in ((qa, qb), (qa, fb), (fa, qb)):
        same(outcome(op, x, y), want)
    same(outcome(op, qa, m), outcome(op, fa, m))
    same(outcome(op, m, qa), outcome(op, m, fa))


@pytest.mark.parametrize("op", COMPARISONS, ids=lambda op: op.__name__)
@given(a=pairs, b=pairs)
def test_comparisons_match_fraction(op, a, b):
    qa, qb, fa, fb, m = Q(*a), Q(*b), Fraction(*a), Fraction(*b), b[0]
    want = op(fa, fb)
    assert op(qa, qb) is want and op(qa, fb) is want and op(fa, qb) is want
    assert op(qa, m) is op(fa, m) and op(m, qa) is op(m, fa)
    assert op(qa, qa) is op(fa, fa)


@given(pairs, st.integers(-3, 3))
def test_unary_operations_and_powers_match_fraction(p, e):
    q, f = Q(*p), Fraction(*p)
    same(-q, -f)
    same(abs(q), abs(f))
    assert int(q) == int(f) and type(int(q)) is int
    assert bool(q) is bool(f)
    same(outcome(operator.pow, q, e), outcome(operator.pow, f, e))
    same(outcome(operator.pow, q, Q(e)), outcome(operator.pow, f, e))


def test_equal_values_are_one_dict_key():
    table = {Q(1, 2): "half", Q(3): "three"}
    assert table[Fraction(1, 2)] == "half" and table[3] == "three" and table[Fraction(3)] == "three"


def test_floats_do_not_mix():
    with pytest.raises(TypeError):
        Q(1, 2) + 0.5
    assert Q(1, 2) != 0.5


STRINGS = ["3/4", "-3/4", " 3/4 ", "+3", "3/-4", "1.5", "1e2", "1_0", "abc", "1/0",
           "", "-", "-0", "007/014", "1/2/3", "3/", "١٢"]


@pytest.mark.parametrize("text", STRINGS)
def test_strings_are_read_as_fraction_reads_them(text):
    """The same value, or the same exception with the same text."""
    try:
        want = Fraction(text)
    except Exception as e:  # noqa: BLE001 - the class and text are compared
        with pytest.raises(type(e)) as got:
            Q(text)
        assert type(got.value) is type(e) and str(got.value) == str(e)
    else:
        same(Q(text), want)


def test_decimal_strings_stay_rationals():
    assert rational("1.5", "c") == Q(3, 2)
    f = series_from_json({"var": "z", "trunc": 1, "coeffs": ["1.5", "-3/4"]})
    assert f.coeffs == (Q(3, 2), Q(-3, 4))
