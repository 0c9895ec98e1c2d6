from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscy.errors import UsageError
from grasscy.series import (
    PowerSeries,
    SeriesDomainError,
    TruncationError,
    VariableMismatch,
    series_compose,
    series_exp,
    series_from_json,
    series_revert,
    series_to_json,
)

import support
from support import (
    LogSeries,
    compose_inner,
    exp_oracle,
    integrate0,
    log_oracle,
    mul_oracle,
    reciprocal_oracle,
    series_log,
)

rationals = support.rationals(100, 50)


def series(var="z", trunc=10, constant=None, min_trunc=None):
    """Series of truncation `trunc`, or of any truncation from `min_trunc`
    to `trunc`; constant term drawn or fixed."""
    lo = trunc if min_trunc is None else min_trunc
    coeffs = st.lists(rationals, min_size=lo + 1, max_size=trunc + 1)
    if constant is None:
        return coeffs.map(lambda c: PowerSeries(var, tuple(c)))
    return coeffs.map(lambda c: PowerSeries(var, (Q(constant),) + tuple(c[1:])))


def test_basic_arithmetic():
    f = PowerSeries("z", (1, 2, 3))
    g = PowerSeries("z", (0, 1, 0))
    assert (f + g).coeffs == (Q(1), Q(3), Q(3))
    assert (f - g).coeffs == (Q(1), Q(1), Q(3))
    assert (f * g).coeffs == (Q(0), Q(1), Q(2))
    assert (2 * f).coeffs == (Q(2), Q(4), Q(6))
    assert (f + 1).coeffs == (Q(2), Q(2), Q(3))


def test_min_truncation():
    f = PowerSeries("z", (1, 2, 3, 4, 5))
    g = PowerSeries("z", (1, 1))
    assert (f + g).trunc == 1
    assert (f * g).trunc == 1


def test_getitem_beyond_truncation_raises():
    f = PowerSeries("z", (1, 2))
    assert f[1] == 2
    with pytest.raises(TruncationError):
        f[2]


def test_truncate_cannot_extend():
    f = PowerSeries("z", (1, 2))
    with pytest.raises(TruncationError):
        f.truncate(5)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        PowerSeries("z", (1,)) + PowerSeries("q", (1,))


def test_shift_theta_deriv_integrate():
    f = PowerSeries("z", (1, 2, 3))
    assert f.shift(1).coeffs == (Q(0), Q(1), Q(2))
    assert f.theta().coeffs == (Q(0), Q(2), Q(6))
    assert integrate0(f).coeffs == (Q(0), Q(1), Q(1), Q(1))
    assert integrate0(f).trunc == f.trunc + 1


def test_reciprocal_and_division():
    f = PowerSeries("z", (1, -1, 0, 0))
    assert f.reciprocal().coeffs == (Q(1), Q(1), Q(1), Q(1))
    assert (f / f).coeffs == (Q(1), Q(0), Q(0), Q(0))
    with pytest.raises(SeriesDomainError):
        PowerSeries("z", (0, 1)).reciprocal()


def test_domain_checks_raise_series_domain_error():
    """A series operation outside its domain is a fault of the run (exit 1),
    not bad input."""
    z = PowerSeries("z", (0, 1, 0, 0))
    calls = [lambda: series_exp(1 + z), lambda: series_compose(z, 1 + z),
             lambda: series_revert(1 + z), lambda: series_revert(z * z)]
    for call in calls:
        with pytest.raises(SeriesDomainError):
            call()
    assert not issubclass(SeriesDomainError, UsageError)


def test_exp_log_known_values():
    z = PowerSeries("z", (0, 1, 0, 0, 0))
    e = series_exp(z)
    assert e.coeffs == (Q(1), Q(1), Q(1, 2), Q(1, 6), Q(1, 24))
    l = series_log(1 + z)
    assert l.coeffs == (Q(0), Q(1), Q(-1, 2), Q(1, 3), Q(-1, 4))


def test_compose_and_revert_known():
    # revert of z/(1-z) is z/(1+z)
    f = PowerSeries("z", (0, 1, 1, 1, 1, 1))
    g = series_revert(f)
    assert g.coeffs == (Q(0), Q(1), Q(-1), Q(1), Q(-1), Q(1))


@settings(max_examples=200)
@given(series(constant=0))
def test_log_exp_roundtrip(f):
    assert series_log(series_exp(f)) == f


@settings(max_examples=200)
@given(series(constant=1))
def test_exp_log_roundtrip(f):
    assert series_exp(series_log(f)) == f


@settings(max_examples=200)
@given(series(constant=0), support.rationals(20, 10).filter(lambda x: x != 0))
def test_revert_roundtrip(f, lead):
    f = PowerSeries(f.var, (Q(0), lead) + f.coeffs[2:])
    g = series_revert(f)
    identity = PowerSeries(f.var, (0, 1) + (0,) * (f.trunc - 1))
    assert series_compose(f, g) == identity
    assert series_compose(g, f) == identity


@settings(max_examples=200)
@given(series(constant=1), series(constant=1))
def test_reciprocal_is_multiplicative_inverse(f, g):
    assert (f * f.reciprocal()) == PowerSeries.one(f.var, f.trunc)
    assert ((f * g) * (f.reciprocal() * g.reciprocal())) == PowerSeries.one(f.var, f.trunc)


# -- integer kernels against the schoolbook Fraction recurrences ---------------

@settings(max_examples=200)
@given(series(min_trunc=0), series(min_trunc=0))
def test_mul_matches_oracle(f, g):
    assert (f * g).coeffs == mul_oracle(f, g)
    assert (f * g).trunc == min(f.trunc, g.trunc)


@settings(max_examples=200)
@given(series(min_trunc=0), rationals.filter(bool))
def test_reciprocal_matches_oracle(f, c0):
    f = PowerSeries(f.var, (c0,) + f.coeffs[1:])
    assert f.reciprocal().coeffs == reciprocal_oracle(f)


@settings(max_examples=200)
@given(series(), series(), rationals.filter(bool))
def test_division_matches_oracle(f, g, c0):
    g = PowerSeries(g.var, (c0,) + g.coeffs[1:])
    assert (f / g).coeffs == mul_oracle(f, PowerSeries(g.var, reciprocal_oracle(g)))


@settings(max_examples=200)
@given(series(constant=0, min_trunc=0))
def test_exp_matches_oracle(f):
    assert series_exp(f).coeffs == exp_oracle(f)


@settings(max_examples=200)
@given(series(constant=1, min_trunc=0))
def test_log_matches_oracle(f):
    assert series_log(f).coeffs == log_oracle(f)


def test_json_roundtrip():
    f = PowerSeries("z", (Q(1), Q(-3, 7)))
    assert series_from_json(series_to_json(f)) == f


# -- LogSeries, the log-extended series of the test oracles -------------------


def test_log_series_theta_rule():
    # F = log z (component convention: f_j L^j / j!)
    one = PowerSeries.one("z", 5)
    zero = PowerSeries.zero("z", 5)
    F = LogSeries((zero, one))
    t = F.theta()
    assert t.component(0) == one
    assert t.log_degree == 0


def test_log_series_theta_product_rule():
    f = PowerSeries("z", (0, 1, 2, 3))
    F = LogSeries((f, f))  # f + f log z
    t = F.theta()
    assert t.component(0) == f.theta() + f
    assert t.component(1) == f.theta()


def test_log_series_top_trim():
    zero = PowerSeries.zero("z", 3)
    one = PowerSeries.one("z", 3)
    F = LogSeries((one, zero, zero))
    assert F.log_degree == 0


def test_compose_inner_consistency():
    # the q-route oracle's substitution z = q (identity with log_corr = 0)
    # must leave a log series unchanged
    f = PowerSeries("z", (1, 2, 3, 4, 5))
    F = LogSeries((f, f))
    zq = PowerSeries("q", (0, 1, 0, 0, 0))
    out = compose_inner(F, zq, PowerSeries.zero("q", 4))
    assert out.component(0).coeffs == f.coeffs[:5]
    assert out.component(1).coeffs == f.coeffs[:5]


@settings(max_examples=100)
@given(st.lists(series(min_trunc=0), min_size=1, max_size=3), rationals)
def test_log_series_times_scalar_matches_constant_series(comps, c):
    tr = min(f.trunc for f in comps)
    F = LogSeries(tuple(f.truncate(tr) for f in comps))
    assert F * c == F.mul_series(PowerSeries.zero("z", tr) + c)
