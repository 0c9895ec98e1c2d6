import re
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasscy.dop import (
    AmbiguousAnnihilator,
    DOp,
    NoAnnihilator,
    dop_from_json,
    dop_to_json,
    fit_trunc,
    pf_fit,
)
from grasscy.hypergeom import ASeriesSpec, FactorialBundle, a_series, factorial_trick
from grasscy.registry import registry_load
from grasscy.series import PowerSeries

import support
from support import LogSeries, apply_log, rationals

D = DOp.D()
z = DOp.z()


def test_composition_rule():
    # D z = z (D + 1)
    assert D * z == DOp({(1, 1): 1, (1, 0): 1})
    # z D = z D
    assert z * D == DOp({(1, 1): 1})
    # D^2 z = z (D+1)^2
    assert D * D * z == DOp({(1, 2): 1, (1, 1): 2, (1, 0): 1})


def test_power_and_ring_axioms():
    A = D * z - z * D
    assert A == z  # [D, z] = z
    assert (D + z) ** 2 == D * D + D * z + z * D + z * z


def test_canonical_form():
    P = DOp({(0, 2): Q(-2, 3), (1, 0): Q(4, 3)})
    C = P.canonical()
    assert C == DOp({(0, 2): 1, (1, 0): -2})
    # idempotent
    assert C.canonical() == C


def test_indicial():
    P = D**4 - 16 * z * (2 * D + 1) ** 2 * (4 * D + 1) * (4 * D + 3)
    assert P.indicial(0) == 0
    assert P.indicial(2) == 16


def test_apply_power_series():
    f = PowerSeries("z", (1, 1, 1, 1))
    assert D.apply(f) == f.theta()
    assert z.apply(f) == f.shift(1)
    assert (D * z).apply(f) == f.shift(1).theta()


def test_apply_log_series_matches_theta():
    f = PowerSeries("z", (0, 1, 2, 3))
    F = LogSeries((f, f))
    assert apply_log(D, F) == F.theta()
    assert apply_log(D * D, F) == F.theta().theta()
    assert apply_log(z * D, F) == F.theta().shift(1)


def test_pf_fit_geometric():
    # f = 1/(1-z): (1-z) f' - f = 0, i.e. D - z D - z annihilates it
    f = PowerSeries("z", (1,) * 30)
    P = pf_fit(f, 2, 2)
    assert P.apply(f).is_zero()
    assert P.order == 1


def test_pf_fit_exp():
    from math import factorial

    f = PowerSeries("z", tuple(Q(1, factorial(m)) for m in range(30)))
    P = pf_fit(f, 2, 2)
    assert P == (D - z).canonical()


REGISTRY = registry_load()


@pytest.mark.parametrize("name, bounds", [("geometric", (2, 2)), ("exp", (3, 3)),
                                          ("quartic", (4, 2)), ("quartic", (4, 1))]
                         + [(name, (4 + s, rc.pf_max_zdeg + s))
                            for name, rc in REGISTRY.items() for s in (1, 2)])
def test_pf_fit_matches_per_order_route(name, bounds):
    """The one grid echelon gives the per-order route's operator, with the
    winner inside the grid (nullity >= 2 there) and equal to it.  The
    registry periods at bounds above their own give the grid a kernel basis
    of 4 to 13 vectors, of which the winner's kernel is one combination."""
    from math import comb, factorial

    if name in REGISTRY:
        case = REGISTRY[name].case
        a = a_series(ASeriesSpec(case.k, case.n, fit_trunc(*bounds)))
        f = factorial_trick(a, FactorialBundle(case.degrees))
    else:
        f = {
            "geometric": PowerSeries("z", (1,) * 30),
            "exp": PowerSeries("z", tuple(Q(1, factorial(m)) for m in range(30))),
            "quartic": PowerSeries("z", tuple(Q(factorial(4 * m) * comb(2 * m, m),
                                                factorial(m) ** 2) for m in range(26))),
        }[name]
    assert pf_fit(f, *bounds) == support.pf_fit_per_order_oracle(f, *bounds)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 45), st.integers(1, 40), st.integers(0, 40),
       st.sampled_from(["small", "near 0 and p - 1", "any", "mixed"]),
       st.randoms(use_true_random=False))
def test_packed_echelon_matches_list_oracle(nrows, ncols, rank, entries, rng):
    """The packed-lane echelon against the list echelon modulo p, on up to
    45 x 40 matrices of at most `rank` independent rows, the rest random
    combinations of them, shuffled.  Entries near 0 and p - 1 make each
    lane gain close to p^2 per step, the most the lane width allows for."""
    from grasscy.dop import SCREEN_PRIME as p
    from grasscy.dop import _echelon_mod_p

    draw = {
        "small": lambda: rng.randint(0, 2),
        "near 0 and p - 1": lambda: rng.choice((0, 1, 2, p - 3, p - 2, p - 1)),
        "any": lambda: rng.randrange(p),
        "mixed": lambda: rng.choice((0, 1, p - 1, rng.randrange(p))),
    }[entries]
    base = [[draw() for _ in range(ncols)] for _ in range(min(rank, nrows))]
    rows = base + [[sum(c * b[t] for c, b in zip(coeffs, base)) % p for t in range(ncols)]
                   for coeffs in ([draw() for _ in base] for _ in range(nrows - len(base)))]
    rng.shuffle(rows)
    assert _echelon_mod_p(rows, ncols) == support.echelon_mod_p_oracle(rows, ncols)


def test_pf_fit_guard_insufficient_series():
    f = PowerSeries("z", (1,) * 5)
    with pytest.raises(ValueError, match="need 35, the unknowns plus GUARD = 10 rows"):
        pf_fit(f, 4, 4)


def test_pf_fit_no_annihilator():
    # a series whose minimal operator has order 2 is not matched at order 1
    # with z-degree 0
    from math import factorial

    f = PowerSeries("z", tuple(Q(factorial(2 * m), factorial(m) ** 2) for m in range(25)))
    with pytest.raises(NoAnnihilator):
        pf_fit(f, 1, 0)


@pytest.fixture
def exact_calls(monkeypatch):
    """Column counts of the systems that reach the exact nullspace."""
    import grasscy.dop as dop

    calls = []
    exact = dop.nullspace

    def counting_nullspace(rows, *args):
        calls.append(len(rows[0]))
        return exact(rows, *args)

    monkeypatch.setattr(dop, "nullspace", counting_nullspace)
    return calls


def g24_phi() -> PowerSeries:
    """The quartic in G(2,4): phi_m = (4m)! C(2m,m) / (m!)^2, annihilated by
    an order-4 operator of z-degree 1."""
    from math import comb, factorial

    return PowerSeries("z", tuple(Q(factorial(4 * m) * comb(2 * m, m), factorial(m) ** 2)
                                  for m in range(21)))


def test_pf_fit_screen_fallback(exact_calls):
    """The winner's kernel is lifted from the modular screen with no exact
    nullspace.  Scaling the series by the screening prime makes every
    candidate fail the rank screen, so each one reaches the exact nullspace;
    the fit must not change."""
    from grasscy.dop import SCREEN_PRIME

    phi = g24_phi()
    P = pf_fit(phi, 4, 1)
    assert exact_calls == []  # the winner, (r, d) = (4, 1), was lifted
    assert P.order == 4 and P.apply(phi).is_zero()
    scaled = PowerSeries("z", tuple(c * SCREEN_PRIME for c in phi.coeffs))
    assert pf_fit(scaled, 4, 1) == P
    assert len(exact_calls) == 8  # every candidate up to and including (4, 1)


@pytest.mark.parametrize("c", [Q(1, 7), Q(3, 2**40)])
def test_pf_fit_is_blind_to_a_common_scale(exact_calls, c):
    """The rows are built from the series over one common denominator, so a
    rational multiple of it has the same rows up to that scale, the same
    kernel, and the same fit, still lifted from the screen."""
    phi = g24_phi()
    assert pf_fit(PowerSeries("z", tuple(c * x for x in phi.coeffs)), 4, 1) == pf_fit(phi, 4, 1)
    assert exact_calls == []


def test_pf_fit_large_coefficients_take_exact_path(exact_calls):
    """f = 1/(1 - cz) with c = 2^31 + 1 is annihilated by D - czD - cz;
    c is beyond what rational reconstruction modulo 2^61 - 1 recovers, so
    the winner goes to the exact nullspace, which finds the operator."""
    c = 2**31 + 1
    f = PowerSeries("z", tuple(c**m for m in range(30)))
    assert pf_fit(f, 2, 2) == (D - c * z * D - c * z).canonical()
    assert exact_calls == [4]  # the winner (1, 1) only


def test_pf_fit_lift_is_checked_over_z(exact_calls):
    """f = 1 + p z / (1 - z) with p the screening prime is 1 modulo p, so at
    (1, 0) the screen has rank 1 of 2 and its kernel lifts to D, which does
    not annihilate f; the exact check rejects it, the exact nullspace finds
    no operator there, and the fit goes on to the true one."""
    from grasscy.dop import SCREEN_PRIME

    f = PowerSeries("z", (1,) + (SCREEN_PRIME,) * 25)
    P = pf_fit(f, 2, 2)
    assert P.apply(f).is_zero()
    assert (P.order, P.zdeg) == (1, 2)
    assert exact_calls[0] == 2  # (1, 0) went on to the exact nullspace


def test_pf_fit_ambiguous(exact_calls):
    """1 + z^2 + z^4 has a two-dimensional space of annihilators at its
    smallest bounds (2, 2); the exact nullspace decides and reports it."""
    f = PowerSeries("z", (1, 0, 1, 0, 1) + (0,) * 24)
    with pytest.raises(AmbiguousAnnihilator, match="dimension 2 at minimal bounds \\(2,2\\)"):
        pf_fit(f, 2, 2)
    assert exact_calls[-1] == 9


def test_json_roundtrip():
    P = D**4 - 3 * z * (2 * D + 1)
    assert dop_from_json(dop_to_json(P)) == P


ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        rationals(5, 4),
    ),
    min_size=1,
    max_size=4,
).map(lambda ts: DOp({(i, j): c for i, j, c in ts}))


@settings(max_examples=200)
@given(ops, ops)
def test_composition_agrees_with_series_action(A, B):
    f = PowerSeries("z", tuple(Q(m + 1, m * m + 1) for m in range(8)))
    assert (A * B).apply(f) == A.apply(B.apply(f))


apply_ops = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=5)),
    rationals(20, 9),
    max_size=6,
).map(DOp)
apply_series = st.one_of(
    st.lists(rationals(20, 9), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=9).map(lambda t: [0] * (t + 1)),
).map(lambda cs: PowerSeries("q", tuple(cs)))


@settings(max_examples=200)
@given(apply_ops, apply_series)
@example(D**3 - Q(1, 2) * z * (D + 1), PowerSeries("q", (0,) * 6))  # zero series
@example(DOp({(0, 2): Q(-3, 7), (0, 0): Q(1, 3)}), PowerSeries("q", (Q(5, 2),)))  # truncation 0
@example(DOp.zero(), PowerSeries("q", (1, Q(1, 2), Q(1, 3))))
def test_apply_matches_fraction_oracle(P, f):
    """The integer apply (one common denominator, one division per
    coefficient) equals the term-by-term Fraction sum."""
    assert P.apply(f) == support.apply_oracle(P, f)


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=6),
)
def test_pf_fit_certificate(r, d, seed):
    """Build a series annihilated by a known MUM operator; pf_fit must return
    an operator that annihilates all guarded coefficients, and the one the
    per-order route (one echelon per order) returns, or fail as it does."""
    import random

    rng = random.Random(seed)
    terms = {(0, r): Q(1)}
    for i in range(1, d + 2):
        for j in range(r):
            terms[(i, j)] = Q(rng.randint(-4, 4))
    P = DOp(terms)
    if P.order != r:
        return
    # solve the recurrence for the normalized solution
    n = (r + 1) * (d + 2) + 12
    coeffs = [Q(1)]
    for m in range(1, n + 1):
        rhs = Q(0)
        for (i, j), c in P.terms.items():
            if i > 0 and m - i >= 0:
                rhs += c * Q(m - i) ** j * coeffs[m - i]
        coeffs.append(-rhs / Q(m) ** r)
    f = PowerSeries("z", tuple(coeffs))
    try:
        want = support.pf_fit_per_order_oracle(f, r, d + 1)
    except AmbiguousAnnihilator as e:
        with pytest.raises(AmbiguousAnnihilator, match=re.escape(str(e))):
            pf_fit(f, r, d + 1)
        return
    fit = pf_fit(f, r, d + 1)
    assert fit == want
    assert fit.apply(f).is_zero()
