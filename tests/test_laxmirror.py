import json
import time
from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasscy.cli import main
from grasscy.errors import UsageError
from grasscy.hypergeom import (
    MAX_TERMS,
    a_series,
    a_series_qspecialized,
    factorial_trick,
)
from grasscy.laurent import (
    LaurentPoly,
    ct_of_product,
    laurent_from_json,
    laurent_pow_ct,
    laurent_to_json,
)
from grasscy.laxmirror import (
    ConstraintViolation,
    UnboundedPeriod,
    canonical_gauge_coeffs,
    lax_operator,
    mirror_period,
    mirror_system,
    period_ct,
)
from grasscy.registry import registry_load
from grasscy.toric import build_delta, vertex_labels, vertex_vector
from support import (
    ct_by_param_degree_bruteforce,
    ct_by_param_degree_tuples,
    laurent_pow_ct_bruteforce,
    rationals,
)

# a parameter degree bound that no term of the tests reaches: the walk has
# no parameters, so the oracles must not prune any
UNPRUNED = 10**9


def _summed(by_degree: dict) -> dict:
    """An oracle's m -> {parameter degree -> coefficient}, summed at each m:
    the constant terms with every parameter set to 1."""
    return {m: sum(by.values(), Q(0)) for m, by in by_degree.items()}


def _params_at_one(L: LaurentPoly, nparams: int) -> LaurentPoly:
    """L with its trailing nparams coordinates set to 1."""
    nv = L.nvars - nparams
    terms: dict = {}
    for e, c in L.terms.items():
        terms[e[:nv]] = terms.get(e[:nv], 0) + c
    return LaurentPoly(nv, terms)


def _sweep_product(factors, powers) -> dict:
    """`ct_of_product` by the tuple sweep on the product multiplied out."""
    return _summed(ct_by_param_degree_tuples(_expanded(factors), powers))


# the two constant-term routes, m -> CT(L^m): the library's walk, and the
# meet-in-the-middle sweep on tuple keys that the tests use as an oracle;
# both must agree with the brute-force products
ROUTES = {"walk": lambda L, powers: ct_of_product([(L, 1)], powers),
          "sweep": lambda L, powers: _sweep_product([(L, 1)], powers)}


def test_laurent_arithmetic():
    a = LaurentPoly(2, {(1, 0): Q(2), (-1, 1): Q(3)})
    b = LaurentPoly(2, {(-1, 0): Q(1)})
    assert (a * b).terms == {(0, 0): Q(2), (-2, 1): Q(3)}
    assert (a + (-a)).terms == {}
    assert (0, 0) not in a.terms
    assert (a * b).terms[(0, 0)] == 2


def test_laurent_json_roundtrip():
    a = LaurentPoly(3, {(1, -2, 0): Q(5, 3)})
    assert laurent_from_json(laurent_to_json(a)).terms == a.terms


@pytest.mark.parametrize("terms,message", [
    ([{"c": "1"}], "not a Laurent term: missing 'exp'"),
    ([{"exp": [1], "c": "1"}, {"exp": [2]}], "not a Laurent term: missing 'c'"),
    ([[1]], "not a Laurent term: missing 'exp', 'c'"),
], ids=["no-exp", "no-c", "not-an-object"])
def test_laurent_from_json_names_missing_keys(terms, message):
    with pytest.raises(UsageError) as e:
        laurent_from_json({"nvars": 1, "terms": terms})
    assert str(e.value) == message


def test_lax_support_is_polytope_vertex_set():
    for r, s in [(1, 3), (2, 4), (2, 5), (2, 7), (3, 6), (3, 7), (4, 8)]:
        g = lax_operator(r, s, q=1, track_q=False)
        delta = build_delta(r, s)
        assert set(g.terms) == set(delta.vertices)
        assert all(c == 1 for c in g.terms.values())
        tracked = lax_operator(r, s)
        qterms = [e[:-1] for e in tracked.terms if e[-1] == 1]
        assert qterms == [vertex_vector(r, s, ("v", r, s - r))]


def test_lax_tracked_q_coordinate():
    g = lax_operator(2, 4)
    assert g.nvars == 5
    qterms = [e for e in g.terms if e[4] == 1]
    assert len(qterms) == 1


def test_lax_rejects_q_while_tracking_it():
    """A fixed q beside track_q=True would be dropped; it is refused instead."""
    with pytest.raises(UsageError, match="track_q"):
        lax_operator(2, 4, q=3)
    assert lax_operator(2, 4, q=3, track_q=False).terms[vertex_vector(2, 4, ("v", 2, 2))] == 3


def test_ct_powers_projective_line():
    # L = x + q/x: CT(L^(2m)) = C(2m, m)
    L = LaurentPoly(1, {(1,): Q(1), (-1,): Q(1)})
    for m in range(5):
        assert laurent_pow_ct(L, 2 * m) == comb(2 * m, m)
        assert laurent_pow_ct(L, 2 * m + 1) == 0


def test_ct_lax_g24_matches_a_series():
    a = a_series_qspecialized(2, 4, 8)
    L = lax_operator(2, 4, q=1, track_q=False)
    for d in range(9):
        assert laurent_pow_ct(L, 4 * d) == factorial(4 * d) * a.coeffs[d]


def test_period_ct_g24():
    g = lax_operator(2, 4)
    ps = period_ct(g, 1, 2)
    a = a_series_qspecialized(2, 4, 2)
    assert ps.coeffs == tuple(factorial(4 * d) * a.coeffs[d] for d in range(3))


def test_period_ct_quartic_subfamily():
    # torus x1..x4, one tracked parameter; the extra unit-coefficient monomial
    # has parameter weight 0
    terms = {}
    for i in range(4):
        e = [0] * 5
        e[i] = 1
        terms[tuple(e)] = Q(1)
    terms[(-1, -1, -1, 0, 1)] = Q(1)
    terms[(1, 1, 0, -1, 0)] = Q(1)
    g = LaurentPoly(5, terms)
    ps = period_ct(g, 1, 3)
    assert ps.coeffs == tuple(
        Q(factorial(4 * m) * factorial(2 * m), factorial(m) ** 6) for m in range(4)
    )


def test_period_ct_two_parameters():
    # a period tracks one parameter, the last coordinate: two are refused
    terms = {}
    for i in range(4):
        e = [0] * 6
        e[i] = 1
        terms[tuple(e)] = Q(1)
    terms[(-1, -1, -1, 0, 1, 0)] = Q(1)
    terms[(1, 1, 0, -1, 0, 1)] = Q(1)
    g = LaurentPoly(6, terms)
    with pytest.raises(UsageError, match="nparams must be 1, got 2$"):
        period_ct(g, 2, 3)


def test_period_unbounded_rejected():
    # x + q*x has no grading placing both monomials at height 1 with mu >= 0
    g = LaurentPoly(2, {(1, 0): Q(1), (1, 1): Q(1), (-1, 0): Q(1)})
    with pytest.raises(UnboundedPeriod):
        period_ct(g, 1, 2)


def test_period_rejects_negative_nparams():
    with pytest.raises(UsageError, match="nparams must be 1, got -1$"):
        period_ct(lax_operator(2, 4), -1, 2)


@st.composite
def small_polys(draw):
    """A Laurent polynomial in one or two variables, exponents in [-2, 2],
    up to six rational coefficients."""
    nv = draw(st.integers(min_value=1, max_value=2))
    exps = st.integers(min_value=-2, max_value=2)
    terms = draw(st.lists(st.tuples(exps, exps, rationals(3, 3)), min_size=1, max_size=6))
    return LaurentPoly(nv, {(a, b)[:nv]: c for a, b, c in terms})


@settings(max_examples=200, deadline=None)
@given(small_polys(), st.integers(min_value=0, max_value=5))
def test_pruned_ct_matches_bruteforce(poly, m):
    assert laurent_pow_ct(poly, m) == laurent_pow_ct_bruteforce(poly, m)


@settings(max_examples=200, deadline=None)
@given(small_polys(), st.sets(st.integers(min_value=0, max_value=6), max_size=4))
def test_one_sweep_matches_bruteforce_at_every_power(poly, powers):
    # one walk serves every power, each checked against its own full product
    got = ct_of_product([(poly, 1)], powers)
    assert set(got) == powers
    for m in powers:
        assert got[m] == laurent_pow_ct_bruteforce(poly, m)


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=100, deadline=None)
@given(small_polys(), st.sets(st.integers(min_value=0, max_value=6), max_size=4))
def test_each_route_matches_bruteforce_at_every_power(route, poly, powers):
    got = ROUTES[route](poly, powers)
    assert set(got) == powers
    for m in powers:
        assert got[m] == laurent_pow_ct_bruteforce(poly, m)


@st.composite
def tracked_polys(draw):
    """(L, nparams): one to three torus coordinates, each with its own
    exponent range [-a, b] (a, b <= 40, so up and down differ), and nparams
    in 0..3 tracked parameters with exponents 0..3.  One to four monomials
    are drawn, and one or two more each close a subset of them on the torus
    (their torus parts add up to 0), so that powers have constant terms.
    Nonzero rational coefficients of either sign."""
    nv = draw(st.integers(min_value=1, max_value=3))
    nparams = draw(st.integers(min_value=0, max_value=3))
    ranges = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                           min_size=nv, max_size=nv))
    torus = st.tuples(*[st.integers(-a, b) for a, b in ranges])
    params = st.tuples(*[st.integers(0, 3)] * nparams)
    base = draw(st.lists(torus, min_size=1, max_size=4))
    subsets = draw(st.lists(st.lists(st.booleans(), min_size=len(base), max_size=len(base)),
                            min_size=1, max_size=2))
    closing = [tuple(-sum(e[c] for e, x in zip(base, pick) if x) for c in range(nv))
               for pick in subsets]
    terms = {e + draw(params): draw(rationals(3, 3).filter(bool)) for e in base + closing}
    return LaurentPoly(nv + nparams, terms), nparams


@settings(max_examples=200, deadline=None)
@given(tracked_polys(), st.sets(st.integers(min_value=0, max_value=6), min_size=1))
@example((LaurentPoly(2, {(40, 0): Q(-1, 2), (-1, 3): Q(2, 3), (-39, 1): Q(3)}), 1),
         {0, 1, 3, 5})
@example((LaurentPoly(2, {(1, 0): Q(1), (-1, 0): Q(-2, 3)}), 0), {0})
def test_packed_keys_match_the_tuple_sweep(poly, powers):
    # the walk on L with its parameters set to 1 against the
    # meet-in-the-middle sweep on tuple exponent keys over L, its parameter
    # degrees summed: equal coefficients at every power
    L, nparams = poly
    assert ct_of_product([(_params_at_one(L, nparams), 1)], powers) == \
        _summed(ct_by_param_degree_tuples(L, powers, nparams, UNPRUNED))


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=100, deadline=None)
@given(tracked_polys(), st.sets(st.integers(min_value=0, max_value=6), min_size=1))
def test_each_route_matches_bruteforce_with_tracked_parameters(route, poly, powers):
    L, nparams = poly
    assert ROUTES[route](_params_at_one(L, nparams), powers) == \
        _summed(ct_by_param_degree_bruteforce(L, powers, nparams, UNPRUNED))


def test_walk_keeps_only_integral_counts():
    # x^2 + x^-3 balances only at counts (3, 2): CT(L^5) = C(5, 2), and no
    # power below 5 has a constant term although the rational solutions
    # exist at every m
    L = LaurentPoly(1, {(2,): Q(1), (-3,): Q(1)})
    got = ct_of_product([(L, 1)], range(11))
    assert got == _summed(ct_by_param_degree_bruteforce(L, range(11)))
    assert got[5] == 10 and got[10] == comb(10, 4) and got[4] == 0


@pytest.mark.parametrize("k,n,order", [(2, 4, 6), (2, 5, 3), (3, 6, 2)])
def test_period_ct_of_lax_matches_the_tuple_sweep(k, n, order, monkeypatch):
    got = period_ct(lax_operator(k, n), 1, order)
    monkeypatch.setattr("grasscy.laxmirror.ct_of_product", _sweep_product)
    assert got == period_ct(lax_operator(k, n), 1, order)


def test_negative_tracked_exponent_rejected():
    # pruning to parameter degrees in 0..bound would drop the (1, -1)
    # factor: the tuple sweep returns nothing, while CT(L^2) = 2 q^1 by full
    # expansion; q is a power-series variable, so period_ct refuses it
    L = LaurentPoly(2, {(1, -1): Q(1), (-1, 2): Q(1)})
    assert ct_by_param_degree_tuples(L, {2}, 1, 3) == {2: {}}
    assert (L * L).terms[(0, 1)] == 2
    with pytest.raises(UsageError, match="tracked parameter exponents must be non-negative"):
        period_ct(L, 1, 3)


def test_negative_power_rejected():
    with pytest.raises(UsageError, match="power must be non-negative"):
        ct_of_product([(LaurentPoly(1, {(1,): Q(1)}), 1)], {-1})


@st.composite
def graded_polys(draw):
    """(g, mu): a Laurent polynomial over nv torus coordinates and the
    tracked parameter q whose only grading is w = (1, ..., 1) on the torus
    and mu on q (the unit monomials x_i pin w, a monomial q x^e pins mu);
    rational coefficients."""
    nv = draw(st.integers(min_value=1, max_value=2))
    mu = draw(st.integers(min_value=1, max_value=2))
    coeff = rationals(3, 3).filter(bool)
    terms = {}
    for i in range(nv):
        terms[tuple(int(c == i) for c in range(nv)) + (0,)] = draw(coeff)
    for t in [1] + draw(st.lists(st.integers(min_value=0, max_value=1), max_size=2)):
        rest = draw(st.lists(st.integers(min_value=-1, max_value=1), min_size=nv - 1, max_size=nv - 1))
        terms[(1 - sum(rest) - mu * t, *rest, t)] = draw(coeff)
    return LaurentPoly(nv + 1, terms), mu


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=40, deadline=None)
@given(graded_polys(), st.integers(min_value=1, max_value=3))
def test_period_ct_by_each_route_matches_bruteforce(route, poly, order):
    g, mu = poly
    with pytest.MonkeyPatch.context() as mp:
        if route == "sweep":
            mp.setattr("grasscy.laxmirror.ct_of_product", _sweep_product)
        got = period_ct(g, 1, order)
    assert got.coeffs == _period_oracle(g, order, mu * order)


def _period_oracle(g, order, mmax):
    """Full products g^0..g^mmax; the torus-zero terms summed by their
    q-degree, for degrees 0..order."""
    out = [0] * (order + 1)
    power = LaurentPoly.constant(g.nvars, 1)
    for _ in range(mmax + 1):
        for e, c in power.terms.items():
            if not any(e[:-1]) and e[-1] <= order:
                out[e[-1]] += c
        power = power * g
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(graded_polys(), st.integers(min_value=1, max_value=3))
def test_period_ct_matches_bruteforce(poly, order):
    # m = mu d runs over several powers, all served by one walk
    g, mu = poly
    assert period_ct(g, 1, order).coeffs == _period_oracle(g, order, mu * order)


def test_period_ct_three_parameters_matches_bruteforce():
    # g = x + t1/x + t2/x^2 + t3: the grading w = 1 gives mu = (2, 3, 1).  A
    # period tracks one parameter, so three are refused; with all three set
    # to 1 the walk gives, at each power, the brute-force constant terms
    # summed over their parameter degrees
    g = LaurentPoly(4, {(1, 0, 0, 0): Q(1), (-1, 1, 0, 0): Q(2),
                        (-2, 0, 1, 0): Q(1, 3), (0, 0, 0, 1): Q(-1)})
    with pytest.raises(UsageError, match="nparams must be 1, got 3$"):
        period_ct(g, 3, 4)
    by_degree = ct_by_param_degree_bruteforce(g, range(13), 3, UNPRUNED)
    assert ct_of_product([(_params_at_one(g, 3), 1)], range(13)) == _summed(by_degree)
    # CT(g^6) at t1 t2 t3: the 6!/3! orderings of x, x, x, t1/x, t2/x^2, t3
    assert by_degree[6][(1, 1, 1)] == 120 * 2 * Q(1, 3) * (-1)


def test_period_ct_fractional_weight():
    # g = x^2 + q/x: w = 1/2, mu = 3/2, so only even d reach an integer
    # power m = 3d/2, and CT(g^m) at q^d is C(3d/2, d)
    g = LaurentPoly(2, {(2, 0): Q(1), (-1, 1): Q(1)})
    assert period_ct(g, 1, 6).coeffs == (1, 0, 3, 0, 15, 0, 84)


def test_period_ct_without_parameters():
    # a period tracks one parameter, so none is refused; the zero
    # polynomial's period is 1
    g = LaurentPoly(2, {(1, 0): Q(1), (0, 1): Q(2)})
    for h in (g, LaurentPoly.zero(2)):
        with pytest.raises(UsageError, match="nparams must be 1, got 0$"):
            period_ct(h, 0, 4)
    assert period_ct(LaurentPoly.zero(2), 1, 4).coeffs == (1, 0, 0, 0, 0)


def test_period_ct_refuses_an_unbounded_factorial(tmp_path, capsys):
    """g = x + q x^-999 has mu = 1000: CT(g^(1000 d)) at q^d takes d copies
    of q x^-999 and 999 d of x, so it is C(1000 d, d).  At order 200 the top
    factorial, 200000!, has more bits than MAX_TERMS, while the count bound
    sees one count vector per power: it is refused at once, by the library
    and by `period`."""
    g = LaurentPoly(2, {(1, 0): Q(1), (-999, 1): Q(1)})
    assert period_ct(g, 1, 20).coeffs == tuple(comb(1000 * d, d) for d in range(21))
    t0 = time.perf_counter()
    with pytest.raises(UsageError, match=f"200000!, of more bits than the resource cap {MAX_TERMS}$"):
        period_ct(g, 1, 200)
    assert time.perf_counter() - t0 < 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(laurent_to_json(g)))
    assert main(["period", "--poly", str(path), "--order", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"].endswith(f"resource cap {MAX_TERMS}")


def test_walk_over_two_thousand_free_counts(tmp_path, capsys):
    """g = x + sum_(j < 2000) x^-j q^(j+1) has mu = 1: at q = 1 its 2001
    monomials in x have 1999 free counts, each walked by the odometer, and
    only the monomial q balances at m = 1."""
    g = LaurentPoly(2, {(1, 0): Q(1), **{(-j, j + 1): Q(1) for j in range(2000)}})
    assert period_ct(g, 1, 1).coeffs == (1, 1)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(laurent_to_json(g)))
    assert main(["period", "--poly", str(path), "--order", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["1", "1"]


# -- mirror systems ------------------------------------------------------------


def _mirror_system(case):
    """The mirror system of the case over the consecutive nef partition, in
    the canonical gauge at q = 1."""
    k, n, degrees = case.k, case.n, case.degrees
    partition, start = [], 1
    for d in degrees:
        partition.append(tuple(range(start, start + d)))
        start += d
    return mirror_system(k, n, degrees, partition, *canonical_gauge_coeffs(k, n, q=1))


def _expanded(factors) -> LaurentPoly:
    """prod_b F_b^(w_b), multiplied out."""
    G = LaurentPoly.constant(factors[0][0].nvars, 1)
    for F, w in factors:
        for _ in range(w):
            G = G * F
    return G


def _mirror_product(case) -> LaurentPoly:
    """G = prod F_i^(l_i), F_i = sum_{j in J_i} p_j, multiplied out."""
    ms = _mirror_system(case)
    nv = case.k * (case.n - case.k)
    factors = []
    for J in ms.partition:
        F = LaurentPoly.zero(nv)
        for j in J:
            F = F + ms.polys[j - 1]
        factors.append((F, len(J)))
    return _expanded(factors)


@pytest.mark.parametrize("name", sorted(registry_load()))
def test_mirror_period_matches_factorial_trick(name):
    """The Batyrev-Borisov period of the mirror complete intersection:
    CT(prod F_i^(l_i m)) = prod (l_i m)! a_m."""
    case = registry_load()[name]
    phi = factorial_trick(a_series(case.k, case.n, 10), case.degrees)
    assert mirror_period(_mirror_system(case), 10) == phi


@pytest.mark.parametrize("name", ["X4_G24", "X113_G25"])
def test_mirror_period_matches_the_tuple_oracle_on_the_expanded_product(name):
    case = registry_load()[name]
    ct = ct_by_param_degree_tuples(_mirror_product(case), range(5))
    assert mirror_period(_mirror_system(case), 4).coeffs == tuple(ct[m].get((), 0) for m in range(5))


@st.composite
def weighted_factors(draw):
    """Two or three factors (F, w) over one or two torus coordinates, each
    F one to three monomials with exponents in [-1, 1] and nonzero rational
    coefficients, each weight w in 1..3."""
    nv = draw(st.integers(min_value=1, max_value=2))
    exps = st.tuples(*[st.integers(-1, 1)] * nv)
    coeff = rationals(3, 3).filter(bool)
    factors = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=3))
        factors.append((LaurentPoly(nv, terms), draw(st.integers(1, 3))))
    return factors


@settings(max_examples=100, deadline=None)
@given(weighted_factors(), st.sets(st.integers(min_value=0, max_value=3), min_size=1))
def test_product_matches_the_tuple_oracle_on_the_expanded_product(factors, powers):
    # each factor's counts add up to w m: the per-factor multinomials and
    # budgets against the sweep over the product multiplied out
    assert ct_of_product(factors, powers) == _sweep_product(factors, powers)


def test_expanded_mirror_product_is_refused(tmp_path, capsys):
    """The product of X4_G24 multiplied out has 105 monomials in 4
    coordinates, so 100 free counts: its count bound passes MAX_TERMS, and
    it is refused before the walk starts, by the library and by `period`."""
    G = _mirror_product(registry_load()["X4_G24"])
    t0 = time.perf_counter()
    with pytest.raises(UsageError, match=f"f = 100 .* resource cap {MAX_TERMS}$"):
        ct_of_product([(G, 1)], range(7))
    assert time.perf_counter() - t0 < 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(laurent_to_json(
        LaurentPoly(5, {e + (1,): c for e, c in G.terms.items()}))))
    assert main(["period", "--poly", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"].endswith(f"resource cap {MAX_TERMS}")


def test_mirror_system_canonical_gauge():
    a, b = canonical_gauge_coeffs(2, 5)
    ms = mirror_system(2, 5, (1, 1, 3), ((1,), (2,), (3, 4, 5)), a, b)
    assert len(ms.polys) == 5
    assert len(ms.equations) == 3
    # vertex monomials partition across the p_i
    all_terms = {}
    for p in ms.polys:
        for e, c in p.terms.items():
            assert e not in all_terms
            all_terms[e] = c
    assert set(all_terms) == {vertex_vector(2, 5, lab) for lab in vertex_labels(2, 5)}


@pytest.mark.parametrize("k,n,degrees,partition", [
    (2, 4, (4,), ((1, 2, 3, 4),)),
    (2, 5, (1, 1, 3), ((1,), (2,), (3, 4, 5))),
    (2, 5, (2, 3), ((1, 4), (2, 3, 5))),
    (2, 6, (1, 1, 1, 1, 2), ((1,), (2,), (3,), (4,), (5, 6))),
    (3, 6, (1,) * 6, tuple((i,) for i in range(1, 7))),
])
def test_mirror_system_splits_the_lax_operator(k, n, degrees, partition):
    """In the canonical gauge the vertex polynomials p_1..p_n add up to the
    Lax operator at the same q, whatever the nef partition."""
    nv = k * (n - k)
    for q in (Q(1), Q(-3, 7), Q(0)):
        ms = mirror_system(k, n, degrees, partition, *canonical_gauge_coeffs(k, n, q=q))
        total = LaurentPoly.zero(nv)
        for p in ms.polys:
            total = total + p
        assert total.terms == lax_operator(k, n, q=q, track_q=False).terms


def test_mirror_system_constraint_violation():
    a, b = canonical_gauge_coeffs(2, 5)
    b = dict(b)
    b[(1, 1)] = Q(2)  # breaks a_{2,0} b_{2,1} = a_{2,1} b_{1,1}
    with pytest.raises(ConstraintViolation):
        mirror_system(2, 5, (1, 1, 3), ((1,), (2,), (3, 4, 5)), a, b)


def test_mirror_system_partition_validation():
    a, b = canonical_gauge_coeffs(2, 5)
    with pytest.raises(ValueError):
        mirror_system(2, 5, (1, 1, 3), ((1,), (2,), (3, 4)), a, b)
    with pytest.raises(ValueError):
        mirror_system(2, 5, (1, 1, 3), ((1,), (1,), (3, 4, 5)), a, b)


def _gauge_poly(a, b, k, n):
    nv = k * (n - k)
    terms = {}
    for lab in vertex_labels(k, n):
        kind, i, j = lab
        v = vertex_vector(k, n, lab)
        if lab == ("v", k, n - k):
            terms[v + (1,)] = (a if kind == "u" else b)[(i, j)]
        else:
            terms[v + (0,)] = (a if kind == "u" else b)[(i, j)]
    return LaurentPoly(nv + 1, terms)


def test_period_gauge_independence_g24():
    """Two gauges satisfying the compatibility constraints give period series
    related by rescaling q with the torus-invariant coefficient product."""
    g1 = _gauge_poly(*canonical_gauge_coeffs(2, 4), 2, 4)
    p1 = period_ct(g1, 1, 2)
    a2 = {(1, 0): Q(2), (2, 0): Q(3), (2, 1): Q(5)}
    b2 = {(1, 1): Q(7), (2, 1): Q(35, 3), (2, 2): Q(1)}
    # validates the constraints
    mirror_system(2, 4, (4,), ((1, 2, 3, 4),), a2, b2)
    g2 = _gauge_poly(a2, b2, 2, 4)
    p2 = period_ct(g2, 1, 2)
    z_invariant = a2[(1, 0)] * b2[(1, 1)] * a2[(2, 1)] * b2[(2, 2)]
    assert all(p2.coeffs[d] == p1.coeffs[d] * z_invariant**d for d in range(3))
