from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscy.dop import fit_trunc
from grasscy.errors import UsageError
import grasscy.hypergeom as hypergeom
from grasscy.hypergeom import (
    MAX_ORDER,
    MAX_TERMS,
    _folded,
    _frontiers,
    _pascal,
    _transfer_sum,
    a_series,
    a_series_qspecialized,
    a_series_terms,
    factorial_trick,
)
from grasscy.pipeline import PF_MAX_ORDER
from grasscy.registry import registry_load
from grasscy.series import PowerSeries
from support import transfer_sum_oracle


def test_projective_space_series():
    # k = 1: empty grid, coefficient 1/(m!)^n
    for n in (2, 4):
        f = a_series_qspecialized(1, n, 5)
        assert f.coeffs == tuple(Q(1, factorial(m) ** n) for m in range(6))


def test_g24_series_closed_form():
    # 1x1 grid: sum_s C(m,s)^2 = C(2m,m)
    f = a_series_qspecialized(2, 4, 8)
    assert f.coeffs == tuple(Q(comb(2 * m, m), factorial(m) ** 4) for m in range(9))


def test_g25_first_coefficients():
    f = a_series_qspecialized(2, 5, 3)
    assert f.coeffs[:2] == (Q(1), Q(3))
    # the (1,1,3) factorial modification gives Phi_1 = 3 * 3! = 18
    phi = factorial_trick(f, (1, 1, 3))
    assert phi.coeffs[1] == 18


def test_g36_matches_operator_recurrence():
    # independent oracle: the degree-(1,...,1) modification solves the known
    # order-4 recurrence with b_1 = 6, b_2 = 126
    f = a_series_qspecialized(3, 6, 2)
    phi = factorial_trick(f, (1,) * 6)
    assert phi.coeffs[:3] == (Q(1), Q(6), Q(126))


def test_g27_g36_grid_sums_pinned():
    # (m!)^n a_m, the grid sums themselves, for the two largest grids
    for (k, n), sums in {
        (2, 7): [1, 5, 109, 3317, 121501, 4954505, 216867925],
        (3, 6): [1, 6, 126, 3948, 149310, 6300756, 285675516],
    }.items():
        f = a_series_qspecialized(k, n, len(sums) - 1)
        assert f.coeffs == tuple(Q(s, factorial(m) ** n) for m, s in enumerate(sums))


def at_ones(terms: dict, trunc: int) -> PowerSeries:
    """The multivariate series with every auxiliary parameter set to 1."""
    coeffs = [Q(0)] * (trunc + 1)
    for (m, _s), c in terms.items():
        coeffs[m] += c
    return PowerSeries("q", tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=3),
)
def test_transfer_matches_enumerator(k, n, m):
    """The frontier transfer of the specialized series against the
    enumeration of every grid assignment (the multivariate series at 1)."""
    if not k < n:
        return
    full = a_series_terms(k, n, m)
    assert a_series_qspecialized(k, n, m) == at_ones(full, m)


def _two_slots_dropped(steps) -> bool:
    return any(u is not None and r is not None and u not in keep and r not in keep and new
               for u, r, keep, new in steps)


def test_two_slots_dropped_first_at_k4():
    """A step that reads two frontier values for the last time and still
    keeps its own value exists exactly when k >= 4 and n - k >= 3, so the
    shapes n <= 10 of the property below include it."""
    for n in range(2, 11):
        for k in range(1, n):
            assert _two_slots_dropped(_frontiers(k, n)) == (k >= 4 and n - k >= 3)


def test_corner_folds_exactly_on_the_small_grids():
    """The corner sums its neighbours (1,2) and (2,1) out with it exactly
    when (1,3) and (3,1) lie outside a grid that has one of them: G(2,5),
    G(3,5) and G(3,6); every larger grid keeps a step per cell."""
    for n in range(2, 11):
        for k in range(1, n):
            steps = _frontiers(k, n)
            folded = sum(type(nb) is tuple for u, r, _, _ in steps for nb in (u, r))
            inside = [i <= k - 1 and j <= n - k - 1 for i, j in ((1, 2), (2, 1))]
            assert folded == (k <= 3 and n - k <= 3) * sum(inside)
            assert len(steps) == (k - 1) * (n - k - 1) - folded


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_folded_neighbour_weight_is_its_defining_sum(u, r, s):
    """F(u, r, s) = C(u, s) C(u + r - s, u), as `_folded` reads it off the
    tables, against sum_y C(u, y) C(r, y) C(y, s)."""
    binom, vand = _pascal(40)
    weights = _folded((0, 1), (u, r), 40, binom, vand)
    want = sum(comb(u, y) * comb(r, y) * comb(y, s) for y in range(min(u, r) + 1))
    assert (weights[s] if s < len(weights) else 0) == want
    assert len(weights) == min(u, r) + 1


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(st.integers(min_value=1, max_value=n - 1), st.just(n))),
    st.integers(min_value=0, max_value=8))
def test_packed_transfer_matches_oracle(kn, m):
    """The packed kernel against the cell-by-cell dict-of-scalars transfer,
    on every grid shape with n <= 10 (two dropped slots in one step from
    k = 4, the folded corner for G(2,5), G(3,5) and G(3,6))."""
    binom, vand = _pascal(m)
    assert _transfer_sum(_frontiers(*kn), m, binom, vand) == transfer_sum_oracle(*kn, m, binom)


def _deep_shapes():
    shapes = {(rc.k, rc.n): fit_trunc(PF_MAX_ORDER, rc.pf_max_zdeg)
              for rc in registry_load().values()}
    return sorted(shapes.items()) + [((4, 8), 12), ((3, 6), 60), ((2, 7), 120), ((3, 5), 40)]


@pytest.mark.parametrize("kn,order", _deep_shapes())
def test_packed_transfer_matches_oracle_deep(kn, order):
    """Every m up to the registry shapes' fit truncation, and deep orders
    whose weights need wide digits."""
    steps = _frontiers(*kn)
    binom, vand = _pascal(order)
    for m in range(order + 1):
        assert _transfer_sum(steps, m, binom, vand) == transfer_sum_oracle(*kn, m, binom)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(3, 10) for k in range(1, n // 2 + 1)
                                 if k != n - k])
def test_a_series_is_symmetric_under_duality(k, n):
    """G(k,n) = G(n-k,n): a_series sums the (k-1) x (n-k-1) grid for both,
    and the oracle sums the transposed (n-k-1) x (k-1) grid as given."""
    binom, _ = _pascal(12)
    want = tuple(Q(transfer_sum_oracle(n - k, n, m, binom), factorial(m) ** n) for m in range(13))
    assert a_series_qspecialized(k, n, 12).coeffs == want
    assert a_series_qspecialized(n - k, n, 12).coeffs == want


def test_keep_params_specializes_to_q_series():
    full = a_series_terms(2, 5, 4)
    assert at_ones(full, 4) == a_series_qspecialized(2, 5, 4)
    # G(2,5) has a 1 x 2 grid: two parameters, every exponent at most m
    assert all(len(s) == 2 and max(s, default=0) <= m and c > 0 for (m, s), c in full.items())


def test_param_degree_bound_prunes():
    full = a_series_terms(2, 5, 3)
    pruned = a_series_terms(2, 5, 3, bound=1)
    assert pruned == {key: c for key, c in full.items() if sum(key[1]) <= 1}
    assert a_series_terms(2, 5, 3, bound=0) == {(m, (0, 0)): full[m, (0, 0)] for m in range(4)}


def test_spec_validation():
    """The A-series functions check the shape and the order they are given."""
    for series in (a_series, a_series_terms, a_series_qspecialized):
        with pytest.raises(ValueError):
            series(0, 4, 3)
        with pytest.raises(ValueError):
            series(2, 4, -1)
        with pytest.raises(ValueError):
            series(2, 4, 10**9)  # resource cap
    with pytest.raises(ValueError, match="parameter degree bound -1 must be >= 0"):
        a_series_terms(2, 5, 2, bound=-1)


def test_terms_cap():
    """The listing is refused when (trunc + 1)^(cells + 1) exceeds MAX_TERMS,
    before anything is enumerated; G(4,8) to order 3 is exactly at the cap."""
    assert 4 ** ((4 - 1) * (8 - 4 - 1) + 1) == MAX_TERMS
    assert at_ones(a_series_terms(4, 8, 3), 3) == a_series_qspecialized(4, 8, 3)
    for k, n, trunc in ((4, 8, 4), (3, 6, 200), (2, 5, 101), (10**6, 2 * 10**6, 1)):
        with pytest.raises(UsageError, match=rf"of G\({k},{n}\) to order {trunc} exceed "
                                             rf"the resource cap {MAX_TERMS}"):
            a_series_terms(k, n, trunc)
    # to order 0 there is one assignment, whatever the grid; the listing
    # goes one cell at a time, so a grid of a thousand cells is listed too
    assert a_series_terms(2, 40, 0) == {(0, (0,) * 37): 1}
    assert a_series_terms(2, 1003, 0) == {(0, (0,) * 1000): 1}


class _Admitted(Exception):
    pass


def _raise_admitted(*args):
    raise _Admitted


def test_transfer_cap(monkeypatch):
    """`a_series` refuses cells x max(trunc + 1, 2)^(min(k, n - k) - 1) past
    MAX_TERMS before it builds the frontiers, and admits every shape and
    order the registry, the tests and CI use."""
    monkeypatch.setattr(hypergeom, "_frontiers", _raise_admitted)
    admitted = [(2, 4, MAX_ORDER), (2, 5, MAX_ORDER), (2, 6, MAX_ORDER), (2, 7, MAX_ORDER),
                (3, 6, MAX_ORDER), (4, 8, 3), (4, 8, 12), (4, 9, 12), (3, 7, 20), (2, 8, 20),
                (1, 40, MAX_ORDER), (1, 10**6, MAX_ORDER), (2, 40, 0)]
    for k, n, trunc in admitted:
        with pytest.raises(_Admitted):
            a_series(k, n, trunc)
    for k, n, trunc in ((1000, 2000, 0), (10**6, 2 * 10**6, 1),
                        (6, 12, 10), (4, 8, MAX_ORDER), (3, 40, MAX_ORDER)):
        with pytest.raises(UsageError, match=rf"transfer weights of G\({k},{n}\) to order "
                                             rf"{trunc} exceed the resource cap {MAX_TERMS}"):
            a_series(k, n, trunc)


def test_factorial_trick_positive_degrees():
    with pytest.raises(ValueError, match=r"degrees \(1, 0, 3\): every degree must be >= 1"):
        factorial_trick(PowerSeries("q", (1, 1)), (1, 0, 3))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=0, max_value=4),
)
def test_coefficients_positive_and_bounded(k, n, m):
    if not k < n:
        return
    f = a_series_qspecialized(k, n, m)
    c = f.coeffs[m]
    assert c > 0
    # crude bound: the grid sum is at most ((2^m)^2)^{grid} = 4^{m(k-1)(n-k-1)}
    assert c * factorial(m) ** n <= Q(4) ** (m * (k - 1) * (n - k - 1))


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=6), st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
def test_factorial_trick_coefficientwise(m, degs):
    f = PowerSeries("q", tuple(Q(1, i + 1) for i in range(m + 1)))
    phi = factorial_trick(f, tuple(degs))
    w = 1
    for l in degs:
        w *= factorial(l * m)
    assert phi.coeffs[m] == f.coeffs[m] * w
