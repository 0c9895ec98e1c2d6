from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscy.dop import DOp
from grasscy.mirror_analysis import (
    NonIntegralInstanton,
    NotMUM,
    _frobenius_jets,
    extract_instantons,
    frobenius,
    mirror_map,
    normal_form_check,
    yukawa_q,
    yukawa_z,
)
from grasscy.pipeline import fit_operator
from grasscy.registry import registry_load
from grasscy.series import (
    PowerSeries,
    SeriesDomainError,
    TruncationError,
    series_compose,
    series_exp,
)

from support import (
    apply_log,
    exp_oracle,
    frobenius_basis_oracle,
    normal_form_check_oracle,
    normal_form_check_q_oracle,
    rationals,
    yukawa_q_oracle,
    yukawa_z_ddz_oracle,
)

D = DOp.D()
z = DOp.z()

QUARTIC = D**4 - 16 * z * (2 * D + 1) ** 2 * (4 * D + 1) * (4 * D + 3)


def quartic_phi(n):
    from math import factorial

    return PowerSeries(
        "z",
        tuple(
            Q(factorial(4 * m) * factorial(2 * m), factorial(m) ** 6)
            for m in range(n + 1)
        ),
    )


def test_frobenius_basis_is_annihilated():
    basis = frobenius_basis_oracle(QUARTIC, 12)
    assert len(basis) == 4
    assert [s.log_degree for s in basis] == [0, 1, 2, 3]
    for s in basis:
        assert apply_log(QUARTIC, s).is_zero()


@st.composite
def mum_operators(draw):
    """c D^L + sum_{1<=i<=zd, j<=L} c_ij z^i D^j with rational c_ij and a
    leading c other than 0 and 1."""
    L = draw(st.integers(min_value=1, max_value=4))
    zd = draw(st.integers(min_value=1, max_value=3))
    terms = {(0, L): draw(rationals(5, 4).filter(lambda c: c not in (0, 1)))}
    for i in range(1, zd + 1):
        for j in range(L + 1):
            terms[(i, j)] = draw(rationals(5, 4))
    return DOp(terms)


@settings(max_examples=100, deadline=None)
@given(mum_operators().filter(lambda P: P.order >= 2), st.integers(min_value=0, max_value=8))
def test_frobenius_pair_is_the_head_of_the_basis(P, order_n):
    """The pair from jets modulo eps^2 is component 0 of the first two
    solutions of the full basis, solved in Fraction jets modulo eps^L."""
    fp, basis = frobenius(P, order_n), frobenius_basis_oracle(P, order_n)
    assert fp.phi0 == basis[0].component(0)
    assert fp.psi == basis[1].component(0)


def test_frobenius_checks_mum_before_the_order():
    with pytest.raises(NotMUM, match=r"z\^0 part contains D\^0"):
        frobenius(D + 1 - z, 5)
    with pytest.raises(NotMUM, match="operator order must be >= 2"):
        frobenius(D - z, 5)


def test_frobenius_jets_at_order_one():
    """The kernel runs at every order L >= 1: theta - z(theta + 1/2) has
    A_m(eps) = prod_(j<=m) (j - 1/2 + eps)/(j + eps), whose value at 0 gives
    (1 - z)^(-1/2) = sum C(2m,m) z^m / 4^m, and whose derivative there is
    A_m(0) sum_(j<=m) (1/(j - 1/2) - 1/j)."""
    jets = _frobenius_jets(D - z * (D + Q(1, 2)), 20)
    assert [jet[0] for jet in jets] == [Q(comb(2 * m, m), 4**m) for m in range(21)]
    assert [jet[1] for jet in jets] == [
        Q(comb(2 * m, m), 4**m) * sum(1 / (j - Q(1, 2)) - Q(1, j) for j in range(1, m + 1))
        for m in range(21)]


def test_frobenius_holomorphic_solution():
    fp = frobenius(QUARTIC, 10)
    assert fp.phi0 == quartic_phi(10)
    assert fp.psi.coeffs[0] == 0


def test_not_mum_rejected():
    kz = yukawa_z(QUARTIC, 8, 5)
    with pytest.raises(NotMUM):
        frobenius(D**4 + D**3 - z, 5)
    with pytest.raises(NotMUM):
        yukawa_z(D**4 + D, 1, 5)
    with pytest.raises(NotMUM):
        normal_form_check(D**4 + D, kz, 5)
    with pytest.raises(NotMUM, match="order-4"):
        normal_form_check(D**5 - z, kz, 5)
    for P in (D**4 + D, D**5 - z):
        assert_same_order_4_rejection(P, kz)


def test_mirror_map_inverse_pair():
    """z(q) composed into q(z) = z exp(psi/phi0), built here from the pair
    itself, gives back z."""
    fp = frobenius(QUARTIC, 12)
    z_of_q = mirror_map(fp)
    q_of_z = PowerSeries("z", (Q(0),) + series_exp(fp.psi / fp.phi0).coeffs)
    n = min(q_of_z.trunc, z_of_q.trunc)
    back = series_compose(q_of_z.truncate(n), PowerSeries("z", z_of_q.coeffs[: n + 1]))
    assert back == PowerSeries("z", (0, 1) + (0,) * (n - 1))


def test_yukawa_z_quartic():
    kz = yukawa_z(QUARTIC, 8, 10)
    assert kz == PowerSeries("z", tuple(8 * Q(1024) ** m for m in range(11)))


def assert_same_order_4_rejection(P, kz):
    """yukawa_z and normal_form_check reject P with one NotMUM message."""
    with pytest.raises(NotMUM) as from_yukawa:
        yukawa_z(P, 1, 5)
    with pytest.raises(NotMUM) as from_normal_form:
        normal_form_check(P, kz, 5)
    assert str(from_yukawa.value) == str(from_normal_form.value)


def test_yukawa_requires_order_4():
    kz = yukawa_z(QUARTIC, 8, 5)
    for P in (D**3 - z, D**5 - z):
        with pytest.raises(NotMUM, match="order-4"):
            yukawa_z(P, 1, 5)
        assert_same_order_4_rejection(P, kz)


mum_order_4 = st.tuples(
    rationals(5, 4).filter(lambda c: c != 0),
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 4), rationals(5, 4)), max_size=6),
).map(lambda t: DOp({(0, 4): t[0], **{(i, j): c for i, j, c in t[1]}}))


@settings(max_examples=100)
@given(mum_order_4, st.integers(1, 20), st.integers(0, 8))
def test_yukawa_z_matches_ddz_route(P, n0, order_n):
    assert yukawa_z(P, n0, order_n) == yukawa_z_ddz_oracle(P, n0, order_n)


@pytest.mark.parametrize("name", sorted(registry_load()))
def test_yukawa_q_matches_the_q_side_product(name):
    """On every registry case at count 30: K_q by one composition in z
    keeps the truncation count, and equals the q-side product on degrees
    0..count.  The q-side product loses one degree, so it is given K_z
    and a Frobenius pair to count + 1; `run_case` builds K_z to count."""
    count = 30
    rc = registry_load()[name]
    op = fit_operator(rc)
    kz = yukawa_z(op, rc.n0, count + 1)
    fp = frobenius(op, count)
    kq = yukawa_q(kz, fp, mirror_map(fp))
    assert kq.trunc == count
    fp1 = frobenius(op, count + 1)
    assert kq.coeffs == yukawa_q_oracle(kz, fp1, mirror_map(fp1)).coeffs[: count + 1]


@pytest.mark.parametrize("name", sorted(registry_load()))
def test_exp_of_the_flat_coordinate_is_integral(name):
    """u = q/z = exp(psi/phi0) on every registry case at order 60, where
    psi/phi0 has a denominator of about 100 bits: equal to the Fraction
    recurrence, and in Z[[z]] (Lian-Yau)."""
    fp = frobenius(fit_operator(registry_load()[name]), 60)
    a = fp.psi / fp.phi0
    u = series_exp(a).coeffs
    assert u == exp_oracle(a)
    assert all(c.denominator == 1 for c in u)


def test_extract_instantons_lambert_inversion():
    # build K_q = n0 + sum n_d d^3 q^d/(1-q^d) from a chosen table, then invert
    table = [5, -7, 11, 0, 3]
    n0 = 4
    N = 6
    coeffs = [Q(n0)] + [Q(0)] * N
    for d, nd in enumerate(table, start=1):
        for m in range(d, N + 1, d):
            coeffs[m] += nd * d**3
    kq = PowerSeries("q", tuple(coeffs))
    assert extract_instantons(kq, 5) == table


def test_extract_instantons_integrality_enforced():
    kq = PowerSeries("q", (Q(4), Q(3), Q(0), Q(0)))
    with pytest.raises(NonIntegralInstanton):
        extract_instantons(kq, 2)


def test_extract_instantons_needs_enough_coefficients():
    kq = PowerSeries("q", (Q(4), Q(8)))
    with pytest.raises(TruncationError):
        extract_instantons(kq, 5)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=5, max_size=5), st.integers(min_value=1, max_value=100))
def test_instanton_roundtrip_property(table, n0):
    N = 6
    coeffs = [Q(n0)] + [Q(0)] * N
    for d, nd in enumerate(table, start=1):
        for m in range(d, N + 1, d):
            coeffs[m] += nd * d**3
    kq = PowerSeries("q", tuple(coeffs))
    assert extract_instantons(kq, 5) == table


def test_quartic_pipeline_normal_form():
    fp = frobenius(QUARTIC, 16)
    kz = yukawa_z(QUARTIC, 8, 13)
    kq = yukawa_q(kz, fp, mirror_map(fp))
    assert normal_form_check(QUARTIC, kz, 10)
    assert normal_form_check_q_oracle(QUARTIC, kq, 10)
    bad = PowerSeries("z", kz.coeffs[:4] + (kz.coeffs[4] + 1,) + kz.coeffs[5:])
    assert not normal_form_check(QUARTIC, bad, 10)
    bad_q = PowerSeries("q", kq.coeffs[:4] + (kq.coeffs[4] + 1,) + kq.coeffs[5:])
    assert not normal_form_check_q_oracle(QUARTIC, bad_q, 10)


def test_normal_form_check_needs_kz_to_order():
    """A certificate asked for order 20 must not pass on K_z known to 10,
    nor one on K_z = 0, which has no inverse."""
    kz = yukawa_z(QUARTIC, 8, 10)
    assert normal_form_check(QUARTIC, kz, 10)
    with pytest.raises(TruncationError):
        normal_form_check(QUARTIC, kz, 20)
    for check in (normal_form_check, normal_form_check_oracle):
        with pytest.raises(SeriesDomainError):
            check(QUARTIC, kz * 0, 10)


@pytest.mark.parametrize("name", sorted(registry_load()))
def test_normal_form_in_z_matches_q_oracle(name):
    """On every registry case the z-form certificate and the q-route oracle
    both accept K_z at order 12 and both reject K_z + z^3 K_z / 7."""
    rc = registry_load()[name]
    op = fit_operator(rc)
    fp = frobenius(op, 13)
    z_of_q = mirror_map(fp)
    kz = yukawa_z(op, rc.n0, 13)
    bad = kz + kz.shift(3) * Q(1, 7)
    for k, ok in ((kz, True), (bad, False)):
        assert normal_form_check(op, k, 12) is ok
        assert normal_form_check_q_oracle(op, yukawa_q(k, fp, z_of_q), 12) is ok


def hypergeometric_cy(a, b, c):
    """D^4 - c z (D + a)(D + 1 - a)(D + b)(D + 1 - b): a Calabi-Yau
    operator for every a, b and c != 0."""
    return D**4 - c * z * (D + a) * (D + 1 - a) * (D + b) * (D + 1 - b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(lambda *abc: (hypergeometric_cy(*abc), True), rationals(2, 4),
                           rationals(2, 4), rationals(5, 4).filter(lambda c: c != 0)),
                 mum_order_4.map(lambda P: (P, None))),
       st.integers(1, 20), st.integers(4, 8), st.integers(1, 12))
def test_normal_form_check_matches_oracle(op_and_want, n0, order_n, d):
    """The two identities against the four-solution check in z: on operators
    that have the normal form, on random MUM operators (which mostly do not,
    and whose failure the oracle sees by degree 3), with their own K_z, and
    with K_z changed in one degree d, which only an order >= d can see."""
    P, want = op_and_want
    kz = yukawa_z(P, n0, 12)
    ok = normal_form_check(P, kz, order_n)
    assert ok is normal_form_check_oracle(P, kz, order_n)
    assert want is None or ok is want
    bad = kz + PowerSeries("z", tuple(int(m == d) for m in range(13)))
    assert (normal_form_check(P, bad, order_n) is normal_form_check_oracle(P, bad, order_n)
            is (ok and d > order_n))


@pytest.mark.parametrize("name", sorted(registry_load()))
def test_normal_form_check_on_the_registry(name):
    """True on every registry operator and False once 1 is added to its
    z D, z^2 D^3 or z^3 D coefficient, as the oracle finds; and for
    X113_G25, K_z changed in degree d is rejected at order n exactly when
    d <= n."""
    rc = registry_load()[name]
    op = fit_operator(rc)
    for P, ok in ((op, True), (op + z * D, False), (op + z * z * D**3, False),
                  (op + z**3 * D, False)):
        k = yukawa_z(P, rc.n0, 12)
        assert normal_form_check(P, k, 12) is normal_form_check_oracle(P, k, 12) is ok
    if name == "X113_G25":
        kz = yukawa_z(op, rc.n0, 12)
        for d in (1, 3, 6, 7, 8, 10):
            bad = kz + PowerSeries("z", tuple(int(m == d) for m in range(13)))
            for n in (5, 6, 7, 8, 10, 12):
                assert normal_form_check(op, bad, n) is normal_form_check_oracle(op, bad, n) is (d > n)
