from functools import cache
from math import comb

import pytest

from grasscy import qh
from grasscy.dop import DOp
from grasscy.errors import Mismatch
from grasscy.qh import PackingOverflow, build_qh_matrix, scalar_operator, verify_conjecture
from grasscy.toric import DIM_BOUND
from grasscy.upoly import PZERO, padd, pmul

import support

D = DOp.D()
q = DOp.z()


# every G(k,n) that DIM_BOUND admits: 79, up to G(1,35) and G(34,35)
SHAPES = [(k, n) for n in range(2, DIM_BOUND + 1) for k in range(1, n) if comb(n, k) <= DIM_BOUND]


def partition(a):
    """The partition of the k-subset a: lambda_i = a_(k+1-i) - (k+1-i)."""
    return tuple(x - i for i, x in reversed(list(enumerate(a, 1))))


def sigma1(M, a):
    """sigma_1 sigma_a as a set of (subset, q-power)."""
    return {(M.basis[row], e) for row, e in M.columns[M.basis.index(a)]}


def test_basis_count_and_order():
    M = build_qh_matrix(2, 4)
    assert M.dim == len(M.basis) == comb(4, 2)
    assert M.basis[0] == (1, 2)
    assert M.basis[-1] == (3, 4)
    sizes = [sum(a) for a in M.basis]
    assert sizes == sorted(sizes)


def test_pieri_classical():
    M = build_qh_matrix(2, 4)
    assert sigma1(M, (1, 2)) == {((1, 3), 0)}
    assert sigma1(M, (2, 3)) == {((2, 4), 0)}
    assert sigma1(M, (1, 3)) == {((1, 4), 0), ((2, 3), 0)}


def test_pieri_quantum_term():
    M = build_qh_matrix(2, 4)
    # top class sigma_(3,4) in G(2,4): sigma_1 * sigma_(3,4) = q sigma_(1,3)
    assert sigma1(M, (3, 4)) == {((1, 3), 1)}
    # sigma_(2,4): classical (3,4) plus quantum q sigma_(1,2)
    assert sigma1(M, (2, 4)) == {((3, 4), 0), ((1, 2), 1)}


@pytest.mark.parametrize("k,n", SHAPES)
def test_cyclic_rule_matches_the_rim_hook_rule(k, n):
    """Under a -> partition(a), the basis is the oracle's, in its order,
    and each column of sigma_1 is the oracle's column."""
    M = build_qh_matrix(k, n)
    basis, entries = support.pieri_matrix_oracle(k, n)
    assert [partition(a) for a in M.basis] == basis
    assert support.dense_matrix(M) == tuple(map(tuple, entries))


def _matmul(A, B, dim):
    return tuple(
        tuple(
            _psum(pmul(A[i][t], B[t][j]) for t in range(dim)) for j in range(dim)
        )
        for i in range(dim)
    )


def _psum(polys):
    acc = PZERO
    for p in polys:
        acc = padd(acc, p)
    return acc


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_grading(k, n):
    """Multiplication by sigma_1 raises degree by 1 with q of degree n."""
    M = build_qh_matrix(k, n)
    for a, column in zip(M.basis, M.columns):
        for row, e in column:
            assert sum(M.basis[row]) + e * n == sum(a) + 1


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_associativity_of_iterated_multiplication(k, n):
    """(sigma_1^a) * (sigma_1^b sigma_lam) == sigma_1^(a+b) sigma_lam as
    matrix identities M^a M^b = M^(a+b)."""
    M = build_qh_matrix(k, n)
    dim = M.dim
    E = support.dense_matrix(M)
    M2 = _matmul(E, E, dim)
    M3a = _matmul(M2, E, dim)
    M3b = _matmul(E, M2, dim)
    assert M3a == M3b
    M4 = _matmul(M2, M2, dim)
    assert M4 == _matmul(M3a, E, dim)


def test_scalar_operator_g24():
    assert scalar_operator(2, 4) == (D**5 - 2 * q * (2 * D + 1)).canonical()


def test_scalar_operator_g25():
    exp = (D**7 * (D - 1) ** 3 - q * D**3 * (11 * D * D + 11 * D + 3) - q * q).canonical()
    assert scalar_operator(2, 5) == exp


def test_scalar_operator_g26():
    exp = (
        D**9 * (D - 1) ** 5
        - q * D**5 * (2 * D + 1) * (13 * D * D + 13 * D + 4)
        - 3 * q * q * (3 * D + 4) * (3 * D + 2)
    ).canonical()
    assert scalar_operator(2, 6) == exp


def test_scalar_operator_g36():
    exp = (
        D**10 * (D - 1) ** 4
        - q * D**4 * (65 * D**4 + 130 * D**3 + 105 * D**2 + 40 * D + 6)
        + 4 * q * q * (4 * D + 3) * (4 * D + 5)
    ).canonical()
    assert scalar_operator(3, 6) == exp


# G(2,7): sum_i q^i P_i(D), as q-power -> (lowest D-power, coefficients of
# P_i from that power up); the operator the former elimination over Q(q) gave
G27_OPERATOR = {
    0: (11, [158184, -1344564, 5101434, -11369475, 16470909, -16194087, 10934469,
             -5002569, 1482975, -257049, 19773]),
    1: (7, [98865, 375687, 72501, -1219335, 20213037, -158100189, 543142275,
            -1087473933, 1422117372, -1269219198, 781381224, -327390960, 89284026,
            -14303016, 1021644]),
    2: (3, [-4429152, -20247552, -32902272, -22857588, -12626445, 31590, 40469624,
            4725396, -55097310, -279797608, 969493686, -1604525931, 1841691999,
            -1502966661, 849860361, -328425587, 82942545, -12353145, 823543]),
    3: (0, [59319, -36504, 32058, -65997438, -416382252, -934884210, -882442470,
            -292860465, -25350885, 7048993, 72210075, -43916691, -108825325,
            140825853, -46941951]),
    4: (0, [1787682, -569478, 419832, -14497238, -114859038, -353417596, -476007854,
            -238003927]),
    5: (0, [823543]),
}


def test_scalar_operator_g27_order_bounded_by_dim():
    op = scalar_operator(2, 7)
    exp = DOp({(i, lo + t): c for i, (lo, cs) in G27_OPERATOR.items() for t, c in enumerate(cs)})
    assert op == exp
    assert (op.order, op.zdeg) == (comb(7, 2), 5)
    assert max(abs(c).numerator.bit_length() for c in op.terms.values()) == 31


oracle = cache(support.scalar_operator_zq_oracle)


@pytest.mark.parametrize("k,n", support.GRASSMANNIANS)
def test_scalar_operator_matches_zq_oracle(k, n):
    """The packed elimination gives the operator of the elimination on
    coefficient tuples with the content taken over Q."""
    assert scalar_operator(k, n) == oracle(k, n)


def _spy_widths(monkeypatch) -> list[int]:
    """The width of each `qh._eliminate` pass, in order."""
    widths = []
    eliminate = qh._eliminate

    def spy(M, ls, B):
        widths.append(B)
        return eliminate(M, ls, B)

    monkeypatch.setattr(qh, "_eliminate", spy)
    return widths


@pytest.mark.parametrize("k,n", SHAPES)
def test_scalar_operator_settles_in_one_pass(monkeypatch, k, n):
    """The first width, read off the bound on the minors, passes every
    check: one elimination, and the operator of the Z[q] oracle."""
    widths = _spy_widths(monkeypatch)
    assert scalar_operator(k, n) == oracle(k, n)
    assert len(widths) == 1


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7)])
def test_scalar_operator_from_a_width_far_too_small(monkeypatch, k, n):
    """Starting at 4 bits, the checks fail and B doubles until the unpacked
    dependence is certified; the operator is the same."""
    monkeypatch.setattr(qh, "_first_width", lambda bound: 4)
    assert scalar_operator(k, n) == oracle(k, n)


def test_width_bound_exhausted_is_a_mismatch(monkeypatch):
    monkeypatch.setattr(qh, "_width_bound", lambda ls: 8)
    widths = _spy_widths(monkeypatch)
    with pytest.raises(PackingOverflow, match=r"G\(2,6\): .* at 8 bits"):
        scalar_operator(2, 6)
    assert widths == [2, 4, 8]
    assert issubclass(PackingOverflow, Mismatch)


@pytest.mark.parametrize("k,n", support.GRASSMANNIANS)
def test_next_functional_matches_the_dense_product(k, n):
    """Each nonzero Pieri entry is q^e, so the shifts give l M + theta(l)."""
    M = build_qh_matrix(k, n)
    assert all(e in (0, 1) for column in M.columns for _, e in column)
    _, entries = support.pieri_matrix_oracle(k, n)
    l = [PZERO] * M.dim
    l[M.basis.index(tuple(range(n - k + 1, n + 1)))] = (1,)
    for _ in range(M.dim + 1):
        nxt = qh.next_functional(l, M)
        assert nxt == support.next_functional_dense(l, entries)
        l = nxt


@pytest.mark.parametrize("k,n", [(k, n) for k, n in SHAPES if 2 * k < n])
def test_scalar_operator_of_the_dual_grassmannian(k, n):
    """G(k,n) and G(n-k,n) are the same variety, so they have one operator."""
    assert scalar_operator(k, n) == scalar_operator(n - k, n)


def _dense_vanishes(coeffs, ls) -> bool:
    for col in range(len(ls[0])):
        acc = PZERO
        for c, l in zip(coeffs, ls):
            acc = padd(acc, pmul(c, l[col]))
        if acc:
            return False
    return True


@pytest.mark.parametrize("coeffs,ls", [
    ([(1,)], [[(-2, 1)]]),  # q - 2, zero at q = 2
    ([(1,)], [[(-2**40, 1)]]),  # q - 2^40, zero at q = 2^40
    ([(2, 1), (-1,)], [[(1,), (0, 1)], [(2, 1), (0, 2, 1)]]),  # zero in both columns
    ([(2, 1), (-1,)], [[(1,), (0, 1)], [(2, 1), (0, 2, 2)]]),  # -q^2 in the second
    ([(1, -1), (1, 1)], [[(3, 1)], [(-3, 1)]]),  # -4q
    ([(1, 1), (-1, -1)], [[(5, 0, -7)], [(5, 0, -7)]]),  # zero
])
def test_value_certificate_matches_the_dense_check(coeffs, ls):
    assert qh._vanishes(coeffs, ls) == _dense_vanishes(coeffs, ls)


def test_verify_conjecture_reports():
    rep = verify_conjecture(2, 4, 15)
    assert rep.passed and rep.indicial_unique
    # a wrong operator must fail
    bad = D**5 - 3 * q * (2 * D + 1)
    rep = verify_conjecture(2, 4, 15, operator=bad)
    assert not rep.passed
