"""Shared by the test modules: a fast strategy for bounded rationals, and
schoolbook Fraction oracles that the integer kernels in grasscy are
checked against."""

from fractions import Fraction as Q
from math import comb

from hypothesis import strategies as st

from grasscy.laurent import LaurentPoly
from grasscy.series import LogSeries, PowerSeries


def rationals(bound: int, max_denominator: int):
    """Rationals n/d in [-bound, bound] with 1 <= d <= max_denominator.

    Drawn as a plain pair of integers and filtered to the range, which is
    much cheaper per draw than `st.fractions`."""
    return st.builds(
        Q,
        st.integers(-bound * max_denominator, bound * max_denominator),
        st.integers(1, max_denominator),
    ).filter(lambda x: -bound <= x <= bound)


# -- series ------------------------------------------------------------------


def mul_oracle(f: PowerSeries, g: PowerSeries) -> tuple:
    n = min(f.trunc, g.trunc)
    out = [Q(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += f.coeffs[i] * g.coeffs[j]
    return tuple(out)


def reciprocal_oracle(f: PowerSeries) -> tuple:
    inv = [1 / f.coeffs[0]]
    for m in range(1, f.trunc + 1):
        acc = sum((f.coeffs[j] * inv[m - j] for j in range(1, m + 1)), Q(0))
        inv.append(-acc / f.coeffs[0])
    return tuple(inv)


def exp_oracle(f: PowerSeries) -> tuple:
    # m E_m = sum_{j=1..m} j f_j E_(m-j)
    out = [Q(1)]
    for m in range(1, f.trunc + 1):
        out.append(sum((j * f.coeffs[j] * out[m - j] for j in range(1, m + 1)), Q(0)) / m)
    return tuple(out)


def log_oracle(f: PowerSeries) -> tuple:
    # m L_m = m f_m - sum_{j=1..m-1} j L_j f_(m-j)
    out = [Q(0)]
    for m in range(1, f.trunc + 1):
        acc = m * f.coeffs[m] - sum((j * out[j] * f.coeffs[m - j] for j in range(1, m)), Q(0))
        out.append(acc / m)
    return tuple(out)


# -- Frobenius basis ---------------------------------------------------------


def _jet_mul(a, b, L):
    out = [Q(0)] * L
    for i, x in enumerate(a):
        for j in range(L - i):
            out[i + j] += x * b[j]
    return out


def _jet_inv(a, L):
    inv = [1 / a[0]] + [Q(0)] * (L - 1)
    for m in range(1, L):
        inv[m] = -sum((a[j] * inv[m - j] for j in range(1, m + 1)), Q(0)) / a[0]
    return inv


def _poly_at_jet(coeffs, base, L):
    """sum_j coeffs[j] x^j at x = base + eps, as a jet of length L."""
    x = ([Q(base), Q(1)] + [Q(0)] * L)[:L]
    acc = [Q(0)] * L
    for c in reversed(coeffs):
        acc = _jet_mul(acc, x, L)
        acc[0] += c
    return acc


def frobenius_basis_oracle(P, order_n: int) -> list:
    """The deformed recurrence sum_i p_i(m-i+eps) A_(m-i)(eps) = 0 solved in
    Fraction jets modulo eps^L; the j-th solution collects the eps^j
    coefficient of z^eps sum_m A_m(eps) z^m."""
    L = P.order
    pi = [P.coeff_poly(i) for i in range(P.zdeg + 1)]
    jets = [[Q(1)] + [Q(0)] * (L - 1)]
    for m in range(1, order_n + 1):
        rhs = [Q(0)] * L
        for i in range(1, min(m, P.zdeg) + 1):
            term = _jet_mul(_poly_at_jet(pi[i], m - i, L), jets[m - i], L)
            rhs = [a + b for a, b in zip(rhs, term)]
        inv0 = _jet_inv(_poly_at_jet(pi[0], m, L), L)
        jets.append([-x for x in _jet_mul(rhs, inv0, L)])
    return [
        LogSeries(tuple(PowerSeries("z", tuple(jet[j - i] for jet in jets)) for i in range(j + 1)))
        for j in range(L)
    ]


# -- Laurent polynomials -------------------------------------------------------


def laurent_pow_ct_bruteforce(L: LaurentPoly, m: int) -> Q:
    """Full m-fold product, then coefficient extraction."""
    p = LaurentPoly.constant(L.nvars, 1)
    for _ in range(m):
        p = p * L
    return p.constant_term()


# -- A-series ----------------------------------------------------------------


def transfer_sum_oracle(steps, m: int, binom: list[list[int]]) -> int:
    """The grid sum by transfer over frontier states kept as tuples of cell
    values -> summed weight, one dict update per (state, new value); a cell
    no later cell reads is summed out as C(up + right, up) (Vandermonde)."""
    states = {(): 1}
    for up_slot, right_slot, keep, kept_new in steps:
        nxt: dict[tuple, int] = {}
        for state, w in states.items():
            up = m if up_slot is None else state[up_slot]
            right = m if right_slot is None else state[right_slot]
            bu, br = binom[up], binom[right]
            base = tuple(state[t] for t in keep)
            if kept_new:
                for s in range(min(up, right) + 1):
                    key = base + (s,)
                    nxt[key] = nxt.get(key, 0) + w * bu[s] * br[s]
            else:
                nxt[base] = nxt.get(base, 0) + w * comb(up + right, up)
        states = nxt
    return states[()]
