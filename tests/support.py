"""Shared by the test modules: a fast strategy for bounded rationals,
schoolbook Fraction oracles that the integer kernels in grasscy are
checked against, and a block with a given cap on int digits."""

import sys
from contextlib import contextmanager
from fractions import Fraction as Q
from itertools import combinations, zip_longest
from math import comb, factorial, gcd, isqrt, lcm
from operator import add, le

from hypothesis import strategies as st

from grasscy.dop import SCREEN_PRIME, AmbiguousAnnihilator, DOp, NoAnnihilator
from grasscy.laurent import LaurentPoly
from grasscy.linalg import echelon, nullspace, rank
from grasscy.mirror_analysis import FrobeniusPair, mirror_map
from grasscy.qh import NoDependence
from grasscy.record import record
from grasscy.series import PowerSeries, SeriesDomainError, series_compose, series_exp
from grasscy.toric import DIM_BOUND
from grasscy.upoly import PONE, PZERO, padd, pdivexact, pmul, pnorm, ptheta


@contextmanager
def int_digit_cap(cap: int):
    """Set the interpreter's cap on the decimal digits of an int read or
    printed (0 for none, 4300 by default) for the block, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cap)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# every G(k,n) with 2 <= k <= n-2 that DIM_BOUND admits: twelve, up to G(3,7)
GRASSMANNIANS = [(k, n) for n in range(4, 10) for k in range(2, n - 1) if comb(n, k) <= DIM_BOUND]


def rationals(bound: int, max_denominator: int):
    """Rationals n/d in [-bound, bound] with 1 <= d <= max_denominator.

    Drawn as a plain pair of integers and filtered to the range, which is
    much cheaper per draw than `st.fractions`."""
    return st.builds(
        Q,
        st.integers(-bound * max_denominator, bound * max_denominator),
        st.integers(1, max_denominator),
    ).filter(lambda x: -bound <= x <= bound)


# -- polytopes -----------------------------------------------------------------


def facets_by_subset_search(delta):
    """The facets of a polytope with the origin inside, by search: (facets,
    reflexive) as `toric.facets_and_reflexivity` returns them.

    Each facet hyperplane is a.x = 1 with a rational, solved through every
    linearly independent dim-subset of vertices, in integers: a = x / den,
    and a.v <= 1 is tested as x.v <= den.  A subset inside the contact set
    of a facet already found is skipped; every facet is still reached,
    through an independent subset of its own vertices."""
    d = delta.dim
    verts = delta.vertices
    facets = {}
    contacts = []  # vertex bitmasks of the facets found
    for subset in combinations(range(len(verts)), d):
        mask = sum(1 << s for s in subset)
        if any(mask & ~cm == 0 for cm in contacts):
            continue
        e, pivots = echelon([list(verts[s]) + [1] for s in subset])
        if pivots != list(range(d)):
            continue
        den = lcm(*(e[i][i] for i in range(d)))
        x = [e[i][d] * (den // e[i][i]) for i in range(d)]
        vals = [sum(xi * vi for xi, vi in zip(x, v)) for v in verts]
        if any(val > den for val in vals):
            continue
        # a supporting hyperplane of a lower-dimensional face is no facet
        on = [i for i, val in enumerate(vals) if val == den]
        if rank([list(verts[i]) + [1] for i in on]) < d:
            continue
        contacts.append(sum(1 << i for i in on))
        g = gcd(*x)
        facets[tuple(-xi // g for xi in x)] = Q(den, g)
    return sorted(facets.items()), all(c == 1 for c in facets.values())


# -- linear algebra ------------------------------------------------------------


def rref(rows) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form in Fractions: (matrix, pivot columns)."""
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


def integrate0(f: PowerSeries) -> PowerSeries:
    """Termwise integral from 0; the result is known one order further."""
    return PowerSeries(f.var, (Q(0),) + tuple(c / (m + 1) for m, c in enumerate(f.coeffs)))


def series_log(a: PowerSeries) -> PowerSeries:
    """Formal logarithm; requires a(0) = 1.  theta log a = theta a / a, so
    L_m = [theta a / a]_m / m."""
    if a.coeffs[0] != 1:
        raise SeriesDomainError("log needs constant term 1")
    r = a.theta() / a
    return PowerSeries(a.var, (Q(0),) + tuple(c / m for m, c in enumerate(r.coeffs[1:], 1)))


def log_oracle(f: PowerSeries) -> tuple:
    # m L_m = m f_m - sum_{j=1..m-1} j L_j f_(m-j)
    out = [Q(0)]
    for m in range(1, f.trunc + 1):
        acc = m * f.coeffs[m] - sum((j * out[j] * f.coeffs[m - j] for j in range(1, m)), Q(0))
        out.append(acc / m)
    return tuple(out)


# -- log-extended series: F = sum_j f_j(z) (log z)^j / j! ----------------------


@record
class LogSeries:
    components: tuple[PowerSeries, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("log series needs at least one component")
        var, tr = comps[0].var, comps[0].trunc
        for c in comps:
            if c.var != var or c.trunc != tr:
                raise ValueError("all components must share variable and truncation")
        while len(comps) > 1 and comps[-1].is_zero():
            comps = comps[:-1]
        object.__setattr__(self, "components", comps)

    @property
    def var(self) -> str:
        return self.components[0].var

    @property
    def trunc(self) -> int:
        return self.components[0].trunc

    @property
    def log_degree(self) -> int:
        return len(self.components) - 1

    def component(self, j: int) -> PowerSeries:
        if j < len(self.components):
            return self.components[j]
        return PowerSeries.zero(self.var, self.trunc)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def theta(self) -> "LogSeries":
        """z d/dz, using D(f L^j/j!) = (Df) L^j/j! + f L^{j-1}/(j-1)!."""
        out = [self.component(j).theta() + self.component(j + 1) for j in range(len(self.components))]
        return LogSeries(tuple(out))

    def shift(self, i: int) -> "LogSeries":
        return LogSeries(tuple(c.shift(i) for c in self.components))

    def __add__(self, other: "LogSeries") -> "LogSeries":
        n = max(len(self.components), len(other.components))
        tr = min(self.trunc, other.trunc)
        return LogSeries(tuple(
            self.component(j).truncate(tr) + other.component(j).truncate(tr) for j in range(n)
        ))

    def mul_series(self, s) -> "LogSeries":
        """Times a PowerSeries in the same variable, or a scalar."""
        return LogSeries(tuple(c * s for c in self.components))

    __mul__ = mul_series


def apply_log(P: DOp, f: LogSeries) -> LogSeries:
    """P applied to a log series, one theta at a time: sum c z^i D^j f."""
    by_j: dict[int, dict] = {}
    for (i, j), c in P.terms.items():
        by_j.setdefault(j, {})[i] = c
    acc = None
    power = f  # D^j f, computed incrementally
    for j in range(P.order + 1):
        if j > 0:
            power = power.theta()
        if j in by_j:
            for i, c in by_j[j].items():
                piece = power.shift(i) * c
                acc = piece if acc is None else acc + piece
    if acc is None:
        raise ValueError("cannot apply the zero operator to a log series")
    return acc


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


# -- Yukawa coupling in the flat coordinate, by products in q ------------------


def yukawa_q_oracle(kz3: PowerSeries, fp: FrobeniusPair, z_of_q: PowerSeries) -> PowerSeries:
    """K_q(q) = [K_z / phi0^2](z(q)) (q z'(q)/z(q))^3 with the last factor
    formed in q, as the quotient of two series divisible by q; known to one
    degree less than its inputs."""
    n = min(kz3.trunc, fp.phi0.trunc, z_of_q.trunc)
    base = kz3.truncate(n) / (fp.phi0.truncate(n) * fp.phi0.truncate(n))
    zq = z_of_q.truncate(n)
    in_q = series_compose(base, zq)
    num = PowerSeries("q", tuple(Q(m) * c for m, c in enumerate(zq.coeffs))[1:])
    den = PowerSeries("q", zq.coeffs[1:])
    factor = num / den
    return in_q * factor * factor * factor


# -- Yukawa coupling through the d/dz form --------------------------------------


def stirling2(j: int, t: int) -> int:
    if t == 0:
        return 1 if j == 0 else 0
    return sum((-1) ** (t - i) * comb(t, i) * i**j for i in range(t + 1)) // factorial(t)


def to_ddz_form(P) -> list[list[Q]]:
    """Coefficients b_t(z) of P = sum_t b_t(z) (d/dz)^t, each as a dense
    coefficient list in z, from D^j = sum_t S(j,t) z^t (d/dz)^t."""
    r, d = P.order, P.zdeg
    out = [[Q(0)] * (d + r + 1) for _ in range(r + 1)]
    for (i, j), c in P.terms.items():
        for t in range(j + 1):
            out[t][i + t] += c * stirling2(j, t)
    return out


def yukawa_z_ddz_oracle(P, n0: int, order_n: int) -> PowerSeries:
    """W'/W = -(1/2)(b3/b4 - 6/z) on the d/dz form of an order-4 MUM
    operator, with b3 = z^3 B3 and b4 = z^4 B4."""
    b = to_ddz_form(P)
    if any(b[3][:3]) or any(b[4][:4]):
        raise AssertionError("b3 must start at z^3 and b4 at z^4")
    pad = [Q(0)] * (order_n + 2)
    B3, B4 = (b[3][3:] + pad)[: order_n + 2], (b[4][4:] + pad)[: order_n + 2]
    num = [x - 6 * y for x, y in zip(B3, B4)]
    if num[0] != 0:
        raise AssertionError("the residue of b3/b4 at 0 must be 6")
    r = PowerSeries("z", num[1:]) / PowerSeries("z", B4[: order_n + 1])
    w_log = integrate0(r) * Q(-1, 2)
    return (series_exp(w_log) * n0).truncate(order_n)


# -- normal form in z, solution by solution -----------------------------------


def normal_form_check_oracle(P, kz3: PowerSeries, order_n: int) -> bool:
    """The D_t^2 (1/K_q) D_t^2 normal form in z: each Frobenius solution,
    divided by the holomorphic one, is annihilated in every degree
    0..order_n.

    With t = log z + psi/phi0 the flat coordinate, D_t = (D t)^(-1) D for
    D = z d/dz and D t = 1 + D(psi/phi0), and the coupling pushed to t is
    1/K_q = phi0^2 (D t)^3 / K_z, so neither the mirror map is inverted nor
    any solution composed into q."""
    kz3 = kz3.truncate(order_n)  # TruncationError if K_z is known to less
    basis = frobenius_basis_oracle(P, order_n)
    phi0 = basis[0].component(0)
    inv_phi0 = phi0.reciprocal()
    dt = 1 + (basis[1].component(0) / phi0).theta()
    inv_dt = dt.reciprocal()
    inv_k = phi0 * phi0 * dt * dt * dt / kz3

    def d_t(f: LogSeries) -> LogSeries:
        return f.theta() * inv_dt

    return all(d_t(d_t(d_t(d_t(sol * inv_phi0)) * inv_k)).is_zero() for sol in basis)


# -- normal form through the flat coordinate q ---------------------------------


def compose_inner(F: LogSeries, zq: PowerSeries, log_corr: PowerSeries) -> LogSeries:
    """Substitute z = zq(t) where zq = t * u(t), u(0) != 0.

    log z becomes log t + log_corr with log_corr = log u(t), so the result
    is a LogSeries in the new variable t."""
    tr = min(F.trunc, zq.trunc, log_corr.trunc)
    top = F.log_degree
    out = [PowerSeries.zero(zq.var, tr) for _ in range(top + 1)]
    c_pows = [PowerSeries.one(zq.var, tr)]
    for _ in range(top):
        c_pows.append(c_pows[-1] * log_corr.truncate(tr))
    for j, fj in enumerate(F.components):
        fj_t = series_compose(fj.truncate(tr), zq.truncate(tr))
        # L^j/j! = sum_{i<=j} (log t)^i/i! * c^{j-i}/(j-i)!
        for i in range(j + 1):
            out[i] = out[i] + fj_t * (c_pows[j - i] * Q(1, factorial(j - i)))
    return LogSeries(tuple(out))


def normal_form_check_q_oracle(P, kq3: PowerSeries, order_n: int) -> bool:
    """The D^2 (1/K_q) D^2 normal form in q: invert the mirror map, push
    each Frobenius solution divided by the holomorphic one to q, and apply
    the operator with D = q d/dq.  Checks degrees up to
    min(order_n, kq3.trunc - 1)."""
    basis = frobenius_basis_oracle(P, max(order_n, kq3.trunc))
    phi0 = basis[0].component(0)
    z_of_q = mirror_map(FrobeniusPair(phi0, basis[1].component(0)))
    n = min(phi0.trunc, z_of_q.trunc, kq3.trunc)
    zq = z_of_q.truncate(n)
    log_corr = series_log(PowerSeries("q", zq.coeffs[1:]))  # log(z(q)/q)
    inv_k = kq3.truncate(n).reciprocal()
    inv_phi0_q = series_compose(phi0.truncate(n), zq).reciprocal()
    for sol in basis:
        t = compose_inner(sol, zq, log_corr).mul_series(inv_phi0_q)
        w = t.theta().theta().mul_series(inv_k.truncate(t.trunc)).theta().theta()
        tr = min(w.trunc, order_n)
        if any(c != 0 for comp in w.components for c in comp.coeffs[: tr + 1]):
            return False
    return True


# -- Laurent polynomials -------------------------------------------------------


def laurent_pow_ct_bruteforce(L: LaurentPoly, m: int) -> Q:
    """Full m-fold product, then coefficient extraction."""
    p = LaurentPoly.constant(L.nvars, 1)
    for _ in range(m):
        p = p * L
    return p.terms.get((0,) * p.nvars, Q(0))


def ct_by_param_degree_bruteforce(L: LaurentPoly, powers, nparams: int = 0,
                                  bound: int = 0) -> dict:
    """Constant terms of L^m over the leading (torus) coordinates of L,
    its trailing nparams coordinates being tracked parameters, by full
    products L^0..L^M: at each m in powers, the terms with torus part 0 and
    every parameter exponent <= bound, keyed by their parameter exponents.
    Summed at each m, with no bound reached, they are `laurent.ct_of_product`
    of L with its parameters set to 1."""
    nv = L.nvars - nparams
    out = {}
    p = LaurentPoly.constant(L.nvars, 1)
    for m in range(max(powers, default=0) + 1):
        if m in powers:
            out[m] = {e[nv:]: c for e, c in p.terms.items()
                      if not any(e[:nv]) and all(x <= bound for x in e[nv:])}
        p = p * L
    return out


def _times_tuples(acc: dict, terms: list, lo: tuple, hi: tuple) -> dict:
    """acc * P in integers, keeping the exponents inside the box lo <= e <= hi."""
    out: dict = {}
    for e1, c1 in acc.items():
        for e2, c2 in terms:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c and all(map(le, lo, e)) and all(map(le, e, hi))}


def ct_by_param_degree_tuples(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """`ct_by_param_degree_bruteforce` by a route independent of the
    library's walk, the meet-in-the-middle sweep CT(L^m) = sum_e [L^a]_e [L^b]_(-e), a = m // 2,
    b = m - a: L^t is built for t up to ceil(M / 2), M the largest power,
    pruned to what the M - t factors left can cancel, with each product of
    monomials a tuple sum and each box test a comparison per coordinate.
    It does not validate its input (a negative parameter exponent gives a
    wrong answer)."""
    powers = set(powers)
    top = max(powers, default=0)
    nv = L.nvars - nparams
    den = lcm(*(c.denominator for c in L.terms.values()))
    terms = [(e, c.numerator * (den // c.denominator)) for e, c in L.terms.items()]
    up = [max([0] + [e[c] for e in L.terms]) for c in range(nv)]
    down = [max([0] + [-e[c] for e in L.terms]) for c in range(nv)]

    def box(left: int) -> tuple[tuple, tuple]:
        return (tuple(-left * u for u in up) + (0,) * nparams,
                tuple(left * d for d in down) + (bound,) * nparams)

    result: dict = {}
    half = other = {(0,) * L.nvars: 1}
    for m in range(top + 1):
        if m % 2:
            half, other = other, _times_tuples(other, terms, *box(top - m // 2 - 1))
        else:
            half = other
        if m not in powers:
            continue
        by_torus: dict = {}
        for e, c in other.items():
            by_torus.setdefault(e[:nv], []).append((e[nv:], c))
        out: dict = {}
        for e, c1 in half.items():
            for t2, c2 in by_torus.get(tuple(-x for x in e[:nv]), ()):
                t = tuple(map(add, e[nv:], t2))
                if all(x <= bound for x in t):
                    out[t] = out.get(t, 0) + c1 * c2
        scale = den**m
        result[m] = {t: Q(c, scale) for t, c in out.items() if c}
    return result


# -- A-series ----------------------------------------------------------------


def transfer_sum_oracle(k: int, n: int, m: int, binom: list[list[int]]) -> int:
    """The grid sum of the (k-1) x (n-k-1) grid by transfer over its cells
    in decreasing i + j, one cell at a time and every cell summed
    explicitly, the last one too: a state is the tuple of the values a
    later cell still reads, mapped to its summed weight, with one dict
    update per (state, new value).  binom[a][s] = C(a, s) for a <= m."""
    cells = sorted(((i, j) for i in range(1, k) for j in range(1, n - k)), key=lambda c: -sum(c))
    parents = lambda i, j: [c for c in ((i + 1, j), (i, j + 1)) if c in cells]
    last_read = {c: idx for idx, cell in enumerate(cells) for c in parents(*cell)}
    live: list[tuple[int, int]] = []
    states = {(): 1}
    for idx, (i, j) in enumerate(cells):
        slot = {c: t for t, c in enumerate(live)}
        keep = [t for t, c in enumerate(live) if last_read[c] > idx]
        kept_new = last_read.get((i, j), -1) > idx
        nxt: dict[tuple, int] = {}
        for state, w in states.items():
            up, right = (state[slot[c]] if c in slot else m for c in ((i + 1, j), (i, j + 1)))
            base = tuple(state[t] for t in keep)
            for s in range(min(up, right) + 1):
                key = base + (s,) if kept_new else base
                nxt[key] = nxt.get(key, 0) + w * binom[up][s] * binom[right][s]
        states = nxt
        live = [live[t] for t in keep] + ([(i, j)] if kept_new else [])
    return states[()]


# -- univariate polynomials over Q and the quantum operator --------------------


def psub(a, b):
    return padd(a, tuple(-x for x in b))


def pdivmod(a, b):
    """Quotient and remainder over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        if len(r) < i + len(b):
            continue
        c = Q(r[i + len(b) - 1]) / lb
        if c == 0:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return pnorm(q), pnorm(r)


def pgcd(a, b):
    """Monic gcd over Q; () when both are zero."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return tuple(x / Q(a[-1]) for x in a) if a else PZERO


def _cross(p, a, f, b, d):
    """(p a - f b) / d, exact in Z[q]."""
    return pdivexact(psub(pmul(p, a), pmul(f, b)), d)


Partition = tuple[int, ...]  # weakly decreasing, length k, parts <= n-k


def partitions_in_box(k: int, n: int) -> list[Partition]:
    """All partitions fitting the k x (n-k) box, graded-lex order."""
    box = n - k
    out: list[Partition] = []

    def rec(prefix: list[int], maxpart: int):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for p in range(maxpart, -1, -1):
            rec(prefix + [p], p)

    rec([], box)
    out.sort(key=lambda lam: (sum(lam), tuple(-p for p in lam)))
    return out


def quantum_pieri_sigma1(lam: Partition, k: int, n: int) -> list[tuple[Partition, int]]:
    """sigma_1 * sigma_lam as a list of (partition, q-power), by the rim-hook
    rule: one box added to a row, or, when the first row is full and the
    last is not empty, the first row dropped and one box taken from every
    other row, with one power of q."""
    box = n - k
    out = []
    for i in range(k):
        upper = box if i == 0 else lam[i - 1]
        if lam[i] + 1 <= upper:
            out.append((lam[:i] + (lam[i] + 1,) + lam[i + 1:], 0))
    if lam[0] == box and lam[-1] >= 1:
        out.append((tuple(p - 1 for p in lam[1:]) + (0,), 1))
    return out


def pieri_matrix_oracle(k: int, n: int) -> tuple[list[Partition], list[list[tuple]]]:
    """The partitions of the k x (n-k) box and the dense matrix of sigma_1
    on them, entries[mu][lam] a polynomial in q, from `quantum_pieri_sigma1`."""
    basis = partitions_in_box(k, n)
    index = {lam: i for i, lam in enumerate(basis)}
    entries = [[PZERO] * len(basis) for _ in basis]
    for col, lam in enumerate(basis):
        for mu, qpow in quantum_pieri_sigma1(lam, k, n):
            entries[index[mu]][col] = padd(entries[index[mu]][col], (0,) * qpow + PONE)
    return basis, entries


def dense_matrix(M) -> tuple:
    """The sparse columns of a `qh.QHMatrix` as a dim x dim grid of
    polynomials in q."""
    E = [[PZERO] * M.dim for _ in range(M.dim)]
    for col, column in enumerate(M.columns):
        for row, e in column:
            E[row][col] = (0,) * e + PONE
    return tuple(map(tuple, E))


def next_functional_dense(l: list, entries: list[list[tuple]]) -> list:
    """`qh.next_functional` by a dense product with the oracle's matrix:
    l M + theta(l), each entry product a full polynomial multiplication."""
    out = []
    for col in range(len(l)):
        acc = ptheta(l[col])
        for mid in range(len(l)):
            acc = padd(acc, pmul(l[mid], entries[mid][col]))
        out.append(acc)
    return out


def scalar_operator_zq_oracle(k: int, n: int) -> DOp:
    """The Bareiss elimination over Z[q] on dense coefficient tuples and the
    oracle's Pieri matrix, with the same lowest-degree pivot rule, and the
    content removed by the monic gcd over Q."""
    basis, entries = pieri_matrix_oracle(k, n)
    dim = len(basis)
    l = [PZERO] * dim
    l[basis.index((n - k,) * k)] = PONE
    pivots = []  # (column, entry, row, trace)
    for rho in range(dim + 1):
        row, trace = l, [PZERO] * rho + [PONE]
        prev = PONE
        for pcol, piv, prow, ptrace in pivots:
            f = row[pcol]
            row = [_cross(piv, a, f, b, prev) for a, b in zip(row, prow)]
            trace = [_cross(piv, a, f, b, prev)
                     for a, b in zip_longest(trace, ptrace, fillvalue=PZERO)]
            prev = piv
        if not any(row):
            break
        _, pcol = min((len(e), c) for c, e in enumerate(row) if e)
        pivots.append((pcol, row[pcol], row, trace))
        l = next_functional_dense(l, entries)
    else:
        raise NoDependence(f"no dependence among l_0..l_{dim} for G({k},{n})")
    content = PZERO
    for t in trace:
        content = pgcd(content, t)
    op = DOp({(i, j): c for j, t in enumerate(trace)
              for i, c in enumerate(pdivmod(t, content)[0])}).canonical()
    if op.order != rho:
        raise NoDependence(f"operator for G({k},{n}) has order {op.order}, expected {rho}")
    return op


def apply_oracle(P: DOp, f: PowerSeries) -> PowerSeries:
    """[P f]_m = sum_(i,j) c_(i,j) (m - i)^j f_(m-i), term by term in Fractions."""
    out = [Q(0)] * (f.trunc + 1)
    for (i, j), c in P.terms.items():
        for m in range(i, f.trunc + 1):
            out[m] += c * (m - i) ** j * f.coeffs[m - i]
    return PowerSeries(f.var, tuple(out))


def echelon_mod_p_oracle(rows: list[list[int]], ncols: int) -> dict[int, list[int]]:
    """`dop._echelon_mod_p` on lists: each row reduced against the pivot
    rows column by column, every entry reduced modulo SCREEN_PRIME at every
    step; pivot column -> row, 1 at the pivot and 0 left of it."""
    p = SCREEN_PRIME
    echelon: dict[int, list[int]] = {}
    for row in rows:
        for c in range(ncols):
            x = row[c]
            if not x:
                continue
            prow = echelon.get(c)
            if prow is None:
                inv = pow(x, -1, p)
                echelon[c] = [y * inv % p for y in row]
                if len(echelon) == ncols:
                    return echelon
                break
            row = [(a - x * b) % p for a, b in zip(row, prow)]
    return echelon


def lift_from_echelon_oracle(echelon: dict[int, list[int]],
                             rows: list[list[int]]) -> list[int] | None:
    """The integer kernel vector of `rows` read off their modulo-p echelon
    basis of rank ncols - 1: back substitution with 1 at the free column,
    each entry reconstructed as the n/d with |n|, d <= sqrt(p/2) by the half
    extended Euclidean algorithm, denominators cleared.  None unless every
    entry reconstructs and the vector annihilates every row exactly."""
    p = SCREEN_PRIME
    ncols = len(rows[0])
    v = [0] * ncols
    v[next(c for c in range(ncols) if c not in echelon)] = 1
    for c in sorted(echelon, reverse=True):
        v[c] = -sum(echelon[c][t] * v[t] for t in range(c + 1, ncols)) % p
    bound = isqrt(p // 2)
    lifted = []
    for a in v:
        r0, r1, t0, t1 = p, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound or gcd(r1, t1) != 1:
            return None
        lifted.append(Q(r1, t1))
    den = lcm(*(x.denominator for x in lifted))
    ints = [x.numerator * (den // x.denominator) for x in lifted]
    if any(sum(a * b for a, b in zip(row, ints)) for row in rows):
        return None
    return ints


def pf_fit_per_order_oracle(f: PowerSeries, max_order: int, max_zdeg: int) -> DOp:
    """pf_fit's earlier route: one modular echelon per order r, on the
    columns of (r, max_zdeg), whose leading columns are those of every
    candidate (r, d); a candidate one short of full rank lifts its kernel
    vector from that echelon form, and any other rank deficit or a failed
    lift goes to the exact nullspace."""
    b = f.coeffs
    system = []
    for m in range(f.trunc + 1):
        den = lcm(*(b[m - i].denominator for i in range(min(m, max_zdeg) + 1)))
        row = []
        for i in range(max_zdeg + 1):
            x = b[m - i].numerator * (den // b[m - i].denominator) if m >= i else 0
            row.extend(x * (m - i) ** j for j in range(max_order + 1))
        system.append(row)
    system_p = [[x % SCREEN_PRIME for x in row] for row in system]
    candidates = sorted(((r, d) for r in range(1, max_order + 1) for d in range(max_zdeg + 1)),
                        key=lambda rd: (rd[0] + rd[1], rd[0]))
    echelons: dict = {}
    for r, d in candidates:
        cols = [(i, j) for i in range(d + 1) for j in range(r + 1)]
        index = [i * (max_order + 1) + j for i, j in cols]
        if r not in echelons:
            full = [i * (max_order + 1) + j for i in range(max_zdeg + 1) for j in range(r + 1)]
            echelons[r] = echelon_mod_p_oracle([[row[t] for t in full] for row in system_p], len(full))
        k = len(cols)
        echelon = {c: prow[:k] for c, prow in echelons[r].items() if c < k}
        if len(echelon) == k:
            continue
        rows = [[row[t] for t in index] for row in system]
        v = lift_from_echelon_oracle(echelon, rows) if len(echelon) == k - 1 else None
        if v is None:
            basis = [u for u in nullspace(rows) if any(x != 0 for x in u)]
            if not basis:
                continue
            if len(basis) > 1:
                raise AmbiguousAnnihilator(
                    f"nullspace dimension {len(basis)} at minimal bounds ({r},{d})")
            v = basis[0]
        return DOp({col: x for col, x in zip(cols, v) if x != 0}).canonical()
    raise NoAnnihilator(f"no annihilator within bounds ({max_order},{max_zdeg})")
