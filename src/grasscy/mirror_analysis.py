"""From a maximally unipotent order-4 operator and its holomorphic solution
to instanton numbers: the first logarithmic companion, the mirror map, the
Yukawa coupling in both coordinates, the Lambert-series extraction, and the
normal-form check."""

from __future__ import annotations

from .dop import DOp
from .errors import Mismatch
from .hypergeom import check_order
from .record import record
from .series import (
    PowerSeries,
    Q,
    SeriesDomainError,
    TruncationError,
    series_compose,
    series_exp,
    series_revert,
)
from .upoly import PZERO, Poly, padd, pmul, pnorm, ptheta

ZERO = Q(0)


class NotMUM(Mismatch):
    """Operator is not maximally unipotent at the origin (z^0 part must be a
    constant times D^order)."""


class NonIntegralInstanton(Mismatch):
    def __init__(self, index: int, value: Q):
        super().__init__(f"instanton number n_{index} = {value} is not an integer")
        self.index = index
        self.value = value


def _check_mum(P: DOp):
    for (i, j), _ in P.terms.items():
        if i == 0 and j != P.order:
            raise NotMUM(f"z^0 part contains D^{j}, expected only D^{P.order}")
    if (0, P.order) not in P.terms:
        raise NotMUM("z^0 part is missing entirely")


def _check_order_4_mum(P: DOp):
    """The Yukawa coupling and the normal form are defined for order-4 MUM
    operators only."""
    if P.order != 4:
        raise NotMUM(f"the Yukawa coupling needs an order-4 operator, got order {P.order}")
    _check_mum(P)


def _frobenius_jets(P: DOp, order_n: int) -> list[list[Q]]:
    """A_0..A_order_n of the deformed recurrence as jets modulo eps^2, for P
    MUM of any order L >= 1: P's solutions are the eps^j coefficients of
    z^eps * sum A_m(eps) z^m, j < L, and reduction modulo eps^2 is a ring
    map, so both entries of every jet are exact.

    The recurrence runs in integers: with P's denominators cleared its z^0
    part is c D^L, and A_m = N_m / S_m with integer jets N_m and
    S_m = c^m (m!)^(L+1), so that S_(m-i) divides S_m.  Modulo eps^2,
    m^(L+1) (m+eps)^(-L) = m - L eps, so N_m is an integer combination of
    the right-hand side.  Each p_i enters through its value and derivative
    at m - i, from one Horner pass.
    """
    L = P.order
    zd = P.zdeg
    P = P.canonical()  # integer coefficients; a scalar multiple has the same solutions
    pi = [[c.numerator for c in P.coeff_poly(i)] for i in range(zd + 1)]
    c0 = pi[0][L]
    e = L + 1
    N = [[1, 0]]  # A_0 = 1
    S = [1]
    for m in range(1, order_n + 1):
        # rhs = S_(m-1) sum_{i>=1} p_i(m-i+eps) A_(m-i), then
        # N_m = S_m A_m = -rhs m^(L+1) (m+eps)^(-L) = -rhs (m - L eps)
        rhs = [0, 0]
        ratio = 1  # S_(m-1) / S_(m-i) = c^(i-1) ((m-1)!/(m-i)!)^(L+1)
        for i in range(1, min(m, zd) + 1):
            if i > 1:
                ratio *= c0 * (m - i + 1) ** e
            x, p, dp = m - i, 0, 0
            for c in reversed(pi[i]):
                p, dp = p * x + c, dp * x + p
            a = N[m - i]
            rhs[0] += ratio * p * a[0]
            rhs[1] += ratio * (p * a[1] + dp * a[0])
        N.append([-m * rhs[0], L * rhs[0] - m * rhs[1]])
        S.append(S[-1] * c0 * m**e)
    return [[Q(x, s) for x in jet] for jet, s in zip(N, S)]


@record
class FrobeniusPair:
    phi0: PowerSeries  # holomorphic solution, phi0(0) = 1
    psi: PowerSeries  # log companion Phi_1 = phi0 log z + psi, psi(0) = 0


def frobenius(P: DOp, order_n: int) -> FrobeniusPair:
    """phi0 and psi from the jets modulo eps^2: the log coefficient of
    Phi_1 is phi0 by construction."""
    check_order(order_n)
    _check_mum(P)
    if P.order < 2:
        raise NotMUM("operator order must be >= 2")
    jets = _frobenius_jets(P, order_n)
    phi0 = PowerSeries("z", tuple(jet[0] for jet in jets))
    psi = PowerSeries("z", tuple(jet[1] for jet in jets))
    return FrobeniusPair(phi0, psi)


def mirror_map(fp: FrobeniusPair) -> PowerSeries:
    """z(q), a series in q: the compositional inverse of q = z exp(psi/phi0)."""
    u = series_exp(fp.psi / fp.phi0)  # q/z
    qz = PowerSeries("z", (ZERO,) + u.coeffs)  # z * u, known one order further
    return PowerSeries("q", series_revert(qz).coeffs)


def _yukawa_operator(P: DOp) -> DOp:
    """2 p4 D + p3, for P = sum_j p_j(z) D^j of order 4 and MUM.  MUM makes
    p3(0) = 0 and p4(0) != 0, so the operator is MUM of order 1."""
    _check_order_4_mum(P)
    return DOp({(i, j - 3): (j - 2) * c for (i, j), c in P.terms.items() if j >= 3})


def yukawa_z(P: DOp, n0: int, order_n: int) -> PowerSeries:
    """Series expansion of the z-coordinate Yukawa coupling, normalized so
    that its value at z = 0 is n0.

    With P of order 4 and MUM, the coupling solves the first-order equation
    2 p4 D K + p3 K = 0, i.e. K'/K = -(1/2) p3 / (z p4).  (In d/dz form
    b4 = z^4 p4 and b3 = z^3 (p3 + 6 p4), so this is
    -(1/2)(b3/b4 - 6/z).)  K is n0 times the holomorphic solution of that
    operator (`_yukawa_operator`), from the Frobenius recurrence.
    """
    check_order(order_n)
    jets = _frobenius_jets(_yukawa_operator(P), order_n)
    return PowerSeries("z", tuple(n0 * jet[0] for jet in jets))


def _flat_weight(fp: FrobeniusPair) -> PowerSeries:
    """phi0^2 (theta t)^3 in z, for t = log z + psi/phi0 the flat coordinate
    and theta = z d/dz, so theta t = 1 + theta(psi/phi0).  The coupling
    pushed to t is K_z / (phi0^2 (theta t)^3)."""
    dt = 1 + (fp.psi / fp.phi0).theta()
    return fp.phi0 * fp.phi0 * dt * dt * dt


def yukawa_q(kz3: PowerSeries, fp: FrobeniusPair, z_of_q: PowerSeries) -> PowerSeries:
    """Push the coupling to the flat coordinate in one composition with
    z(q) (`mirror_map`): since q z'(q)/z(q) = 1/(theta t)(z(q)),
    K_q(q) = [K_z / phi0^2](z(q)) (q z'(q)/z(q))^3 = [K_z / (phi0^2 (theta t)^3)](z(q)).
    Its truncation is the least of its inputs'."""
    return series_compose(kz3 / _flat_weight(fp), z_of_q)


def extract_instantons(kq3: PowerSeries, count: int) -> list[int]:
    """Invert K_q = n0 + sum n_m m^3 q^m/(1-q^m); every n_m must be integral."""
    if kq3.trunc < count:
        raise TruncationError(f"need {count} coefficients, series has {kq3.trunc}")
    ns: dict[int, int] = {}
    for m in range(1, count + 1):
        c = kq3.coeffs[m]
        for d in range(1, m):
            if m % d == 0:
                c -= ns[d] * d**3
        nm = c / m**3
        if nm.denominator != 1:
            raise NonIntegralInstanton(m, nm)
        ns[m] = int(nm)
    return [ns[m] for m in range(1, count + 1)]


def _cy_residual(P: DOp) -> Poly:
    """8 p4^3 (a1 - (1/2 a2 a3 - 1/8 a3^3 + a2' - 3/4 a3 a3' - 1/2 a3'')) in
    Z[z], for P = sum_j p_j(z) D^j of order 4, a_j = p_j / p4 and ' = D =
    z d/dz: zero exactly when P satisfies the Calabi-Yau condition of
    Almkvist, van Enckevort, van Straten and Zudilin (Tables of Calabi-Yau
    equations, math/0507430), under which the exterior square of P has
    order 5.

    The paper states the condition for P written in d/dz, but it is derived
    from the Leibniz rule alone, so any derivation of Q(z) may stand for
    d/dz: here D, on P's own coefficients.  The value is the d/dz form's
    residual divided by z^9 (there b4 = z^4 p4, so 8 b4^3 carries z^12, and
    the bracket, of weight 3, takes off z^3).  With w_j = p_j' p4 - p_j p4'
    it is 4 p4 (2 w2 + p2 p3 - 2 p1 p4 - w3') + (8 p4' - 6 p3) w3 - p3^3."""
    P = P.canonical()  # integer coefficients; the residual is homogeneous in P
    p1, p2, p3, p4 = (pnorm(P.terms.get((i, j), ZERO).numerator for i in range(P.zdeg + 1))
                      for j in range(1, 5))

    def lin(*terms) -> Poly:
        """sum of c * f_1 * ... * f_r over the terms (c, f_1, ..., f_r)."""
        out = PZERO
        for c, *fs in terms:
            prod = (c,)
            for f in fs:
                prod = pmul(prod, f)
            out = padd(out, prod)
        return out

    w2 = lin((1, ptheta(p2), p4), (-1, p2, ptheta(p4)))
    w3 = lin((1, ptheta(p3), p4), (-1, p3, ptheta(p4)))
    inner = lin((2, w2), (1, p2, p3), (-2, p1, p4), (-1, ptheta(w3)))
    return lin((4, p4, inner), (8, ptheta(p4), w3), (-6, p3, w3), (-1, p3, p3, p3))


def normal_form_check(P: DOp, kz3: PowerSeries, order_n: int) -> bool:
    """Check the normal form: D_t^2 (1/K_q) D_t^2 annihilates every solution
    of P divided by the holomorphic one, for t the flat coordinate and K_q
    the coupling that kz3 pushes to t.

    Two identities decide it.  P, of order 4 and MUM, has that normal form
    for some K exactly when it satisfies the Calabi-Yau condition
    (`_cy_residual`), an identity in Z[z] that holds to all orders.  The K
    it has is then, up to a constant factor, the solution of
    2 p4 D K + p3 K = 0 (`yukawa_z`), so kz3 passes when that equation's
    residual vanishes in degrees 0..order_n.
    """
    first_order = _yukawa_operator(P)
    kz3 = kz3.truncate(order_n)  # TruncationError if K_z is known to less
    if kz3[0] == 0:
        raise SeriesDomainError("the normal form needs K_z(0) != 0")
    return not _cy_residual(P) and first_order.apply(kz3).is_zero()
