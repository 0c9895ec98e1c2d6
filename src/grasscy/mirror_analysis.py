"""From a maximally unipotent order-4 operator and its holomorphic solution
to instanton numbers: Frobenius logarithmic companions, the mirror map,
the Yukawa coupling in both coordinates, and the Lambert-series extraction."""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .dop import DOp
from .errors import Mismatch
from .record import record
from .series import (
    LogSeries,
    PowerSeries,
    Q,
    TruncationError,
    series_compose,
    series_exp,
    series_revert,
)

ZERO = Q(0)


class NotMUM(Mismatch):
    """Operator is not maximally unipotent at the origin (z^0 part must be a
    constant times D^order)."""


class NonIntegralInstanton(Mismatch):
    def __init__(self, index: int, value: Fraction):
        super().__init__(f"instanton number n_{index} = {value} is not an integer")
        self.index = index
        self.value = value


def _check_mum(P: DOp):
    for (i, j), _ in P.terms.items():
        if i == 0 and j != P.order:
            raise NotMUM(f"z^0 part contains D^{j}, expected only D^{P.order}")
    if (0, P.order) not in P.terms:
        raise NotMUM("z^0 part is missing entirely")


def _taylor_jet(coeffs: list[int], base: int, L: int) -> list[int]:
    """sum_j coeffs[j] x^j at x = base + eps, as the jet of its first L
    Taylor coefficients: [eps^t] = sum_j coeffs[j] C(j, t) base^(j-t)."""
    powers = [1]
    for _ in range(len(coeffs)):
        powers.append(powers[-1] * base)
    return [sum(c * comb(j, t) * powers[j - t] for j, c in enumerate(coeffs[t:], t) if c)
            for t in range(L)]


def _frobenius_jets(P: DOp, order_n: int, J: int) -> list[list[Q]]:
    """A_0..A_order_n of the deformed recurrence as jets modulo eps^J,
    1 <= J <= L = order: P's solutions are the eps^j coefficients of
    z^eps * sum A_m(eps) z^m, j < L, and reduction modulo eps^J is a ring
    map, so the first J entries of every jet are exact.

    The recurrence runs in integers: with P's denominators cleared its z^0
    part is c D^L, whose inverse at D = m + eps is
    (1/c) sum_t (-1)^t C(L+t-1, t) m^(-L-t) eps^t, and A_m = N_m / S_m with
    integer jets N_m and S_m = c^m (m!)^(2L-1), so that S_(m-i) divides S_m.
    """
    _check_mum(P)
    L = P.order
    if J > L:
        raise NotMUM(f"operator order must be >= {J}")
    zd = P.zdeg
    P = P.canonical()  # integer coefficients; a scalar multiple has the same solutions
    pi = [[c.numerator for c in P.coeff_poly(i)] for i in range(zd + 1)]
    c0 = pi[0][L]
    e = 2 * L - 1
    N = [[1] + [0] * (J - 1)]  # A_0 = 1
    S = [1]
    for m in range(1, order_n + 1):
        # rhs = S_(m-1) sum_{i>=1} p_i(m-i+eps) A_(m-i), then
        # A_m = -rhs m^(2L-1) (m+eps)^(-L) / (c m^(2L-1) S_(m-1))
        rhs = [0] * J
        ratio = 1  # S_(m-1) / S_(m-i) = c^(i-1) ((m-1)!/(m-i)!)^(2L-1)
        for i in range(1, min(m, zd) + 1):
            if i > 1:
                ratio *= c0 * (m - i + 1) ** e
            p, a = _taylor_jet(pi[i], m - i, J), N[m - i]
            for t in range(J):
                rhs[t] += ratio * sum(p[k] * a[t - k] for k in range(t + 1))
        inv = [(-1) ** t * comb(L + t - 1, t) * m ** (L - 1 - t) for t in range(J)]
        N.append([-sum(rhs[k] * inv[t - k] for k in range(t + 1)) for t in range(J)])
        S.append(S[-1] * c0 * m**e)
    return [[Q(x, s) for x in jet] for jet, s in zip(N, S)]


def frobenius_basis(P: DOp, order_n: int) -> list[LogSeries]:
    """All `order` Frobenius solutions at the MUM point, log degree
    0..order-1: the j-th collects the eps^j coefficient of the full jets."""
    L = P.order
    jets = _frobenius_jets(P, order_n, L)
    return [LogSeries(tuple(PowerSeries("z", tuple(jet[j - i] for jet in jets))
                            for i in range(j + 1)))
            for j in range(L)]


@record
class FrobeniusPair:
    phi0: PowerSeries  # holomorphic solution, phi0(0) = 1
    psi: PowerSeries  # log companion Phi_1 = phi0 log z + psi, psi(0) = 0


def frobenius(P: DOp, order_n: int) -> FrobeniusPair:
    """phi0 and psi from the jets modulo eps^2: the log coefficient of
    Phi_1 is phi0 by construction."""
    jets = _frobenius_jets(P, order_n, 2)
    phi0 = PowerSeries("z", tuple(jet[0] for jet in jets))
    psi = PowerSeries("z", tuple(jet[1] for jet in jets))
    return FrobeniusPair(phi0, psi)


@record
class MirrorMap:
    q_of_z: PowerSeries  # in z, q = z exp(psi/phi0)
    z_of_q: PowerSeries  # in q, compositional inverse


def mirror_map(fp: FrobeniusPair) -> MirrorMap:
    u = series_exp(fp.psi / fp.phi0)  # q/z
    qz = PowerSeries("z", (ZERO,) + u.coeffs)  # z * u, known one order further
    zq = series_revert(qz)
    return MirrorMap(qz, PowerSeries("q", zq.coeffs))


def yukawa_z(P: DOp, n0: int, order_n: int) -> PowerSeries:
    """Series expansion of the z-coordinate Yukawa coupling, normalized so
    that its value at z = 0 is n0.

    With P = sum_j p_j(z) D^j of order 4 and MUM, the coupling solves the
    first-order equation 2 p4 D K + p3 K = 0, i.e. K'/K = -(1/2) p3 / (z p4).
    (In d/dz form b4 = z^4 p4 and b3 = z^3 (p3 + 6 p4), so this is
    -(1/2)(b3/b4 - 6/z).)  MUM makes p3(0) = 0 and p4(0) != 0, so with
    p_(j,i) the coefficient of z^i in p_j,
    K_m = -sum_{i>=1} (2 p_(4,i) (m-i) + p_(3,i)) K_(m-i) / (2 p_(4,0) m).
    """
    if P.order != 4:
        raise NotMUM("Yukawa normalization requires an order-4 operator")
    _check_mum(P)
    p3 = [P.terms.get((i, 3), ZERO) for i in range(P.zdeg + 1)]
    p4 = [P.terms.get((i, 4), ZERO) for i in range(P.zdeg + 1)]
    K = [Q(n0)]
    for m in range(1, order_n + 1):
        acc = sum((2 * p4[i] * (m - i) + p3[i]) * K[m - i] for i in range(1, min(m, P.zdeg) + 1))
        K.append(-acc / (2 * p4[0] * m))
    return PowerSeries("z", tuple(K))


def _flat_weight(fp: FrobeniusPair) -> tuple[PowerSeries, PowerSeries]:
    """(theta t, phi0^2 (theta t)^3) in z, for t = log z + psi/phi0 the flat
    coordinate and theta = z d/dz, so theta t = 1 + theta(psi/phi0).  The
    coupling pushed to t is K_z / (phi0^2 (theta t)^3)."""
    dt = 1 + (fp.psi / fp.phi0).theta()
    return dt, fp.phi0 * fp.phi0 * dt * dt * dt


def yukawa_q(kz3: PowerSeries, fp: FrobeniusPair, maps: MirrorMap) -> PowerSeries:
    """Push the coupling to the flat coordinate in one composition: since
    q z'(q)/z(q) = 1/(theta t)(z(q)),
    K_q(q) = [K_z / phi0^2](z(q)) (q z'(q)/z(q))^3 = [K_z / (phi0^2 (theta t)^3)](z(q)).
    Its truncation is the least of its inputs'."""
    return series_compose(kz3 / _flat_weight(fp)[1], maps.z_of_q)


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


def normal_form_check(P: DOp, kz3: PowerSeries, order_n: int) -> bool:
    """Check the D_t^2 (1/K_q) D_t^2 normal form in z: each Frobenius
    solution, divided by the holomorphic one, is annihilated in every degree
    0..order_n.

    With t = log z + psi/phi0 the flat coordinate, D_t = (D t)^(-1) D for
    D = z d/dz and D t = 1 + D(psi/phi0), and the coupling pushed to t is
    1/K_q = phi0^2 (D t)^3 / K_z, so neither the mirror map is inverted nor
    any solution composed into q.
    """
    kz3 = kz3.truncate(order_n)  # TruncationError if K_z is known to less
    basis = frobenius_basis(P, order_n)
    phi0 = basis[0].component(0)
    inv_phi0 = phi0.reciprocal()
    dt, weight = _flat_weight(FrobeniusPair(phi0, basis[1].component(0)))
    inv_dt = dt.reciprocal()
    inv_k = weight / kz3

    def d_t(f: LogSeries) -> LogSeries:
        return f.theta() * inv_dt

    return all(d_t(d_t(d_t(d_t(sol * inv_phi0)) * inv_k)).is_zero() for sol in basis)
