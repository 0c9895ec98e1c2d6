"""Laurent-polynomial side of the mirror construction: Lax operators of
G(r,s), the complete-intersection mirror equation system, and constant-term
period series used as an independent oracle for the hypergeometric side.

A period tracks one parameter q as the last coordinate of the exponent
vectors, with non-negative exponents; the constant term is taken over the
leading (torus) coordinates only.
"""

from __future__ import annotations

from .errors import UsageError, shown
from .hypergeom import check_order
from .laurent import LaurentPoly, ct_of_product
from .linalg import solve
from .record import record
from .series import PowerSeries, Q
from .toric import check_vertex_entries, nef_partition_sets, vertex_labels, vertex_vector

ZERO = Q(0)


def lax_operator(r: int, s: int, q=None, track_q: bool = True) -> LaurentPoly:
    """The Laurent polynomial sum of the vertex monomials of the degeneration
    polytope Delta(r,s), each with coefficient 1 except v_(r,s-r), which
    carries q.

    In the variables X_[a,b] = f_(b,a) this is X_[1,1] +
    sum X_[a,b]^{-1}(X_[a+1,b] + X_[a,b+1]) + q X_[s-r,r]^{-1}.  With
    track_q the exponent vectors get one extra coordinate recording the
    power of q, and q must not be given; otherwise q is a rational
    (default 1).  Delta(r,s) past toric.VERTEX_ENTRY_BOUND is refused.
    """
    *labels, last = vertex_labels(r, s)
    if track_q and q is not None:
        raise UsageError(f"q = {q} is given, but track_q keeps q as a variable")
    pad = (0,) if track_q else ()
    terms = {vertex_vector(r, s, lab) + pad: Q(1) for lab in labels}
    qexp = vertex_vector(r, s, last)
    if track_q:
        terms[qexp + (1,)] = Q(1)
    else:
        terms[qexp] = Q(q if q is not None else 1)
    return LaurentPoly(r * (s - r) + len(pad), terms)


class UnboundedPeriod(UsageError):
    """No grading makes the per-degree contributions finite."""


def _grading(g: LaurentPoly) -> Q:
    """The weight mu of q in a grading w.e + mu.t = 1 on every monomial of
    g, t its last exponent."""
    rows = [[Q(x) for x in e] for e in g.terms]
    sol = solve(rows, [Q(1)] * len(rows))
    if sol is None:
        raise UnboundedPeriod("monomials do not lie on an affine hyperplane at height 1")
    if sol[-1] < 0:
        raise UnboundedPeriod(f"parameter weights {sol[-1:]} must be non-negative")
    return sol[-1]


def period_ct(g: LaurentPoly, nparams: int, order: int) -> PowerSeries:
    """Period series sum_d CT(g^m) q^d of g, whose last coordinate is the
    tracked parameter q (nparams must be 1).

    The grading fixes the power that feeds each degree: a constant term of
    g^m has q-degree d = m/mu, so at q = 1 one `ct_of_product` call over the
    powers m = mu.d, d = 1..order, serves them all.  With mu > 0 no two
    monomials of g share their torus exponents, so setting q = 1 merges
    none; with mu = 0 no power m > 0 has a constant term.  The order is
    checked first (`hypergeom.check_order`), then nparams and the exponents
    of q."""
    check_order(order)
    if nparams != 1:
        raise UsageError(f"a period tracks one parameter, so nparams must be 1, "
                         f"got {shown(nparams)}")
    if g.nvars and any(e[-1] < 0 for e in g.terms):
        raise UsageError("tracked parameter exponents must be non-negative")
    coeffs = [Q(1)] + [ZERO] * order
    if g.terms:
        if g.nvars < 2:
            raise UsageError("no torus coordinates left after the tracked parameters")
        mu = _grading(g)
        if mu > 0:
            torus = LaurentPoly(g.nvars - 1, {e[:-1]: c for e, c in g.terms.items()})
            degree = {int(mu * d): d for d in range(1, order + 1) if (mu * d).denominator == 1}
            for m, c in ct_of_product([(torus, 1)], degree).items():
                coeffs[degree[m]] = c
    return PowerSeries("q", tuple(coeffs))


@record
class MirrorSystem:
    k: int
    n: int
    partition: tuple[tuple[int, ...], ...]  # J_1..J_r, labels 1..n
    polys: tuple[LaurentPoly, ...]  # p_1..p_n over the torus coordinates
    equations: tuple[LaurentPoly, ...]  # 1 - sum_{j in J_i} p_j


class ConstraintViolation(UsageError):
    pass


def _coeff(coeffs: dict, key) -> Q:
    if key not in coeffs:
        raise UsageError(f"missing coefficient {key}")
    return Q(coeffs[key])


def mirror_system(k: int, n: int, degrees, partition, a_coeffs: dict, b_coeffs: dict) -> MirrorSystem:
    """Build the n vertex polynomials p_i and the r mirror equations.

    a_coeffs maps (i,j) for the u-vertices, b_coeffs maps (l,m) for the
    v-vertices.  The (k-1)(n-k-1) compatibility constraints
    a_{k+1-i,j-1} b_{k+1-i,j} = a_{k+1-i,j} b_{k-i,j} are enforced.
    Delta(k,n) past toric.VERTEX_ENTRY_BOUND is refused first.
    """
    check_vertex_entries(k, n)
    degrees = tuple(degrees)
    if sum(degrees) != n:
        raise UsageError("degrees must sum to n")
    partition = tuple(tuple(sorted(J)) for J in partition)
    if len(partition) != len(degrees) or any(len(J) != d for J, d in zip(partition, degrees)):
        raise UsageError("partition block sizes must match the degrees")
    covered = sorted(x for J in partition for x in J)
    if covered != list(range(1, n + 1)):
        raise UsageError("partition must cover {1..n} exactly once")

    for i in range(1, k):
        for j in range(1, n - k):
            lhs = _coeff(a_coeffs, (k + 1 - i, j - 1)) * _coeff(b_coeffs, (k + 1 - i, j))
            rhs = _coeff(a_coeffs, (k + 1 - i, j)) * _coeff(b_coeffs, (k - i, j))
            if lhs != rhs:
                raise ConstraintViolation(
                    f"a[{k+1-i},{j-1}] b[{k+1-i},{j}] != a[{k+1-i},{j}] b[{k-i},{j}]"
                )

    nv = k * (n - k)
    sets = nef_partition_sets(k, n)
    polys = []
    for idx, labels in enumerate(sets, start=1):
        terms: dict = {}
        for kind, i, j in labels:
            c = _coeff(a_coeffs if kind == "u" else b_coeffs, (i, j))
            terms[vertex_vector(k, n, (kind, i, j))] = c
        polys.append(LaurentPoly(nv, terms))

    equations = []
    for J in partition:
        acc = LaurentPoly.constant(nv, 1)
        for j in J:
            acc = acc - polys[j - 1]
        equations.append(acc)
    return MirrorSystem(k, n, partition, tuple(polys), tuple(equations))


def mirror_period(ms: MirrorSystem, order: int) -> PowerSeries:
    """The period of the mirror complete intersection from its nef-partition
    factors: sum_(m <= order) CT(prod_i F_i^(|J_i| m)) z^m, with
    F_i = sum_(j in J_i) p_j, by one `ct_of_product` call.  In the canonical
    gauge at q = 1 it equals factorial_trick(a_series(k, n, order), degrees)
    (Batyrev-Borisov).  The order is checked first (`hypergeom.check_order`)."""
    check_order(order)
    zero = LaurentPoly.zero(ms.k * (ms.n - ms.k))
    factors = [(sum((ms.polys[j - 1] for j in J), zero), len(J)) for J in ms.partition]
    ct = ct_of_product(factors, range(order + 1))
    return PowerSeries("z", tuple(ct[m] for m in range(order + 1)))


def canonical_gauge_coeffs(k: int, n: int, q=1) -> tuple[dict, dict]:
    """All a's = 1 and the constraints solved for the b's (all 1), leaving
    the single coefficient b_{k,n-k} = q free."""
    labels = vertex_labels(k, n)
    a = {(i, j): Q(1) for kind, i, j in labels if kind == "u"}
    b = {(i, j): Q(1) for kind, i, j in labels if kind == "v"}
    b[(k, n - k)] = Q(q)
    return a, b
