"""Finitely supported Laurent polynomials: exponent vector -> rational."""

from __future__ import annotations

from math import comb, factorial, lcm, prod

from .errors import UsageError, shown
from .hypergeom import MAX_TERMS
from .linalg import echelon
from .record import record
from .series import Q, over_common_den, qstr, require_keys

ZERO = Q(0)


@record
class LaurentPoly:
    nvars: int
    terms: dict  # tuple[int, ...] of length nvars -> Fraction

    def __post_init__(self):
        clean = {}
        for e, c in self.terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.nvars:
                raise ValueError(f"exponent vector {e} has wrong length (want {self.nvars})")
            c = Q(c)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: Q(c)})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.nvars != other.nvars:
                raise ValueError("nvars mismatch")
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, ZERO) + c1 * c2
            return LaurentPoly(self.nvars, out)
        c = Q(other)
        return LaurentPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def constant_term(self) -> Q:
        return self.terms.get((0,) * self.nvars, ZERO)


def tracked_split(L: LaurentPoly, nparams: int, bound: int = 0) -> int:
    """The number of torus coordinates of L when its trailing nparams
    coordinates are tracked parameters, each kept in 0..bound.  Rejects with
    UsageError a split that does not exist (nparams < 0 or > L.nvars), a
    negative bound, and a negative parameter exponent: a tracked parameter
    is a power-series variable, its degrees run over 0..bound, and
    period_ct's grading needs mu >= 0.  ct_of_product, once per factor, and
    period_ct start here."""
    if nparams < 0:
        raise UsageError(f"nparams must be >= 0, got {shown(nparams)}")
    if nparams > L.nvars:
        raise UsageError(f"nparams must be <= nvars = {L.nvars}, got {shown(nparams)}")
    if bound < 0:
        raise UsageError(f"bound must be >= 0, got {shown(bound)}")
    nv = L.nvars - nparams
    if any(x < 0 for e in L.terms for x in e[nv:]):
        raise UsageError("tracked parameter exponents must be non-negative")
    return nv


def ct_by_param_degree(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """Constant terms of L**m for every m in powers, over the leading
    (torus) coordinates, collected by the exponents of the trailing nparams
    coordinates (tracked parameters, non-negative, each kept <= bound):
    m -> {parameter-degree tuple -> coefficient}, zeros left out.  The
    one-factor case of `ct_of_product`."""
    return ct_of_product([(L, 1)], powers, nparams, bound)


def ct_of_product(factors, powers, nparams: int = 0, bound: int = 0) -> dict:
    """Constant terms of prod_b F_b^(w_b m) for every m in powers, for the
    factors (F_b, w_b), keyed as `ct_by_param_degree` keys them, by one
    walk over the relations among the monomials of all the factors (see
    `_relations` and `_walk`).

    Refused with UsageError before the echelon: no factors, factors whose
    nvars differ, a weight that is not an int >= 1, a bad split of any
    factor (`tracked_split`) and a negative power.  Refused after it, before
    the enumeration: a count bound past MAX_TERMS (`_check_count`)."""
    factors = [(F, w) for F, w in factors]
    if not factors:
        raise UsageError("need at least one factor")
    if len({F.nvars for F, _ in factors}) > 1:
        raise UsageError("factors must have one nvars, got "
                         + ", ".join(shown(F.nvars) for F, _ in factors))
    for _, w in factors:
        if not isinstance(w, int) or w < 1:
            raise UsageError(f"weight must be an int >= 1, got {shown(w)}")
    for F, _ in factors:
        nv = tracked_split(F, nparams, bound)
    powers = set(powers)
    if any(m < 0 for m in powers):
        raise UsageError("power must be non-negative")
    rel = _relations(factors, nv)
    _check_count(factors, powers, rel)
    return _walk(factors, nv, powers, bound, rel)


def _relations(factors: list, nv: int) -> tuple | None:
    """The integer relations among the factors' monomials, in the form the
    walk reads them; None when no power m > 0 of the product has a
    constant term.

    By the Cayley trick, monomial i of factor b gets the column
    a_i = (t_i, e_b), t_i its torus part and e_b the b-th unit vector over
    the factors.  A count vector k (k_i copies of monomial i) gives a term
    of CT(prod_b F_b^(w_b m)) when sum_i k_i a_i = m e, e = (0, w_1, ...,
    w_r): the torus exponents cancel and the counts of factor b add up to
    w_b m.  One echelon form of the columns a_1, ..., a_N, e picks the first
    independent monomials B as pivots; if e is a pivot too, it is no
    combination of the a_i, and only m = 0 balances.  Otherwise each other
    (free) monomial j and e are combinations of the a_B, and clearing the
    denominators by their lcm delta gives integer vectors with
    delta a_j = sum_i cols[j]_i a_(B_i) and delta e = sum_i base_i a_(B_i).
    The counts of B then follow from those of the free monomials:
    delta k_B = m base - sum_j k_j cols[j].
    Returns (pivots, free, fblock, delta, base, cols), fblock[j] the factor
    of free monomial j."""
    monos = [e for F, _ in factors for e in F.terms]
    blocks = [b for b, (F, _) in enumerate(factors) for _ in F.terms]
    N = len(monos)
    rows = [[e[c] for e in monos] + [0] for c in range(nv)]
    rows += [[int(x == b) for x in blocks] + [w] for b, (_, w) in enumerate(factors)]
    rows, pivots = echelon(rows)
    if N in pivots:
        return None
    delta = lcm(*(row[p] for row, p in zip(rows, pivots)))
    rows = [[x * (delta // row[p]) for x in row] for row, p in zip(rows, pivots)]
    pivot_set = set(pivots)
    free = [j for j in range(N) if j not in pivot_set]
    return (pivots, free, [blocks[j] for j in free], delta, [row[N] for row in rows],
            [[row[j] for row in rows] for j in free])


def _check_count(factors: list, powers: set, rel: tuple | None):
    """Refuse with UsageError a walk whose count vectors may pass MAX_TERMS.
    The free counts of factor b, f_b of them, are enumerated with sum
    <= w_b m, so the walk visits at most
    sum_m prod_b C(w_b m + f_b, f_b) count vectors."""
    if rel is None:
        return
    f = [0] * len(factors)
    for b in rel[2]:
        f[b] += 1
    count = 0
    for m in powers:
        count += prod(comb(w * m + fb, fb) for (_, w), fb in zip(factors, f))
        if count > MAX_TERMS:
            named = f[0] if len(f) == 1 else tuple(f)
            raise UsageError(f"the walk over f = {named} free monomials to power "
                             f"{shown(max(powers))} visits more count vectors than "
                             f"the resource cap {MAX_TERMS}")


def _walk(factors: list, nv: int, powers: set, bound: int, rel: tuple | None) -> dict:
    """CT(prod_b F_b^(w_b m)) as the sum over the count vectors k of the
    relations (see `_relations`), each k >= 0 giving the term
    prod_b (w_b m)! / prod_i k_i! prod c_i^(k_i) at parameter degree
    sum k_i p_i (p_i the parameter part of monomial i).  The free counts of
    factor b are enumerated with sum <= w_b m; the last of them all is not
    walked, but taken from the interval of values that keeps every count
    of B >= 0.  A count of B is kept only if it is an integer.  The sums
    run in integers on D F_b, D the lcm of all the denominators, over
    D^(m sum_b w_b)."""
    nparams = factors[0][0].nvars - nv
    zero = (0,) * nparams
    result: dict = {}
    if rel is None:
        for m in sorted(powers):
            result[m] = {zero: Q(1)} if m == 0 else {}
        return result
    pivots, free, fblock, delta, base, cols = rel
    monos = [e for F, _ in factors for e in F.terms]
    ints, den = over_common_den([c for F, _ in factors for c in F.terms.values()])
    weights = [w for _, w in factors]
    order = pivots + free  # the positions of a count vector kB + kF
    coeffs = [ints[i] for i in order]
    tracked = [(pos, monos[i][nv:]) for pos, i in enumerate(order) if any(monos[i][nv:])]
    kF = [0] * len(free)
    last = len(free) - 1
    caps = [0] * len(factors)  # w_b m, the budget of each factor's free counts

    def leaf(mfact: int, v: list, out: dict):
        kB = [x // delta for x in v]
        ks = kB + kF
        if tracked:
            deg = tuple(sum(ks[pos] * p[c] for pos, p in tracked) for c in range(nparams))
            if any(x > bound for x in deg):
                return
        else:
            deg = zero
        w = mfact // prod(map(factorial, ks)) * prod(map(pow, coeffs, ks))
        out[deg] = out.get(deg, 0) + w

    def rec(mfact: int, level: int, v: list, rem: int, out: dict):
        u = cols[level]
        if level < last:
            nxt = fblock[level + 1]
            same = nxt == fblock[level]
            for c in range(rem + 1):
                kF[level] = c
                rec(mfact, level + 1, v, rem - c if same else caps[nxt], out)
                v = [x - y for x, y in zip(v, u)]
            return
        # v - c u >= 0 holds for c in lo..hi
        lo, hi = 0, rem
        for x, y in zip(v, u):
            if y > 0:
                hi = min(hi, x // y)
            elif y < 0:
                lo = max(lo, -(-x // y))
            elif x < 0:
                return
        for c in range(lo, hi + 1):
            w = [x - c * y for x, y in zip(v, u)]
            if delta == 1 or not any(x % delta for x in w):
                kF[level] = c
                leaf(mfact, w, out)

    for m in sorted(powers):
        out: dict = {}
        v = [m * b for b in base]
        caps[:] = [w * m for w in weights]
        mfact = prod(factorial(c) for c in caps)
        if free:
            rec(mfact, 0, v, caps[fblock[0]], out)
        elif all(x >= 0 and x % delta == 0 for x in v):
            leaf(mfact, v, out)
        scale = den ** sum(caps)
        result[m] = {d: Q(c, scale) for d, c in out.items() if c}
    return result


def laurent_pow_ct(L: LaurentPoly, m: int) -> Q:
    """Constant term of L**m, by the walk of ct_by_param_degree."""
    return ct_by_param_degree(L, {m})[m].get((), ZERO)


def laurent_to_json(L: LaurentPoly) -> dict:
    items = sorted(L.terms.items())
    return {"nvars": L.nvars, "terms": [{"exp": list(e), "c": qstr(c)} for e, c in items]}


def laurent_from_json(d: dict) -> LaurentPoly:
    require_keys(d, ("nvars", "terms"), "Laurent polynomial")
    return LaurentPoly(d["nvars"], {tuple(t["exp"]): Q(t["c"]) for t in d["terms"]})
