"""Finitely supported Laurent polynomials: exponent vector -> rational."""

from __future__ import annotations

from math import comb, factorial, lcm, prod

from .errors import UsageError, shown
from .hypergeom import MAX_TERMS
from .linalg import echelon
from .record import record
from .series import Q, int_list, over_common_den, qstr, rational, require_keys

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


def ct_of_product(factors, powers) -> dict:
    """Constant terms of prod_b F_b^(w_b m) for every m in powers, for the
    factors (F_b, w_b): m -> coefficient, by one walk over the relations
    among the monomials of all the factors (see `_relations` and `_walk`).

    Refused with UsageError before the echelon: no factors, factors whose
    nvars differ, a weight that is not an int >= 1 and a negative power.
    Refused after it, before the enumeration: a walk past MAX_TERMS
    (`_check_count`)."""
    factors = [(F, w) for F, w in factors]
    if not factors:
        raise UsageError("need at least one factor")
    if len({F.nvars for F, _ in factors}) > 1:
        raise UsageError("factors must have one nvars, got "
                         + ", ".join(shown(F.nvars) for F, _ in factors))
    for _, w in factors:
        if not isinstance(w, int) or w < 1:
            raise UsageError(f"weight must be an int >= 1, got {shown(w)}")
    powers = set(powers)
    if any(m < 0 for m in powers):
        raise UsageError("power must be non-negative")
    rel = _relations(factors)
    _check_count(factors, powers, rel)
    return _walk(factors, powers, rel)


def _relations(factors: list) -> tuple | None:
    """The integer relations among the factors' monomials, in the form the
    walk reads them; None when no power m > 0 of the product has a
    constant term.

    By the Cayley trick, monomial i of factor b gets the column
    a_i = (t_i, e_b), t_i its exponent vector and e_b the b-th unit vector
    over the factors.  A count vector k (k_i copies of monomial i) gives a
    term of CT(prod_b F_b^(w_b m)) when sum_i k_i a_i = m e,
    e = (0, w_1, ..., w_r): the exponents cancel and the counts of factor b
    add up to w_b m.  One echelon form of the columns a_1, ..., a_N, e picks
    the first independent monomials B as pivots; if e is a pivot too, it is
    no combination of the a_i, and only m = 0 balances.  Otherwise each
    other (free) monomial j and e are combinations of the a_B, and clearing
    the denominators by their lcm delta gives integer vectors with
    delta a_j = sum_i cols[j]_i a_(B_i) and delta e = sum_i base_i a_(B_i).
    The counts of B then follow from those of the free monomials:
    delta k_B = m base - sum_j k_j cols[j].
    Returns (pivots, free, fblock, delta, base, cols), fblock[j] the factor
    of free monomial j."""
    monos = [e for F, _ in factors for e in F.terms]
    blocks = [b for b, (F, _) in enumerate(factors) for _ in F.terms]
    N = len(monos)
    rows = [[e[c] for e in monos] + [0] for c in range(factors[0][0].nvars)]
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
    """Refuse with UsageError a walk past MAX_TERMS, counted two ways.  The
    free counts of factor b, f_b of them, are enumerated with sum <= w_b m,
    so the walk visits at most sum_m prod_b C(w_b m + f_b, f_b) count
    vectors.  Each term is a multinomial over N = sum_b w_b m, so the top
    power's N! has about N log2 N bits, counted as N times N's bit length."""
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
    top = max(powers, default=0) * sum(w for _, w in factors)
    if top * top.bit_length() > MAX_TERMS:
        raise UsageError(f"the walk to power {shown(max(powers))} takes factorials up to "
                         f"{shown(top)}!, of more bits than the resource cap {MAX_TERMS}")


def _walk(factors: list, powers: set, rel: tuple | None) -> dict:
    """CT(prod_b F_b^(w_b m)) as the sum over the count vectors k of the
    relations (see `_relations` and `_count_vectors`), each k >= 0 giving
    the term prod_b (w_b m)! / prod_i k_i! prod c_i^(k_i).  The sums run in
    integers on D F_b, D the lcm of all the denominators, over
    D^(m sum_b w_b)."""
    if rel is None:
        return {m: Q(int(m == 0)) for m in powers}
    pivots, free, fblock, delta, base, cols = rel
    ints, den = over_common_den([c for F, _ in factors for c in F.terms.values()])
    coeffs = [ints[i] for i in pivots + free]  # in the order of a count vector kB + kF
    kF = [0] * len(free)
    result: dict = {}
    for m in sorted(powers):
        caps = [w * m for _, w in factors]  # w_b m, the budget of each factor's counts
        mfact = prod(map(factorial, caps))
        total = 0
        for v in _count_vectors([m * b for b in base], fblock, cols, caps, delta, kF):
            ks = [x // delta for x in v] + kF
            total += mfact // prod(map(factorial, ks)) * prod(map(pow, coeffs, ks))
        result[m] = Q(total, den ** sum(caps))
    return result


def _count_vectors(v: list, fblock: list, cols: list, caps: list, delta: int, kF: list):
    """delta k_B = v - sum_j kF_j cols[j] for every count vector of one
    power with every count of B a non-negative integer, the free counts
    set in kF as each is yielded.  The free counts of factor b run with sum
    <= caps[b], by an odometer: each but the last steps by one while its
    factor's budget lasts, v and the budget following it, and a carry
    resets the counts after it to 0.  The last free count is not walked,
    but taken from the interval of values that keeps every count of B
    >= 0."""
    if not kF:
        if all(x >= 0 and x % delta == 0 for x in v):
            yield v
        return
    last = len(kF) - 1
    vs = [v] * (last + 1)  # vs[j], v less the free counts before j
    rems = [caps[fblock[0]]] + [0] * last  # rems[j], the budget left for count j
    j = 0  # the counts from j on restart at 0
    while True:
        for i in range(j, last):
            kF[i] = 0
            vs[i + 1] = vs[i]
            rems[i + 1] = rems[i] if fblock[i + 1] == fblock[i] else caps[fblock[i + 1]]
        # v - c u >= 0 holds for c in lo..hi
        v, u = vs[last], cols[last]
        lo, hi = 0, rems[last]
        for x, y in zip(v, u):
            if y > 0:
                hi = min(hi, x // y)
            elif y < 0:
                lo = max(lo, -(-x // y))
            elif x < 0:
                hi = -1
        for c in range(lo, hi + 1):
            w = [x - c * y for x, y in zip(v, u)]
            if delta == 1 or not any(x % delta for x in w):
                kF[last] = c
                yield w
        j = last - 1
        while j >= 0 and kF[j] == rems[j]:
            j -= 1
        if j < 0:
            return
        kF[j] += 1
        vs[j + 1] = [x - y for x, y in zip(vs[j + 1], cols[j])]
        if fblock[j + 1] == fblock[j]:
            rems[j + 1] -= 1
        j += 1


def laurent_pow_ct(L: LaurentPoly, m: int) -> Q:
    """Constant term of L**m, by the walk of ct_of_product."""
    return ct_of_product([(L, 1)], {m})[m]


def laurent_to_json(L: LaurentPoly) -> dict:
    items = sorted(L.terms.items())
    return {"nvars": L.nvars, "terms": [{"exp": list(e), "c": qstr(c)} for e, c in items]}


def laurent_from_json(d: dict) -> LaurentPoly:
    require_keys(d, ("nvars", "terms"), "Laurent polynomial")
    nvars, terms = d["nvars"], d["terms"]
    if type(nvars) is not int or nvars < 0:
        raise UsageError(f"nvars must be an int >= 0, got {nvars!r:.40}")
    if not isinstance(terms, list):
        raise UsageError(f"terms must be a list, got {terms!r:.40}")
    out = {}
    for t in terms:
        require_keys(t, ("exp", "c"), "Laurent term")
        exp = int_list(t["exp"], "exp")
        if len(exp) != nvars:
            raise UsageError(f"exp must hold nvars = {nvars} ints, got {list(exp)!r:.40}")
        out[exp] = rational(t["c"], "c")
    return LaurentPoly(nvars, out)
