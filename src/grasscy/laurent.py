"""Finitely supported Laurent polynomials: exponent vector -> rational."""

from __future__ import annotations

from math import comb, factorial, lcm, prod

from .errors import UsageError, shown
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
    negative bound, and a negative parameter exponent, which the sweep's
    pruning to parameter degrees >= 0 would silently drop.  Both routes of
    ct_by_param_degree, and period_ct, start here."""
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


def _checked(L: LaurentPoly, powers, nparams: int, bound: int) -> tuple[int, set]:
    """The number of torus coordinates (see tracked_split) and the set of
    powers, each rejected with UsageError when bad."""
    nv = tracked_split(L, nparams, bound)
    powers = set(powers)
    if any(m < 0 for m in powers):
        raise UsageError("power must be non-negative")
    return nv, powers


def ct_by_param_degree(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """Constant terms of L**m for every m in powers, over the leading
    (torus) coordinates, collected by the exponents of the trailing nparams
    coordinates (tracked parameters, non-negative, each kept <= bound):
    m -> {parameter-degree tuple -> coefficient}, zeros left out.

    Two routes give the same answer, and the one with the smaller bound on
    its work runs, the walk on a tie.  Both bounds are counts taken from L
    and the powers before either route starts: the count vectors the walk
    over L's relations visits (`_walk_cost`) and the products of monomials
    the meet-in-the-middle sweep forms (`_sweep_cost`).  The walk wins when the
    monomials are few for their coordinates, as for the Lax polynomials;
    the sweep when they are many in few coordinates, as for the mirror
    products of the complete intersections.
    """
    nv, powers = _checked(L, powers, nparams, bound)
    rel = _relations(L, nv)
    walk = _walk_cost(rel, powers)
    if _sweep_cost(L, nv, max(powers, default=0), bound, walk) < walk:
        return _sweep(L, nv, powers, bound)
    return _walk(L, nv, powers, bound, rel)


def ct_by_walk(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """`ct_by_param_degree` by the walk over the relations among L's
    monomials, whatever its cost."""
    nv, powers = _checked(L, powers, nparams, bound)
    return _walk(L, nv, powers, bound, _relations(L, nv))


def ct_by_sweep(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """`ct_by_param_degree` by the meet-in-the-middle sweep, whatever its
    cost."""
    nv, powers = _checked(L, powers, nparams, bound)
    return _sweep(L, nv, powers, bound)


def _relations(L: LaurentPoly, nv: int) -> tuple | None:
    """The integer relations among L's monomials, in the form the walk
    reads them; None when no power m > 0 of L has a constant term.

    A count vector k (k_i copies of monomial i) gives a term of CT(L^m)
    when sum_i k_i a_i = (0, m), with a_i = (t_i, 1), t_i the torus part of
    monomial i: the torus exponents cancel and the counts add up to m.  One
    echelon form of the columns a_1, ..., a_N, e = (0, ..., 0, 1) picks the
    first independent monomials B as pivots; if e is a pivot too, it is no
    combination of the a_i, and only m = 0 balances.  Otherwise each other
    (free) monomial j and e are combinations of the a_B, and clearing the
    denominators by their lcm delta gives integer vectors with
    delta a_j = sum_i cols[j]_i a_(B_i) and delta e = sum_i base_i a_(B_i).
    The counts of B then follow from those of the free monomials:
    delta k_B = m base - sum_j k_j cols[j].
    Returns (pivots, free, delta, base, cols)."""
    monos = list(L.terms)
    N = len(monos)
    rows, pivots = echelon([[e[c] for e in monos] + [0] for c in range(nv)] + [[1] * (N + 1)])
    if N in pivots:
        return None
    delta = lcm(*(row[p] for row, p in zip(rows, pivots)))
    rows = [[x * (delta // row[p]) for x in row] for row, p in zip(rows, pivots)]
    pivot_set = set(pivots)
    free = [j for j in range(N) if j not in pivot_set]
    return (pivots, free, delta, [row[N] for row in rows],
            [[row[j] for row in rows] for j in free])


def _walk_cost(rel: tuple | None, powers: set) -> int:
    """The count vectors of the free monomials the walk visits at most:
    those with sum <= m, C(m + f, f) of them for f free monomials, at each
    power m."""
    if rel is None:
        return len(powers)
    f = len(rel[1])
    return sum(comb(m + f, f) for m in powers)


def _walk(L: LaurentPoly, nv: int, powers: set, bound: int, rel: tuple | None) -> dict:
    """CT(L^m) as the sum over the count vectors k of the relations (see
    `_relations`) with sum k = m, each k >= 0 giving the term
    m! / prod k_i! prod c_i^(k_i) at parameter degree sum k_i p_i (p_i the
    parameter part of monomial i).  The free counts are enumerated with
    sum <= m; the last of them is not walked, but taken from the interval
    of values that keeps every count of B >= 0.  A count of B is kept only
    if it is an integer.  The sums run in integers on P = D L, D the lcm
    of L's denominators, over D^m."""
    nparams = L.nvars - nv
    zero = (0,) * nparams
    result: dict = {}
    if rel is None:
        for m in sorted(powers):
            result[m] = {zero: Q(1)} if m == 0 else {}
        return result
    pivots, free, delta, base, cols = rel
    monos = list(L.terms)
    ints, den = over_common_den(list(L.terms.values()))
    order = pivots + free  # the positions of a count vector kB + kF
    coeffs = [ints[i] for i in order]
    tracked = [(pos, monos[i][nv:]) for pos, i in enumerate(order) if any(monos[i][nv:])]
    kF = [0] * len(free)
    last = len(free) - 1

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
            for c in range(rem + 1):
                kF[level] = c
                rec(mfact, level + 1, v, rem - c, out)
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
        if free:
            rec(factorial(m), 0, v, m, out)
        elif all(x >= 0 and x % delta == 0 for x in v):
            leaf(factorial(m), v, out)
        scale = den**m
        result[m] = {d: Q(c, scale) for d, c in out.items() if c}
    return result


def _sweep_cost(L: LaurentPoly, nv: int, top: int, bound: int, cap: int) -> int:
    """The products of monomials the sweep forms at most: N for each term
    of each stored power L^t, t <= ceil(top / 2), where L^t has at most
    C(t + N - 1, N - 1) terms, and no more than the box it is pruned to has
    points.  The sum stops once it passes cap."""
    N = len(L.terms)
    if not N:
        return 0
    up, down = _reach(L)
    cost = 0
    for t in range((top + 1) // 2 + 1):
        left = top - t
        box = prod(min(t * u, left * d) + min(t * d, left * u) + 1
                   for u, d in zip(up[:nv], down[:nv]))
        box *= prod(min(t * u, bound) + 1 for u in up[nv:])
        cost += N * min(comb(t + N - 1, N - 1), box)
        if cost > cap:
            break
    return cost


def _reach(L: LaurentPoly) -> tuple[list[int], list[int]]:
    """(up, down): per factor of L, coordinate c moves by at most +up_c and
    -down_c."""
    n = L.nvars
    return ([max([0] + [e[c] for e in L.terms]) for c in range(n)],
            [max([0] + [-e[c] for e in L.terms]) for c in range(n)])


def _times(acc: dict, terms: list, lo: int, hi: int, guard: int) -> dict:
    """acc * P on packed keys, keeping the keys that pass both guard tests
    (the box lo <= e <= hi, see _sweep)."""
    out: dict = {}
    get = out.get
    for k2, c2 in terms:
        for k1, c1 in acc.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items()
            if c and (k + lo) & guard == guard and (hi - k) & guard == guard}


def _sweep(L: LaurentPoly, nv: int, powers: set, bound: int) -> dict:
    """The meet-in-the-middle sweep: with a = m // 2 and b = m - a,
    CT(L^m) = sum_e [L^a]_e [L^b]_(-e) over torus parts e.  L^t is built
    once for t up to ceil(M / 2), M the largest power, pruned to what the
    M - t factors left can cancel, which covers every smaller m too; only
    the two newest powers are kept.  The products run in integers on
    P = D L, D the lcm of L's denominators: L^m = P^m / D^m.

    Exponent vectors are packed into one integer key each, lane c of w bits
    holding e_c + off with off = 2^(w-1):
    key(e) = OFF + pack(e), pack(x) = sum_c x_c 2^(wc), OFF = pack(off, ...).
    Then key(e) + pack(x) = key(e + x) as integers, so a product of
    monomials is one addition, and the torus lanes of key(-e) are
    2 OFF_t - (key(e) & tmask).  G = OFF is the guard (top) bit of every
    lane: k - pack(lo) has lanes e_c - lo_c + off, whose top bit is set
    exactly when e_c >= lo_c, and pack(hi) + 2 OFF - k has lanes
    hi_c - e_c + off, so two masks test the box lo <= e <= hi.

    No lane overflows.  Every identity above holds lane by lane as long as
    each lane value stays in [0, 2^w), that is, each signed quantity x in a
    lane has |x| < off.  The sweep forms torus exponents only in powers L^t
    of t <= ceil(M/2) <= M factors (stored, a stored power times L, or
    negated for the lookup), so -t down_c <= e_c <= t up_c, and it tests
    them against the box of left = M - t factors, lo_c = -left up_c and
    hi_c = left down_c: e_c - lo_c lies in [-t down_c, M up_c] and
    hi_c - e_c in [-t up_c, M down_c].  Every torus quantity thus has size
    <= M r_c, r_c = max(up_c, down_c).  A parameter exponent lies in
    0..bound in a stored power, in 0..bound + p in a product with L (p the
    largest parameter exponent of L) and in 0..2 bound in the sum of two
    stored powers that the pairing forms; it differs from the box ends 0
    and bound by at most bound + p.  So off > S = max(M r_c, 2 bound,
    bound + p) is enough, and w = S.bit_length() + 1 gives
    off = 2^(w-1) > S.  Only the keys are packed; coefficients stay
    separate integers.
    """
    top = max(powers, default=0)
    n = L.nvars
    nparams = n - nv
    coeffs, den = over_common_den(list(L.terms.values()))
    # down is 0 on the parameters; after t factors a torus coordinate must
    # lie where the M - t factors left can bring it back to 0
    up, down = _reach(L)
    span = max([top * max(u, d) for u, d in zip(up[:nv], down[:nv])]
               + [2 * bound] + [bound + p for p in up[nv:]])
    w = span.bit_length() + 1
    off = 1 << (w - 1)
    lane = 2 * off - 1

    def pack(e) -> int:
        return sum(x << (w * c) for c, x in enumerate(e))

    guard = pack([off] * n)
    tmask = pack([lane] * nv)
    pmask = pack([0] * nv + [lane] * nparams)
    neg = 2 * (guard & tmask)  # key(-e) on the torus lanes is neg - (key(e) & tmask)
    pguard = guard & pmask
    pcap = pack([0] * nv + [bound] * nparams) + 2 * pguard  # t <= bound test
    terms = [(pack(e), c) for e, c in zip(L.terms, coeffs)]

    def box(left: int) -> tuple[int, int]:
        """-pack(lo) and pack(hi) + 2 OFF for the box of `left` factors left."""
        return (pack([left * u for u in up[:nv]]),
                pack([left * d for d in down[:nv]] + [bound] * nparams) + 2 * guard)

    result: dict = {}
    half = other = {guard: 1}  # L^a and L^b for the current m; key(0) = OFF
    for m in range(top + 1):
        if m % 2:  # b = a + 1 is one power past the last
            half, other = other, _times(other, terms, *box(top - m // 2 - 1), guard)
        else:
            half = other
        if m not in powers:
            continue
        by_torus: dict = {}
        for k, c in other.items():
            by_torus.setdefault(k & tmask, []).append((k & pmask, c))
        out: dict = {}
        for k, c1 in half.items():
            match = by_torus.get(neg - (k & tmask))
            if match is None:
                continue
            p1 = (k & pmask) - pguard
            for p2, c2 in match:
                s = p1 + p2
                if (pcap - s) & pguard == pguard:
                    out[s] = out.get(s, 0) + c1 * c2
        scale = den**m
        result[m] = {tuple(((s >> (w * c)) & lane) - off for c in range(nv, n)): Q(c, scale)
                     for s, c in out.items() if c}
    return result


def laurent_pow_ct(L: LaurentPoly, m: int) -> Q:
    """Constant term of L**m, by the cheaper route of ct_by_param_degree."""
    return ct_by_param_degree(L, {m})[m].get((), ZERO)


def laurent_to_json(L: LaurentPoly) -> dict:
    items = sorted(L.terms.items())
    return {"nvars": L.nvars, "terms": [{"exp": list(e), "c": qstr(c)} for e, c in items]}


def laurent_from_json(d: dict) -> LaurentPoly:
    require_keys(d, ("nvars", "terms"), "Laurent polynomial")
    return LaurentPoly(d["nvars"], {tuple(t["exp"]): Q(t["c"]) for t in d["terms"]})
