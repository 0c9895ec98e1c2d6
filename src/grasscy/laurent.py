"""Finitely supported Laurent polynomials: exponent vector -> rational."""

from __future__ import annotations

from .errors import UsageError
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

    def __len__(self):
        return len(self.terms)

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
    negative bound, and a negative parameter exponent, which the pruning
    below to parameter degrees >= 0 would silently drop."""
    if nparams < 0:
        raise UsageError(f"nparams must be >= 0, got {nparams}")
    if nparams > L.nvars:
        raise UsageError(f"nparams must be <= nvars = {L.nvars}, got {nparams}")
    if bound < 0:
        raise UsageError(f"bound must be >= 0, got {bound}")
    nv = L.nvars - nparams
    if any(x < 0 for e in L.terms for x in e[nv:]):
        raise UsageError("tracked parameter exponents must be non-negative")
    return nv


def _times(acc: dict, terms: list, lo: int, hi: int, guard: int) -> dict:
    """acc * P on packed keys, keeping the keys that pass both guard tests
    (the box lo <= e <= hi, see ct_by_param_degree)."""
    out: dict = {}
    get = out.get
    for k2, c2 in terms:
        for k1, c1 in acc.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items()
            if c and (k + lo) & guard == guard and (hi - k) & guard == guard}


def ct_by_param_degree(L: LaurentPoly, powers, nparams: int = 0, bound: int = 0) -> dict:
    """Constant terms of L**m for every m in powers, over the leading
    (torus) coordinates, collected by the exponents of the trailing nparams
    coordinates (tracked parameters, non-negative, each kept <= bound):
    m -> {parameter-degree tuple -> coefficient}, zeros left out.

    One sweep, meet in the middle: with a = m // 2 and b = m - a,
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
    nv = tracked_split(L, nparams, bound)
    powers = set(powers)
    if any(m < 0 for m in powers):
        raise UsageError("power must be non-negative")
    top = max(powers, default=0)
    n = L.nvars
    coeffs, den = over_common_den(list(L.terms.values()))
    # per factor a coordinate moves by at most +up / -down (down is 0 on the
    # parameters); after t factors a torus coordinate must lie where the
    # M - t factors left can bring it back to 0
    up = [max([0] + [e[c] for e in L.terms]) for c in range(n)]
    down = [max([0] + [-e[c] for e in L.terms]) for c in range(n)]
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
    """Constant term of L**m."""
    return ct_by_param_degree(L, {m})[m].get((), ZERO)


def laurent_to_json(L: LaurentPoly) -> dict:
    items = sorted(L.terms.items())
    return {"nvars": L.nvars, "terms": [{"exp": list(e), "c": qstr(c)} for e, c in items]}


def laurent_from_json(d: dict) -> LaurentPoly:
    require_keys(d, ("nvars", "terms"), "Laurent polynomial")
    return LaurentPoly(d["nvars"], {tuple(t["exp"]): Q(t["c"]) for t in d["terms"]})
