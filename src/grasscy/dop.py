"""Differential operators P = sum c_{i,j} z^i D^j with D = z d/dz.

The same class doubles as an operator in q (for the quantum differential
system): only the name of the variable differs.  Canonical form clears
denominators to primitive integer coefficients with a positive leading
term, where "leading" means highest D-degree, then lowest z-degree.
"""

from __future__ import annotations

from math import comb, gcd, isqrt

from .errors import Mismatch, UsageError, shown
from .linalg import nullspace
from .record import record
from .series import PowerSeries, Q, over_common_den, qstr

ZERO = Q(0)
GUARD = 10  # rows beyond the unknowns that certify a fitted operator
SCREEN_PRIME = 2**61 - 1  # Mersenne prime; pf_fit's kernels are taken modulo it, then lifted


class NoAnnihilator(Mismatch):
    """pf_fit found no operator within the given bounds."""


class AmbiguousAnnihilator(Mismatch):
    """Nullspace dimension > 1 at the minimal bounds."""


@record
class DOp:
    terms: dict  # (i, j) -> Q, z-degree i, D-degree j

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.terms.items():
            c = Q(c)
            if c != 0:
                if i < 0 or j < 0:
                    raise ValueError("negative degrees not allowed")
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)

    @property
    def order(self) -> int:
        return max((j for _, j in self.terms), default=0)

    @property
    def zdeg(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    # -- algebra ------------------------------------------------------------

    @classmethod
    def zero(cls) -> "DOp":
        return cls({})

    @classmethod
    def const(cls, c) -> "DOp":
        return cls({(0, 0): Q(c)})

    @classmethod
    def D(cls, power: int = 1) -> "DOp":
        return cls({(0, power): Q(1)})

    @classmethod
    def z(cls, power: int = 1) -> "DOp":
        return cls({(power, 0): Q(1)})

    def __add__(self, other):
        if not isinstance(other, DOp):
            other = DOp.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return DOp(out)

    __radd__ = __add__

    def __neg__(self):
        return DOp({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DOp):
            other = DOp.const(other)
        return self + (-other)

    def __mul__(self, other):
        """Operator composition; D^j z^i = z^i (D + i)^j."""
        if not isinstance(other, DOp):
            return DOp({k: Q(other) * c for k, c in self.terms.items()})
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                for t in range(j1 + 1):
                    c = c1 * c2 * comb(j1, t) * i2 ** (j1 - t)
                    if c != 0:
                        k = (i1 + i2, t + j2)
                        out[k] = out.get(k, ZERO) + c
        return DOp(out)

    def __rmul__(self, other):
        return DOp({k: Q(other) * c for k, c in self.terms.items()})

    def __pow__(self, n: int):
        out = DOp.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __hash__(self):  # the record's own hash would fail on the dict field
        return hash(frozenset(self.terms.items()))

    # -- normal form ---------------------------------------------------------

    def canonical(self) -> "DOp":
        """Primitive integer coefficients, leading term positive."""
        if not self.terms:
            return self
        ints, _ = over_common_den(list(self.terms.values()))
        g = gcd(*ints)
        lead = min(self.terms, key=lambda k: (-k[1], k[0]))
        if self.terms[lead] < 0:
            g = -g
        return DOp({k: x // g for k, x in zip(self.terms, ints)})

    # -- action ---------------------------------------------------------------

    def indicial(self, m) -> Q:
        """z^0 part evaluated at D = m."""
        return sum((c * Q(m) ** j for (i, j), c in self.terms.items() if i == 0), ZERO)

    def coeff_poly(self, i: int) -> list[Q]:
        """Coefficients of the polynomial p_i(x) = sum_j c_{i,j} x^j."""
        out = [ZERO] * (self.order + 1)
        for (ii, j), c in self.terms.items():
            if ii == i:
                out[j] = c
        return out

    def apply(self, f: PowerSeries) -> PowerSeries:
        """Apply to a PowerSeries; output truncation = f.trunc."""
        # [P f]_m = sum_i p_i(m - i) f_(m-i), in integers over the two
        # common denominators, divided once
        n = f.trunc
        C, dc = over_common_den(list(self.terms.values()))
        F, df = over_common_den(f.coeffs)
        polys: dict[int, list[int]] = {}  # z-degree i -> coefficients of p_i(D)
        for (i, j), c in zip(self.terms, C):
            polys.setdefault(i, [0] * (self.order + 1))[j] = c
        out = [0] * (n + 1)
        for i, p in polys.items():
            for m in range(i, n + 1):
                fm = F[m - i]
                if fm:
                    s, acc = m - i, 0
                    for c in reversed(p):
                        acc = acc * s + c
                    out[m] += acc * fm
        den = dc * df
        return PowerSeries(f.var, tuple(Q(c, den) for c in out))


def fit_trunc(max_order: int, max_zdeg: int) -> int:
    """Series truncation pf_fit needs for these bounds: the unknowns of the
    largest candidate, (max_order+1)(max_zdeg+1), plus GUARD rows."""
    return (max_order + 1) * (max_zdeg + 1) + GUARD


def _echelon_mod_p(rows: list[list[int]], ncols: int) -> dict[int, list[int]]:
    """Echelon basis modulo SCREEN_PRIME of rows already reduced modulo it:
    pivot column -> row, 1 at the pivot and 0 left of it.  Stops adding
    rows once the rank is `ncols`.

    A row is one integer with a lane of `width` bytes per column, shifted
    down a lane as each column is cleared, so the column being read is
    always lane 0.  Clearing it against the pivot row b of that column is
    one multiply-add R += x (P - b), with x lane 0 modulo p and P holding p
    in every lane: each lane gains x (p - b) >= 0, so none borrows, and
    lane 0 becomes 0 modulo p.  Only lane 0 is reduced.  A lane starts
    below p < 2^61 and gains less than 2^122 at each of at most ncols
    steps, so 8 width >= 123 + bits(ncols) keeps the lanes apart."""
    p = SCREEN_PRIME
    width = (123 + ncols.bit_length() + 7) // 8
    shift = 8 * width
    mask = (1 << shift) - 1
    echelon: dict[int, list[int]] = {}
    negated: dict[int, int] = {}  # pivot column c -> P - (its row from c on), packed
    for row in rows:
        if not any(row):
            continue
        R = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little")
        for c in range(ncols):
            if not R:
                break
            x = (R & mask) % p
            if x:
                prow = negated.get(c)
                if prow is None:
                    inv = pow(x, -1, p)
                    buf = R.to_bytes((ncols - c) * width, "little")
                    lanes = [int.from_bytes(buf[t:t + width], "little") * inv % p
                             for t in range(0, len(buf), width)]
                    echelon[c] = [0] * c + lanes
                    if len(echelon) == ncols:
                        return echelon
                    negated[c] = int.from_bytes(
                        b"".join((p - y).to_bytes(width, "little") for y in lanes), "little")
                    break
                R += x * prow
            R >>= shift
    return echelon


def _kernel_mod_p(echelon: dict[int, list[int]], ncols: int) -> list[list[int]]:
    """A kernel basis modulo SCREEN_PRIME of the rows with this echelon
    basis: one vector per free column, 1 there and 0 at the other free
    columns, by back substitution."""
    p = SCREEN_PRIME
    pivots = sorted(echelon, reverse=True)
    basis = []
    for free in range(ncols):
        if free in echelon:
            continue
        v = [0] * ncols
        v[free] = 1
        for c in pivots:
            prow = echelon[c]
            v[c] = -sum(prow[t] * v[t] for t in range(c + 1, ncols)) % p
        basis.append(v)
    return basis


def _rational_mod_p(a: int) -> Q | None:
    """The n/d with n = a d modulo SCREEN_PRIME and |n|, d <= sqrt(p/2),
    by the half extended Euclidean algorithm; None when there is none."""
    p = SCREEN_PRIME
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, a, 0, 1  # invariant r = t a modulo p
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Q(r1, t1)


def pf_fit(f: PowerSeries, max_order: int, max_zdeg: int) -> DOp:
    """Smallest operator (graded by order+zdeg, then order) annihilating f.

    Sets up sum_{i,j} c_{i,j} (m-i)^j b_{m-i} = 0 for every m <= f.trunc and
    takes the first candidate (r, d) whose nullspace is nonzero; the rows
    beyond (r+1)(d+1) act as the certificate.

    The system is built once modulo SCREEN_PRIME, for the largest column
    set, from the series over one common denominator B (a common scale
    leaves every kernel unchanged): entry B_(m-i) (m-i)^j modulo p.  One
    echelon form modulo p of the whole (max_order, max_zdeg) grid gives a
    kernel basis K modulo p.  A candidate's kernel modulo p is made of the
    combinations of K that vanish off its columns, the kernel of K on the
    other columns.  None proves full column rank over Q: the candidate is
    skipped.  Exactly one is scaled to 1 at its last nonzero entry, lifted
    by rational reconstruction and accepted if the operator annihilates f,
    which is every row, guard rows included, and proves nullity 1 over Q.
    Every other case (two or more, a failed lift) builds the candidate's
    integer rows and goes to the exact fraction-free nullspace, which
    decides between no operator, one, and AmbiguousAnnihilator.  The
    canonical form makes the operator unique.
    """
    if max_order < 1 or max_zdeg < 0:
        raise UsageError(f"need max_order >= 1, max_zdeg >= 0 for a fit, "
                         f"got ({shown(max_order)},{shown(max_zdeg)})")
    if f.trunc < (need := fit_trunc(max_order, max_zdeg)):
        raise UsageError(f"series truncation {f.trunc} too small for bounds ({shown(max_order)},"
                         f"{shown(max_zdeg)}): need {shown(need)}, the unknowns plus GUARD = "
                         f"{GUARD} rows")
    p = SCREEN_PRIME
    B, _ = over_common_den(f.coeffs)
    blocks = []  # blocks[k]: B_k k^j modulo p for j <= max_order, row k + i at columns (i, j)
    for k, b in enumerate(B):
        x = b % p
        block = [x]
        for _ in range(max_order):
            x = x * k % p
            block.append(x)
        blocks.append(block)
    zeros = [0] * (max_order + 1)
    system_p = []  # row m: column (i, j) at index i * (max_order + 1) + j
    for m in range(f.trunc + 1):
        row = []
        for i in range(max_zdeg + 1):
            row.extend(blocks[m - i] if m >= i else zeros)
        system_p.append(row)
    candidates = sorted(((r, d) for r in range(1, max_order + 1) for d in range(max_zdeg + 1)),
                        key=lambda rd: (rd[0] + rd[1], rd[0]))
    ncols = (max_order + 1) * (max_zdeg + 1)
    kernel = _kernel_mod_p(_echelon_mod_p(system_p, ncols), ncols)
    for r, d in candidates:
        cols = [(i, j) for i in range(d + 1) for j in range(r + 1)]
        index = [i * (max_order + 1) + j for i, j in cols]
        inside = set(index)
        outside = [[u[t] for u in kernel] for t in range(ncols) if t not in inside]
        combos = _kernel_mod_p(_echelon_mod_p(outside, len(kernel)), len(kernel))
        if not combos:
            continue
        if len(combos) == 1:
            v = [sum(c * u[t] for c, u in zip(combos[0], kernel)) % p for t in index]
            inv = pow(next(x for x in reversed(v) if x), -1, p)
            lifted = [_rational_mod_p(x * inv % p) for x in v]
            if None not in lifted and (op := DOp(dict(zip(cols, lifted)))).apply(f).is_zero():
                return op.canonical()
        rows = [[B[m - i] * (m - i) ** j if m >= i else 0 for i, j in cols]
                for m in range(f.trunc + 1)]
        basis = [u for u in nullspace(rows) if any(x != 0 for x in u)]
        if not basis:
            continue
        if len(basis) > 1:
            raise AmbiguousAnnihilator(
                f"nullspace dimension {len(basis)} at minimal bounds ({r},{d})"
            )
        return DOp(dict(zip(cols, basis[0]))).canonical()
    raise NoAnnihilator(f"no annihilator within bounds ({max_order},{max_zdeg})")


def dop_to_json(P: DOp, varname: str = "z") -> dict:
    items = sorted(P.terms.items(), key=lambda kv: (-kv[0][1], kv[0][0]))
    return {
        "order": P.order,
        "var": varname,
        "terms": [{"qdeg": i, "ddeg": j, "coeff": qstr(c)} for (i, j), c in items],
    }
