"""Small quantum cohomology of G(k,n) in the Schubert basis, the quantum
differential system D S = M(q) S, and its reduction to a scalar operator.

The Schubert classes are indexed by the k-subsets a of {1..n}, the Pluecker
coordinates that `toric.poset_aknn` lists; a stands for the partition
lambda_i = a_(k+1-i) - (k+1-i) in the k x (n-k) box.  Multiplication is by
the hyperplane class only, and on subsets it is the cyclic shift
(Bertram 1997, Postnikov 2005): sigma_1 sigma_a is the sum, over each x in a
whose successor y (x+1, or 1 after n) is not in a, of sigma_(a-x+y), times
q when x = n.  The rule is validated operationally: iterated multiplication
is associative, the grading (q of degree n) holds, it agrees with the
rim-hook Pieri rule on partitions, and the reduced scalar operators
reproduce the published quantum differential operators.
"""

from __future__ import annotations

from math import gcd

from .dop import DOp
from .errors import Mismatch
from .hypergeom import a_series, check_order
from .record import record
from .series import PowerSeries
from .toric import check_pluecker_count, poset_aknn
from .upoly import PONE, PZERO, InexactDivision, Poly, pdivexact, pnorm

Subset = tuple[int, ...]  # increasing, length k, entries in 1..n


@record
class QHMatrix:
    k: int
    n: int
    basis: tuple[Subset, ...]
    # columns[c] holds the (row, e) with sigma_1 sigma_(basis[c]) = sum q^e sigma_(basis[row])
    columns: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_qh_matrix(k: int, n: int) -> QHMatrix:
    """sigma_1 by the cyclic rule, on the basis in graded-lex order of the
    partitions: by degree, then by the subset read from its last entry,
    larger entries first."""
    check_pluecker_count(k, n)
    basis = sorted(poset_aknn(k, n), key=lambda a: (sum(a), [-x for x in reversed(a)]))
    index = {a: i for i, a in enumerate(basis)}
    columns = []
    for a in basis:
        column = []
        for i, x in enumerate(a):
            y = x % n + 1
            if y not in a:
                column.append((index[tuple(sorted(a[:i] + (y,) + a[i + 1:]))], int(x == n)))
        columns.append(tuple(column))
    return QHMatrix(k, n, tuple(basis), tuple(columns))


def next_functional(l: list[Poly], M: QHMatrix) -> list[Poly]:
    """l_{j+1} = l_j M + theta(l_j); l_0 extracts the top Schubert coefficient.
    Every nonzero entry of M is q^e, so each product is a shift by e."""
    out = []
    for lc, column in zip(l, M.columns):
        acc = [i * x for i, x in enumerate(lc)]
        for row, e in column:
            lm = l[row]
            if lm:
                acc.extend([0] * (e + len(lm) - len(acc)))
                for i, x in enumerate(lm, e):
                    acc[i] += x
        out.append(pnorm(acc))
    return out


class NoDependence(Mismatch):
    """No linear dependence found up to the dimension bound (indicates a bug:
    one must exist at order <= dim)."""


# The elimination runs on pairs (v, x) standing for q^v S(q) with S(0) != 0,
# where x = S(2^B) packs S into B-bit fields with balanced digits; zero is
# (0, 0).  A product adds the v's and multiplies the x's; a difference aligns
# its operands by B bits per power of q and moves the zero fields at the
# bottom into v; the Bareiss division by the previous pivot is one divmod,
# exact because that pivot's S is prime to q.  2^(Bv) x is always the
# entry's exact value at q = 2^B, but x unpacks to S only while the
# coefficients fit their fields, so the result is unpacked and certified in
# Z[q], and a failed check doubles B.
_ZERO = (0, 0)


class PackingOverflow(Mismatch):
    """The packed elimination failed a check at every width up to the bound
    on its minors."""


def _pack(p: Poly, B: int) -> tuple[int, int]:
    if not p:
        return _ZERO
    v = 0
    while not p[v]:
        v += 1
    x = 0
    for c in reversed(p[v:]):
        x = (x << B) + c
    return v, x


def _unpack(x: int, B: int) -> list[int]:
    """Balanced B-bit digits of x, lowest first."""
    half, full, mask = 1 << (B - 1), 1 << B, (1 << B) - 1
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= full
        out.append(d)
        x = (x - d) >> B
    return out


def _reduce(vec, pvec, p, f, d, B: int) -> list[tuple[int, int]]:
    """(p a - f b) / d for the entries a of vec and b of pvec."""
    pv, px = p
    fv, fx = f
    dv, dx = d
    out = []
    for (av, ax), (bv, bx) in zip(vec, pvec):
        if ax:
            v, x = pv + av, px * ax
            if fx and bx:
                w, y = fv + bv, fx * bx
                if v < w:
                    x -= y << (B * (w - v))
                elif v > w:
                    x = (x << (B * (v - w))) - y
                    v = w
                else:
                    x -= y
                if not x:
                    out.append(_ZERO)
                    continue
                zeros = ((x & -x).bit_length() - 1) // B
                if zeros:
                    x >>= B * zeros
                    v += zeros
        elif fx and bx:
            v, x = fv + bv, -fx * bx
        else:
            out.append(_ZERO)
            continue
        x, r = divmod(x, dx)
        v -= dv
        if r or v < 0:
            raise PackingOverflow(f"inexact packed division at {B} bits")
        out.append((v, x))
    return out


def _eliminate(M: QHMatrix, ls: list[list[Poly]], B: int) -> list[tuple[int, int]]:
    """The packed trace of the first dependence among l_0..l_dim."""
    dim = M.dim
    pivots = []  # (column, entry, row padded to 2 dim + 1)
    for rho in range(dim + 1):
        # l_rho, then its trace: its combination of l_0..l_rho
        row = [_pack(e, B) for e in ls[rho]] + [_ZERO] * rho + [(0, 1)]
        prev = (0, 1)
        for pcol, piv, prow in pivots:
            row = _reduce(row, prow, piv, row[pcol], prev, B)
            prev = piv
        functional = row[:dim]
        if not any(x for _, x in functional):
            return row[dim:]
        # lowest degree first: S has bit_length(|x|) // B digits above the lowest
        _, pcol = min((v + abs(x).bit_length() // B, c)
                      for c, (v, x) in enumerate(functional) if x)
        pivots.append((pcol, row[pcol], row + [_ZERO] * (dim - rho)))
    raise NoDependence(f"no dependence among l_0..l_{dim} for G({M.k},{M.n})")


def _operator(trace: list[tuple[int, int]], ls: list[list[Poly]], B: int) -> DOp:
    """The dependence sum_j c_j l_j = 0 with c_j = tr_j / content, certified
    in Z[q] (`_vanishes`).  The content is q^(min v) times the primitive
    part of the unpacked integer gcd of the packed S_j(2^B) (the heuristic
    gcd of Char-Geddes-Gonnet), which is the gcd of the S_j once it divides
    every tr_j and 2^B >= 2 min_j |S_j| + 2."""
    polys, norms = [], []
    for v, x in trace:
        S = _unpack(x, B)
        if S and not S[0]:
            raise PackingOverflow(f"packed valuation off at {B} bits")
        polys.append((0,) * v + tuple(S) if S else PZERO)
        if S:
            norms.append(max(map(abs, S)))
    if (1 << B) < 2 * min(norms) + 2:
        raise PackingOverflow(f"{B} bits are too few for the heuristic gcd")
    g = _unpack(gcd(*(x for _, x in trace)), B)
    h = gcd(*g)
    content = (0,) * min(v for v, x in trace if x) + tuple(c // h for c in g)
    try:
        coeffs = [pdivexact(t, content) for t in polys]
    except InexactDivision:
        raise PackingOverflow(f"heuristic content fails to divide at {B} bits") from None
    if not _vanishes(coeffs, ls):
        raise PackingOverflow(f"unpacked dependence fails at {B} bits")
    return DOp({(i, j): c for j, t in enumerate(coeffs) for i, c in enumerate(t)}).canonical()


def _vanishes(coeffs: list[Poly], ls: list[list[Poly]]) -> bool:
    """Whether sum_j c_j l_j = 0 in Z[q], by one value per column at
    q = 2^W.  Each coefficient of sum_j c_j l_j[col] is at most
    S = sum_j |c_j|_1 max_col |l_j[col]|_1 in size, and W = bitlength(S) + 1
    puts S below 2^(W-1), so the value is 0 only for the zero polynomial:
    the top nonzero coefficient would outweigh all the ones below it."""
    pairs = [(c, l) for c, l in zip(coeffs, ls) if c]
    S = sum(sum(map(abs, c)) * max(sum(map(abs, e)) for e in l) for c, l in pairs)
    W = S.bit_length() + 1

    def at(p: Poly) -> int:
        x = 0
        for c in reversed(p):
            x = (x << W) + c
        return x

    cs = [at(c) for c, _ in pairs]
    return not any(sum(x * at(l[col]) for x, (_, l) in zip(cs, pairs))
                   for col in range(len(ls[0])))


def _width_bound(ls: list[list[Poly]]) -> int:
    """A width at which the packing is faithful: every entry is a minor of
    the functionals with the identity appended, so its coefficients are at
    most 2^H = prod_j (|l_j|_1 + 1), and those of a difference before a
    division at most 2^(2H+1).  A check failing there is a failure of the
    heuristic gcd or a fault."""
    H = sum((sum(abs(c) for e in l for c in e) + 1).bit_length() for l in ls)
    return 2 * H + 2


def _first_width(bound: int) -> int:
    """The width of the first pass, about H/2: on every shape `DIM_BOUND`
    admits, the checks pass at a quarter of the bound."""
    return max(2, bound // 4)


def scalar_operator(k: int, n: int) -> DOp:
    """Minimal-order operator sum_j c_j(q) D^j annihilating the pairing with
    the fundamental class, found by fraction-free (Bareiss) elimination over
    Z[q] evaluated at q = 2^B.  Each new functional l_j, followed by its
    trace (its combination of l_0..l_j), is one row, reduced against the
    stored pivot rows in order, row <- (p_i row - row[c_i] prow_i) / p_{i-1},
    with p_i the i-th pivot entry (lowest degree first) and p_{-1} = 1; by
    Sylvester's identity every division is exact.  The q-power of every
    entry is kept apart from its packed value, so the pivots' large
    valuations cost no bits.  The unpacked dependence, divided by its
    content, is certified: sum_j c_j l_j = 0 in Z[q].  B starts at
    `_first_width` of `_width_bound` and doubles on a failed check up to
    that bound, past which PackingOverflow is raised.  The operator's
    certificate against the A-series is `verify_conjecture`.
    """
    M = build_qh_matrix(k, n)
    top = [PZERO] * M.dim
    top[M.basis.index(tuple(range(n - k + 1, n + 1)))] = PONE
    ls = [top]
    for _ in range(M.dim):
        ls.append(next_functional(ls[-1], M))
    bound = _width_bound(ls)
    B = _first_width(bound)
    while True:
        try:
            return _operator(_eliminate(M, ls, B), ls, B)
        except PackingOverflow as exc:
            if B >= bound:
                raise PackingOverflow(f"G({k},{n}): {exc}, the width bound for its minors") from None
            B = min(2 * B, bound)


@record
class ConjectureReport:
    k: int
    n: int
    order: int
    operator: DOp
    residual: PowerSeries
    passed: bool
    indicial_unique: bool


def verify_conjecture(k: int, n: int, order: int, operator: DOp | None = None) -> ConjectureReport:
    """Apply the quantum-cohomology operator to the specialized
    hypergeometric series and report the residual coefficients."""
    check_order(order)  # before the operator is built
    if operator is None:
        operator = scalar_operator(k, n)
    residual = operator.apply(a_series(k, n, order))
    # a solution with a_0 = 1 needs 0 to be a root of the indicial polynomial;
    # only that is checked.  A root m >= 1 leaves a_m free: the operators of
    # G(2,5), G(2,6) and G(3,6) have one at m = 1, that of G(2,7) at 1 and 2
    indicial_unique = operator.indicial(0) == 0
    return ConjectureReport(
        k, n, order, operator, residual, residual.is_zero(), indicial_unique
    )
