"""Small quantum cohomology of G(k,n) in the Schubert basis, the quantum
differential system D S = M(q) S, and its reduction to a scalar operator.

Multiplication is by the hyperplane class only: the classical part adds one
box to the partition inside the k x (n-k) box, and the quantum part drops
the full first row and one box from every other row, picking up one power
of q.  The rule is validated operationally: iterated multiplication is
associative, the grading (q of degree n) holds, and the reduced scalar
operators reproduce the published quantum differential operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .dop import DOp
from .series import PowerSeries
from .upoly import PONE, PZERO, Poly, RatFunc, padd, pmul, pnorm, pshift, ptheta

DIM_BOUND = 35  # covers C(7,2)

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
    """sigma_1 * sigma_lam as a list of (partition, q-power)."""
    box = n - k
    if len(lam) != k or any(p > box for p in lam) or any(
        lam[i] < lam[i + 1] for i in range(k - 1)
    ):
        raise ValueError(f"partition {lam} does not fit the {k}x{box} box")
    out: list[tuple[Partition, int]] = []
    for i in range(k):
        upper = box if i == 0 else lam[i - 1]
        if lam[i] + 1 <= upper:
            mu = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
            out.append((mu, 0))
    if lam[0] == box and lam[-1] >= 1:
        nu = tuple(p - 1 for p in lam[1:]) + (0,)
        out.append((nu, 1))
    return out


@dataclass(frozen=True)
class QHMatrix:
    k: int
    n: int
    basis: tuple[Partition, ...]
    entries: tuple  # entries[mu_idx][lam_idx] is a Poly in q

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_qh_matrix(k: int, n: int) -> QHMatrix:
    dim = comb(n, k)
    if dim > DIM_BOUND:
        raise ValueError(f"dimension {dim} exceeds bound {DIM_BOUND}")
    basis = partitions_in_box(k, n)
    index = {lam: i for i, lam in enumerate(basis)}
    entries = [[PZERO for _ in basis] for _ in basis]
    for col, lam in enumerate(basis):
        for mu, qpow in quantum_pieri_sigma1(lam, k, n):
            entries[index[mu]][col] = padd(entries[index[mu]][col], pshift(PONE, qpow))
    return QHMatrix(k, n, basis, tuple(tuple(row) for row in entries))


def _matvec_left(row: list[Poly], M: QHMatrix) -> list[Poly]:
    dim = M.dim
    out = [PZERO] * dim
    for col in range(dim):
        acc = PZERO
        for mid in range(dim):
            e = M.entries[mid][col]
            if e and row[mid]:
                acc = padd(acc, pmul(row[mid], e))
        out[col] = acc
    return out


def functional_sequence(M: QHMatrix, count: int) -> list[list[Poly]]:
    """l_0 extracts the top Schubert coefficient; l_{j+1} = l_j M + theta(l_j)."""
    top = (M.n - M.k,) * M.k
    top_idx = M.basis.index(top)
    l0 = [PZERO] * M.dim
    l0[top_idx] = PONE
    seq = [l0]
    for _ in range(count):
        prev = seq[-1]
        nxt = _matvec_left(prev, M)
        nxt = [padd(a, ptheta(b)) for a, b in zip(nxt, prev)]
        seq.append(nxt)
    return seq


class NoDependence(RuntimeError):
    """No linear dependence found up to the dimension bound (indicates a bug:
    one must exist at order <= dim)."""


def scalar_operator(k: int, n: int, guard: int = 20) -> DOp:
    """Minimal-order operator sum_j c_j(q) D^j annihilating the pairing with
    the fundamental class, found by exact elimination over Q(q).

    guard: order to which the result is re-checked against the specialized
    hypergeometric series (0 disables the check).
    """
    M = build_qh_matrix(k, n)
    dim = M.dim
    # incremental elimination; pivots chosen as lowest-degree nonzero entry
    pivot_rows: list[tuple[int, list[RatFunc], list[RatFunc]]] = []
    seq: list[list[Poly]] = functional_sequence(M, 0)
    coeffs = None
    rho = None
    for j in range(dim + 1):
        if j >= len(seq):
            seq = functional_sequence(M, j)
        row = [RatFunc(p) for p in seq[j]]
        trace = [RatFunc.const(1 if t == j else 0) for t in range(j + 1)]
        for pcol, prow, ptrace in pivot_rows:
            f = row[pcol]
            if f.is_zero():
                continue
            row = [a - f * b for a, b in zip(row, prow)]
            for t in range(len(ptrace)):
                trace[t] = trace[t] - f * ptrace[t]
        if all(r.is_zero() for r in row):
            coeffs = trace
            rho = j
            break
        cand = [(len(row[c].num), c) for c in range(dim) if not row[c].is_zero()]
        _, pcol = min(cand)
        inv = row[pcol]
        row = [a / inv for a in row]
        trace = [a / inv for a in trace]
        pivot_rows.append((pcol, row, trace))
    if coeffs is None:
        raise NoDependence(f"no dependence among l_0..l_{dim} for G({k},{n})")

    # clear denominators to polynomials, then remove overall content
    from .upoly import pdivmod, pgcd

    den = PONE
    for c in coeffs:
        if not c.is_zero():
            g = pgcd(den, c.den)
            den = pdivmod(pmul(den, c.den), g)[0]
    polys = [pdivmod(pmul(c.num, den), c.den)[0] if not c.is_zero() else PZERO for c in coeffs]
    gpoly = PZERO
    for p in polys:
        gpoly = pgcd(gpoly, p) if gpoly else pnorm(p)
    if len(gpoly) > 1:
        polys = [pdivmod(p, gpoly)[0] if p else PZERO for p in polys]
    op = DOp({(i, j): c for j, p in enumerate(polys) for i, c in enumerate(p) if c != 0})
    op = op.canonical()
    if op.order != rho:
        raise NoDependence(f"operator for G({k},{n}) has order {op.order}, expected {rho}")

    if guard:
        from .hypergeom import a_series_qspecialized

        a = a_series_qspecialized(k, n, guard)
        if not op.apply(a).is_zero():
            raise NoDependence(
                f"computed operator for G({k},{n}) fails to annihilate the "
                f"hypergeometric series to order {guard}"
            )
    return op


@dataclass(frozen=True)
class ConjectureReport:
    k: int
    n: int
    order: int
    operator: DOp
    residual: PowerSeries
    passed: bool
    indicial_unique: bool


def verify_conjecture(k: int, n: int, order: int, operator: DOp | None = None,
                      series: PowerSeries | None = None) -> ConjectureReport:
    """Apply the quantum-cohomology operator to the specialized
    hypergeometric series and report the residual coefficients."""
    from .hypergeom import a_series_qspecialized

    if operator is None:
        operator = scalar_operator(k, n, guard=0)
    if series is None:
        series = a_series_qspecialized(k, n, order)
    residual = operator.apply(series.truncate(order))
    # a_0 = 1 uniqueness: 0 must be a root of the indicial polynomial and the
    # recursion must determine the series wherever the indicial value is nonzero
    indicial_unique = operator.indicial(0) == 0
    return ConjectureReport(
        k, n, order, operator, residual, residual.is_zero(), indicial_unique
    )
