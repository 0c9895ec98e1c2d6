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
from itertools import zip_longest

from .dop import DOp
from .errors import Mismatch, UsageError
from .hypergeom import ASeriesSpec, a_series_qspecialized
from .series import PowerSeries
from .toric import check_pluecker_count
from .upoly import PONE, PZERO, Poly, padd, pdivexact, pdivmod, pgcd, pmul, psub, pshift, ptheta

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
        raise UsageError(f"partition {lam} does not fit the {k}x{box} box")
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
    check_pluecker_count(k, n)
    basis = partitions_in_box(k, n)
    index = {lam: i for i, lam in enumerate(basis)}
    entries = [[PZERO for _ in basis] for _ in basis]
    for col, lam in enumerate(basis):
        for mu, qpow in quantum_pieri_sigma1(lam, k, n):
            entries[index[mu]][col] = padd(entries[index[mu]][col], pshift(PONE, qpow))
    return QHMatrix(k, n, basis, tuple(tuple(row) for row in entries))


def next_functional(l: list[Poly], M: QHMatrix) -> list[Poly]:
    """l_{j+1} = l_j M + theta(l_j); l_0 extracts the top Schubert coefficient."""
    out = []
    for col in range(M.dim):
        acc = ptheta(l[col])
        for mid in range(M.dim):
            e = M.entries[mid][col]
            if e and l[mid]:
                acc = padd(acc, pmul(l[mid], e))
        out.append(acc)
    return out


class NoDependence(Mismatch):
    """No linear dependence found up to the dimension bound (indicates a bug:
    one must exist at order <= dim)."""


def _cross(p: Poly, a: Poly, f: Poly, b: Poly, d: Poly) -> Poly:
    """(p a - f b) / d, exact in Z[q]."""
    return pdivexact(psub(pmul(p, a), pmul(f, b)), d)


def scalar_operator(k: int, n: int) -> DOp:
    """Minimal-order operator sum_j c_j(q) D^j annihilating the pairing with
    the fundamental class, found by fraction-free (Bareiss) elimination over
    Z[q].  Each new functional l_j and its trace (its combination of
    l_0..l_j) are reduced against the stored pivot rows in order,
    row <- (p_i row - row[c_i] prow_i) / p_{i-1}, with p_i the i-th pivot
    entry and p_{-1} = 1; by Sylvester's identity every division is exact.
    The operator's certificate is `verify_conjecture`.
    """
    M = build_qh_matrix(k, n)
    dim = M.dim
    l = [PZERO] * dim
    l[M.basis.index((n - k,) * k)] = PONE
    pivots: list[tuple[int, Poly, list[Poly], list[Poly]]] = []  # (column, entry, row, trace)
    for rho in range(dim + 1):
        row, trace = l, [PZERO] * rho + [PONE]
        prev = PONE
        for pcol, piv, prow, ptrace in pivots:
            f = row[pcol]
            row = [_cross(piv, a, f, b, prev) for a, b in zip(row, prow)]
            trace = [_cross(piv, a, f, b, prev)
                     for a, b in zip_longest(trace, ptrace, fillvalue=PZERO)]
            prev = piv
        if not any(row):
            break
        _, pcol = min((len(e), c) for c, e in enumerate(row) if e)  # lowest degree
        pivots.append((pcol, row[pcol], row, trace))
        l = next_functional(l, M)
    else:
        raise NoDependence(f"no dependence among l_0..l_{dim} for G({k},{n})")

    # remove the polynomial content of the dependence
    content = PZERO
    for t in trace:
        content = pgcd(content, t)
    op = DOp({(i, j): c for j, t in enumerate(trace)
              for i, c in enumerate(pdivmod(t, content)[0])}).canonical()
    if op.order != rho:
        raise NoDependence(f"operator for G({k},{n}) has order {op.order}, expected {rho}")
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


def verify_conjecture(k: int, n: int, order: int, operator: DOp | None = None) -> ConjectureReport:
    """Apply the quantum-cohomology operator to the specialized
    hypergeometric series and report the residual coefficients."""
    ASeriesSpec(k, n, order)  # rejects a bad order before the operator is built
    if operator is None:
        operator = scalar_operator(k, n)
    residual = operator.apply(a_series_qspecialized(k, n, order))
    # a_0 = 1 uniqueness: 0 must be a root of the indicial polynomial and the
    # recursion must determine the series wherever the indicial value is nonzero
    indicial_unique = operator.indicial(0) == 0
    return ConjectureReport(
        k, n, order, operator, residual, residual.is_zero(), indicial_unique
    )
