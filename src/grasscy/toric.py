"""Combinatorics of the toric degeneration of G(k,n): the polytope with
2(k-1)(n-k-1)+n vertices, the index-tuple poset, binomial equations,
nef-partition vertex sets, and the degree of G(k,n)."""

from __future__ import annotations

import itertools
from math import factorial

from .errors import Mismatch, UsageError, shown
from .linalg import rank
from .record import record
from .series import Q

Label = tuple[str, int, int]  # ("u"|"v", i, j)

# the binomial equations, the facets of Delta(k,n) and the quantum
# cohomology matrix are indexed by the C(n,k) Pluecker coordinates; this
# caps their count
DIM_BOUND = 35  # covers G(2,7) and G(3,7)

# Delta(k,n), the Lax polynomial and the mirror system are built on the
# vertex data of Delta(k,n) alone: 2(k-1)(n-k-1) + n vertices of dimension
# k(n-k); this caps the number of their entries, checked by `vertex_labels`,
# which they share, before anything is built
VERTEX_ENTRY_BOUND = 2000  # covers G(1,45), G(3,8) and every G(k,n) within DIM_BOUND


def check_kn(k: int, n: int):
    if not (1 <= k < n):
        raise UsageError(f"need 1 <= k < n, got ({shown(k)},{shown(n)})")


def check_degrees(degrees, where: str | None = None):
    """Reject a degree below 1; `where`, if given, names the input in the error."""
    if any(d < 1 for d in degrees):
        raise UsageError(f"{where + ': ' if where else ''}every degree must be >= 1")


def vertex_count(k: int, n: int) -> int:
    return 2 * (k - 1) * (n - k - 1) + n


def check_pluecker_count(k: int, n: int):
    """Reject C(n,k) > DIM_BOUND.  The count is built up as C(n,i), i = 1..
    min(k, n-k), and named in the error only while it has at most 1024 bits:
    C(2000000, 1000000) takes over a minute to compute whole, and has more
    digits than an int may be printed with."""
    check_kn(k, n)
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)  # C(n, i+1)
        if count.bit_length() > 1024:
            raise UsageError(f"C({shown(n)},{shown(k)}) > 2^1024 Pluecker coordinates exceed "
                             f"the bound {DIM_BOUND}")
    if count > DIM_BOUND:
        raise UsageError(f"C({n},{k}) = {count} Pluecker coordinates exceed "
                         f"the bound {DIM_BOUND}")


def check_vertex_entries(k: int, n: int):
    """Reject Delta(k,n) with more than VERTEX_ENTRY_BOUND vertex entries.
    There are at least n vertices, each of dimension at least 1, so n past
    the bound is refused before the count, of order n^4, is formed."""
    check_kn(k, n)
    if n > VERTEX_ENTRY_BOUND:
        raise UsageError(f"Delta({shown(k)},{shown(n)}) has at least {shown(n)} vertex entries, "
                         f"more than the bound {VERTEX_ENTRY_BOUND}")
    entries = vertex_count(k, n) * k * (n - k)
    if entries > VERTEX_ENTRY_BOUND:
        raise UsageError(f"Delta({k},{n}) has {entries} vertex entries, more than "
                         f"the bound {VERTEX_ENTRY_BOUND}")


def flat_index(k: int, n: int, i: int, j: int) -> int:
    """Position of basis vector f_{i,j} (1 <= i <= k, 1 <= j <= n-k)."""
    return (i - 1) * (n - k) + (j - 1)


def vertex_vector(k: int, n: int, label: Label) -> tuple[int, ...]:
    kind, i, j = label
    dim = k * (n - k)
    v = [0] * dim
    if kind == "u":
        if (i, j) == (1, 0):
            v[flat_index(k, n, 1, 1)] = 1
        else:
            v[flat_index(k, n, i, j + 1)] = 1
            v[flat_index(k, n, i - 1, j + 1)] = -1
    elif kind == "v":
        if (i, j) == (k, n - k):
            v[flat_index(k, n, k, n - k)] = -1
        else:
            v[flat_index(k, n, i, j + 1)] = 1
            v[flat_index(k, n, i, j)] = -1
    else:
        raise UsageError(f"bad label {label}")
    return tuple(v)


def vertex_labels(k: int, n: int) -> list[Label]:
    """u's row-major, then v's, then the final v_{k,n-k}; byte-stable order.
    Refuses more than VERTEX_ENTRY_BOUND vertex entries."""
    check_vertex_entries(k, n)
    labels: list[Label] = [("u", 1, 0)]
    for i in range(2, k + 1):
        for j in range(0, n - k):
            labels.append(("u", i, j))
    for i in range(1, k + 1):
        for j in range(1, n - k):
            labels.append(("v", i, j))
    labels.append(("v", k, n - k))
    return labels


@record
class DeltaKN:
    k: int
    n: int
    labels: tuple[Label, ...]
    vertices: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)


def build_delta(k: int, n: int) -> DeltaKN:
    labels = tuple(vertex_labels(k, n))
    verts = tuple(vertex_vector(k, n, lab) for lab in labels)
    if len(verts) != vertex_count(k, n):
        raise Mismatch(f"Delta({k},{n}) has {len(verts)} vertices, expected {vertex_count(k, n)}")
    return DeltaKN(k, n, labels, verts)


def facets_and_reflexivity(delta: DeltaKN):
    """The facet inequalities of Delta(k,n) in closed form, each certified.

    The vertices e_b - e_a of Delta(k,n) run over the cover relations a < b
    of the grid [k]x[n-k] with a bottom and a top adjoined (e = 0 on both),
    so Delta(k,n) is the polar of the grid's order polytope (Stanley, *Two
    poset polytopes*, 1986), and its facets are one per up-set F of the
    grid, C(n,k) of them: <m_F, x> >= -1 with m_F(i,j) = n [(i,j) in F]
    - (i + j - 1).  Row i of F holds the cells j >= t_i, t non-increasing.
    Completeness rests on that duality, which holds for Delta(k,n) only, so
    the vertex count is checked.  Each inequality is certified against
    delta.vertices: its minimum over them is -1, and the vertices attaining
    it have affine rank dim, so it is a facet, not a smaller face.  A failed
    check raises Mismatch.  Returns (facets, reflexive): facets the sorted
    list of (m, c) with <m, x> >= -c over the polytope, m a primitive
    integer vector; c = 1 on every facet, so Delta(k,n) is reflexive.
    """
    k, n = delta.k, delta.n
    check_pluecker_count(k, n)
    verts = delta.vertices
    if len(verts) != vertex_count(k, n):
        raise Mismatch(f"Delta({k},{n}) has {vertex_count(k, n)} vertices, got {len(verts)}")
    facets = []
    for t in itertools.combinations_with_replacement(range(n - k + 1, 0, -1), k):
        m = tuple(n * (j >= ti) - (i + j - 1)
                  for i, ti in enumerate(t, 1) for j in range(1, n - k + 1))
        vals = [sum(mi * x for mi, x in zip(m, v)) for v in verts]
        contact = [list(v) + [1] for v, val in zip(verts, vals) if val == -1]
        if min(vals) != -1 or rank(contact) != delta.dim:
            raise Mismatch(f"the up-set inequality {m} is not a facet of Delta({k},{n}): "
                           f"minimum {min(vals)} over the vertices, contact rank "
                           f"{rank(contact)}, dimension {delta.dim}")
        facets.append((m, Q(1)))
    return sorted(facets), True


# ---------------------------------------------------------------------------
# The poset of strictly increasing k-tuples in {1..n}.


def poset_aknn(k: int, n: int) -> list[tuple[int, ...]]:
    check_kn(k, n)
    return list(itertools.combinations(range(1, n + 1), k))


def tuple_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def tuple_meet(a, b) -> tuple[int, ...]:
    return tuple(min(x, y) for x, y in zip(a, b))


def tuple_join(a, b) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def binomial_equations(k: int, n: int) -> list[dict]:
    """One record per unordered incomparable pair: z_a z_a' = z_min z_max."""
    check_pluecker_count(k, n)
    tuples = poset_aknn(k, n)
    out = []
    for a, b in itertools.combinations(tuples, 2):
        if tuple_leq(a, b) or tuple_leq(b, a):
            continue
        out.append({"a": a, "b": b, "min": tuple_meet(a, b), "max": tuple_join(a, b)})
    return out


def nef_partition_sets(k: int, n: int) -> list[list[Label]]:
    check_kn(k, n)
    sets: list[list[Label]] = [[("u", 1, 0)]]
    for i in range(2, k + 1):
        sets.append([("u", i, j) for j in range(0, n - k)])
    for j in range(1, n - k):
        sets.append([("v", i, j) for i in range(1, k + 1)])
    sets.append([("v", k, n - k)])
    if len(sets) != n:
        raise Mismatch(f"nef partition of G({k},{n}) has {len(sets)} sets, expected {n}")
    return sets


def degree_grassmannian(k: int, n: int) -> int:
    """Degree of the Pluecker embedding: (k(n-k))! prod_i i!/(n-k+i)!."""
    check_kn(k, n)
    num = factorial(k * (n - k))
    frac = Q(1)
    for i in range(k):
        frac *= Q(factorial(i), factorial(n - k + i))
    result = num * frac
    if result.denominator != 1:
        raise Mismatch(f"degree of G({k},{n}) came out as {result}, not an integer")
    return int(result)
