from math import comb

import pytest

from grasscy.errors import Mismatch, UsageError
from grasscy.linalg import rank
from grasscy.registry import RegistryCase, RegistryError
from grasscy.toric import (
    DIM_BOUND,
    DeltaKN,
    binomial_equations,
    build_delta,
    check_vertex_entries,
    degree_grassmannian,
    facets_and_reflexivity,
    nef_partition_sets,
    poset_aknn,
    tuple_join,
    tuple_leq,
    tuple_meet,
    vertex_labels,
)

import support


def test_vertex_counts_all_small_kn():
    for n in range(2, 9):
        for k in range(2, n):
            delta = build_delta(k, n)
            assert len(delta.vertices) == 2 * (k - 1) * (n - k - 1) + n


def test_vertices_distinct_and_primitive():
    delta = build_delta(3, 6)
    assert len(set(delta.vertices)) == len(delta.vertices)
    from math import gcd

    for v in delta.vertices:
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1


def test_vertex_label_order_is_stable():
    assert vertex_labels(2, 4) == [
        ("u", 1, 0),
        ("u", 2, 0),
        ("u", 2, 1),
        ("v", 1, 1),
        ("v", 2, 1),
        ("v", 2, 2),
    ]


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (2, 8), (3, 7), (4, 7)])
def test_facets_and_reflexivity(k, n):
    delta = build_delta(k, n)
    facets, reflexive = facets_and_reflexivity(delta)
    assert len(facets) == comb(n, k)
    assert reflexive
    assert all(c > 0 for _, c in facets)  # the origin is interior
    # certificate: each <m, x> >= -c holds on every vertex, with equality on
    # a set of affine rank dim (a facet, not a lower-dimensional face)
    for m, c in facets:
        vals = [sum(mi * x for mi, x in zip(m, v)) for v in delta.vertices]
        assert all(val >= -c for val in vals)
        contact = [list(v) + [1] for v, val in zip(delta.vertices, vals) if val == -c]
        assert rank(contact) == delta.dim


EDGE_CASES = [(k, n) for n in range(2, 7) for k in sorted({1, n - 1})]


@pytest.mark.parametrize("k,n", support.GRASSMANNIANS + EDGE_CASES)
def test_facets_match_subset_search(k, n):
    """The closed form lists exactly the facets the search through every
    dim-subset of vertices finds: on the twelve G(k,n) with 2 <= k <= n-2
    that DIM_BOUND admits, and on the projective spaces G(1,n), G(n-1,n)."""
    delta = build_delta(k, n)
    assert facets_and_reflexivity(delta) == support.facets_by_subset_search(delta)


def test_facet_cap():
    with pytest.raises(UsageError, match=r"C\(8,4\) = 70 Pluecker coordinates"):
        facets_and_reflexivity(build_delta(4, 8))


def _tampered(delta, vertices):
    return DeltaKN(delta.k, delta.n, delta.labels, tuple(vertices))


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_facets_reject_a_doubled_vertex(k, n):
    """2v breaks every up-set inequality tight at v, whichever v it is."""
    delta = build_delta(k, n)
    for i, v in enumerate(delta.vertices):
        verts = list(delta.vertices)
        verts[i] = tuple(2 * x for x in v)
        with pytest.raises(Mismatch, match="minimum -2 over the vertices"):
            facets_and_reflexivity(_tampered(delta, verts))


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_facets_reject_a_dropped_vertex(k, n):
    delta = build_delta(k, n)
    for i in range(len(delta.vertices)):
        verts = delta.vertices[:i] + delta.vertices[i + 1:]
        with pytest.raises(Mismatch, match="vertices, got"):
            facets_and_reflexivity(_tampered(delta, verts))


def test_facets_reject_a_vertex_off_its_facets():
    """The first vertex, e_11, moved to the origin keeps the vertex count and
    every inequality, but the facets through it lose their contact rank."""
    delta = build_delta(2, 4)
    verts = ((0,) * delta.dim,) + delta.vertices[1:]
    with pytest.raises(Mismatch, match="contact rank 3, dimension 4"):
        facets_and_reflexivity(_tampered(delta, verts))


def test_binomial_equation_counts():
    for n in range(4, 9):
        assert len(binomial_equations(2, n)) == comb(n, 4)


def test_vertex_entry_bound():
    """The bound on Delta(k,n) and what is built on its vertices admits
    every G(k,n) within DIM_BOUND, G(1,40) and G(3,8), and refuses n past
    it without forming the count."""
    for n in range(2, DIM_BOUND + 1):
        for k in range(1, n):
            if comb(n, k) <= DIM_BOUND:
                check_vertex_entries(k, n)
    check_vertex_entries(1, 40)  # 40 vertices of dimension 39
    check_vertex_entries(3, 8)  # 24 vertices of dimension 15
    with pytest.raises(UsageError, match=r"Delta\(100,200\) has 198020000 vertex entries"):
        check_vertex_entries(100, 200)
    with pytest.raises(UsageError, match=r"has at least <an int of 13288 bits> vertex entries"):
        check_vertex_entries(1, 10**4000)  # past 1024 bits, named by its size
    with pytest.raises(UsageError, match="need 1 <= k < n"):
        check_vertex_entries(0, 3)


def test_binomial_equations_capped_by_pluecker_count():
    assert len(binomial_equations(3, 7)) > 0  # C(7,3) = 35, at the cap
    with pytest.raises(UsageError, match="792 Pluecker coordinates exceed the bound 35"):
        binomial_equations(5, 12)  # C(12,5) = 792
    with pytest.raises(UsageError):
        binomial_equations(2, 9)  # C(9,2) = 36


def test_binomial_equation_record():
    eqs = binomial_equations(2, 4)
    assert eqs == [
        {"a": (1, 4), "b": (2, 3), "min": (1, 3), "max": (2, 4)}
    ]


def test_poset_lattice_ops():
    tuples = poset_aknn(2, 5)
    assert len(tuples) == comb(5, 2)
    for a in tuples:
        for b in tuples:
            m, j = tuple_meet(a, b), tuple_join(a, b)
            assert tuple_leq(m, a) and tuple_leq(m, b)
            assert tuple_leq(a, j) and tuple_leq(b, j)


def test_nef_partition_sets_cover_vertices():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        sets = nef_partition_sets(k, n)
        assert len(sets) == n
        flat = [lab for s in sets for lab in s]
        assert sorted(flat) == sorted(vertex_labels(k, n))


def test_degree_grassmannian():
    assert degree_grassmannian(2, 4) == 2
    assert degree_grassmannian(2, 5) == 5
    assert degree_grassmannian(2, 6) == 14
    assert degree_grassmannian(2, 7) == 42
    assert degree_grassmannian(3, 6) == 42
    assert degree_grassmannian(1, 4) == 1  # projective space


def cy_case(name, k, n, degrees, strata_degrees):
    """A registry case with the Hodge numbers and node count of X113_G25,
    and a trivial K_z fixture and fit bound."""
    return RegistryCase(name, k, n, degrees, strata_degrees, 1, 76, (3, 72, -138), 6,
                        (1,), (1,), 1)


def test_cy_case_validation():
    for args, message in [
        (("bad", 2, 5, (1, 1, 2), (1, 1)), "degrees must sum to n"),
        (("bad", 2, 5, (3, 1, 1), (1, 1)), "degrees must be weakly increasing"),
        (("bad", 2, 5, (1, 1, 3), (1,)), "expected 2 strata degrees"),
        (("bad", 2, 4, (2, 2), (1,)), "a threefold in G(k,n) is cut by k(n-k) - 3 sections"),
        (("bad", 2, 5, (0, 2, 3), (1, 1)), "every degree must be >= 1"),  # sums to n, sorted
        (("bad", 0, 4, (4,), ()), "need 1 <= k < n, got (0,4)"),  # before the strata count
        (("bad", 2, 5, (1, 1, 3), (1, 2)), "node count disagrees with strata degrees"),
    ]:
        with pytest.raises(RegistryError) as exc:
            cy_case(*args)
        assert str(exc.value) == f"bad: {message}"


def test_hodge_after_transition():
    case = cy_case("X113", 2, 5, (1, 1, 3), (1, 1))
    assert case.alpha == 2
    assert case.node_count == 6
    assert case.hodge_Y == (3, 72, -138)
    assert case.n0 == 15
