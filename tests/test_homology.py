import random
import time
from itertools import combinations

import pytest

from bbraag.errors import CapacityError, DomainError
from bbraag.graphs import Graph, central_vertices
from bbraag.homology import (
    SimplicialComplex,
    acyclic_over_z_fast,
    boundary_matrix,
    collapse_to_point,
    flag_complex,
    is_acyclic,
    normalize_ring,
    rank_over_field,
    reduced_homology,
    smith_normal_form,
)
from bbraag.patterns import complete_graph, cycle_graph, gem_graph, overlapping_gems_graph, path_graph
from bbraag.enumeration import connected_graphs

from oracles import (
    dominates,
    fraction_rank,
    minor_gcd,
    rational_reduced_betti,
    reference_homology,
    rescanning_collapse,
)


# -- rings ------------------------------------------------------------------------


def test_ring_normalization():
    assert normalize_ring("Z") == "Z"
    assert normalize_ring(" Z") == "Z"
    assert normalize_ring("Fp:7") == "Fp:7"
    assert normalize_ring("Fp:0003") == "Fp:3"
    assert normalize_ring("Fp:" + "0" * 5000 + "3") == "Fp:3"
    with pytest.raises(DomainError):
        normalize_ring("Fp:6")
    with pytest.raises(DomainError):
        normalize_ring("R")
    # only ASCII decimal digits follow "Fp:"
    for tag in ("Fp:1_3", "Fp:\u0663", "Fp:+7", "Fp: 7", "Fp:", "Fp:7.0", "Fp:\u00b2"):
        with pytest.raises(DomainError):
            normalize_ring(tag)


def test_ring_tag_length_bounded(monkeypatch):
    import bbraag.homology

    def no_int(*args):
        raise AssertionError("int() called on an over-long tag")

    monkeypatch.setattr(bbraag.homology, "int", no_int, raising=False)
    for body in ("7" * 5000, "1" + "0" * 25):
        with pytest.raises(CapacityError) as exc:
            normalize_ring("Fp:" + body)
        assert len(str(exc.value)) < 200
    for tag in ("Fp:x" + "7" * 5000, "R" * 5000):
        with pytest.raises(DomainError) as exc:
            normalize_ring(tag)
        assert len(str(exc.value)) < 200


def test_ring_primality_exact_and_bounded():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, p))

    for p in range(2, 3000):
        tag = f"Fp:{p}"
        if trial_division(p):
            assert normalize_ring(tag) == tag
        else:
            with pytest.raises(DomainError):
                normalize_ring(tag)
    start = time.perf_counter()
    assert normalize_ring("Fp:1000000000000000003") == "Fp:1000000000000000003"
    assert time.perf_counter() - start < 1.0
    # 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5 and 7
    with pytest.raises(DomainError):
        normalize_ring("Fp:3215031751")
    with pytest.raises(CapacityError):
        normalize_ring("Fp:3317044064679887385962123")


# -- flag complexes ------------------------------------------------------------------


def test_flag_complex_examples():
    c = flag_complex(cycle_graph(4))
    assert [c.face_count(d) for d in range(c.dim + 1)] == [4, 4]
    c = flag_complex(complete_graph(4))
    assert [c.face_count(d) for d in range(c.dim + 1)] == [4, 6, 4, 1]
    c = flag_complex(overlapping_gems_graph())
    assert [c.face_count(d) for d in range(c.dim + 1)] == [6, 10, 6, 1]
    assert flag_complex(Graph([])).dim == -1


def test_boundary_squares_to_zero():
    rng = random.Random(31)
    graphs = [gem_graph(), overlapping_gems_graph(), complete_graph(5)]
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        graphs.append(Graph([str(i) for i in range(n)], edges))
    for g in graphs:
        c = flag_complex(g)
        for d in range(1, c.dim + 1):
            outer = boundary_matrix(c, d - 1) if d >= 1 else None
            inner = boundary_matrix(c, d)
            rows = len(outer)
            prod = [
                [
                    sum(outer[i][k] * inner[k][j] for k in range(len(inner)))
                    for j in range(len(inner[0]))
                ]
                for i in range(rows)
            ]
            assert all(x == 0 for row in prod for x in row)


# -- Smith normal form ----------------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]]).factors == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
    assert smith_normal_form([]).factors == ()


def test_snf_properties_random():
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(mat, with_transforms=True)
        # divisibility chain
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0
        assert res.rank <= min(m, n)
        assert res.rank == fraction_rank(mat)
        # product of first k factors = gcd of k x k minors
        prod = 1
        for k, f in enumerate(res.factors, start=1):
            prod *= f
            if k <= 3:
                assert prod == minor_gcd(mat, k)
        # transform witnesses: U * M * V = diag(factors)
        u, v = res.left, res.right
        d = [
            [sum(u[i][a] * mat[a][b] * v[b][j] for a in range(m) for b in range(n))
             for j in range(n)]
            for i in range(m)
        ]
        for i in range(m):
            for j in range(n):
                want = res.factors[i] if i == j and i < len(res.factors) else 0
                assert d[i][j] == want


def test_snf_entry_limit():
    with pytest.raises(CapacityError):
        smith_normal_form([[10**6, 1], [1, 10**6]], entry_limit=10**3)


def test_rank_over_field_matches_fraction_oracle():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert rank_over_field(mat, "Q") == fraction_rank(mat)
    with pytest.raises(DomainError):
        rank_over_field([[1]], "Z")


# -- reduced homology -------------------------------------------------------------------


def test_homology_examples():
    h = reduced_homology(flag_complex(cycle_graph(4)), "Z")
    assert h.groups == ((0, ()), (1, ()))
    for ring in ("Z", "Q", "Fp:2", "Fp:5"):
        assert is_acyclic(flag_complex(complete_graph(4)), ring)
        assert is_acyclic(flag_complex(path_graph(5)), ring)
    assert reduced_homology(flag_complex(overlapping_gems_graph()), "Z").trivial()
    assert not is_acyclic(flag_complex(cycle_graph(5)), "Q")
    # two components: reduced degree 0 has rank 1
    g = Graph("abcx", [("a", "b"), ("b", "c")])
    assert reduced_homology(flag_complex(g), "Z").free_rank(0) == 1


def test_homology_against_rational_oracle():
    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            betti = rational_reduced_betti(c)
            h = reduced_homology(c, "Q")
            assert [h.free_rank(i) for i in range(c.dim + 1)] == betti
            hz = reduced_homology(c, "Z")
            assert [hz.free_rank(i) for i in range(c.dim + 1)] == betti


def test_euler_characteristic_balance():
    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            h = reduced_homology(c, "Q")
            alt = sum((-1) ** i * h.free_rank(i) for i in range(c.dim + 1))
            assert c.euler_characteristic() - 1 == alt


def test_cone_acyclicity():
    for n in range(1, 7):
        for g in connected_graphs(n):
            if central_vertices(g):
                assert is_acyclic(flag_complex(g), "Z")


def test_homology_isomorphism_invariance():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph([str(i) for i in range(n)], edges)
        order = list(g.labels)
        rng.shuffle(order)
        h = Graph(order, g.edges())
        for ring in ("Z", "Fp:2"):
            assert (
                reduced_homology(flag_complex(g), ring).groups
                == reduced_homology(flag_complex(h), ring).groups
            )


# -- collapsibility ------------------------------------------------------------------------


def test_collapse_examples():
    assert collapse_to_point(flag_complex(complete_graph(4))).collapsible
    res = collapse_to_point(flag_complex(overlapping_gems_graph()))
    assert res.collapsible
    stuck = collapse_to_point(flag_complex(cycle_graph(4)))
    assert not stuck.collapsible
    assert len(stuck.remaining) == 8  # no free face at all in a hollow square
    assert collapse_to_point(flag_complex(Graph(["a"]))).collapsible


def test_collapse_sequence_replays():
    for g in (overlapping_gems_graph(), gem_graph(), complete_graph(5)):
        c = flag_complex(g)
        res = collapse_to_point(c)
        assert res.collapsible
        faces = {frozenset(f) for d in range(c.dim + 1) for f in c.face_labels(d)}
        for free, coface in res.sequence:
            free, coface = frozenset(free), frozenset(coface)
            assert free in faces and coface in faces
            assert free < coface and len(coface) == len(free) + 1
            supersets = [f for f in faces if free < f]
            assert supersets == [coface]
            faces.discard(free)
            faces.discard(coface)
        assert len(faces) == 1 and len(next(iter(faces))) == 1


def test_collapsible_implies_acyclic():
    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            if collapse_to_point(c).collapsible:
                for ring in ("Z", "Q", "Fp:2", "Fp:3"):
                    assert is_acyclic(c, ring)


def test_fast_acyclicity_agrees_with_direct():
    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            assert acyclic_over_z_fast(c) == is_acyclic(c, "Z")


# -- a complex with torsion: ring tags genuinely matter -------------------------------------


def projective_plane_poset_graph():
    """Comparability graph of the face poset of the 6-vertex projective plane.

    Built as the antipodal quotient of a combinatorial icosahedron; the clique
    complex of the comparability graph is the barycentric subdivision, with
    integral H_1 = Z/2.
    """
    A = [1 + i for i in range(5)]
    B = [6 + i for i in range(5)]
    Z, S = 0, 11
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces.append((Z, A[i], A[j]))
        faces.append((A[i], A[j], B[i]))
        faces.append((B[i], B[(i + 1) % 5], A[j]))
        faces.append((S, B[i], B[(i + 1) % 5]))
    assert len(faces) == 20
    sigma = {Z: S, S: Z}
    for i in range(5):
        sigma[A[i]] = B[(i + 2) % 5]
        sigma[B[i]] = A[(i + 3) % 5]
    assert all(sigma[sigma[x]] == x for x in sigma)
    rep = {x: min(x, sigma[x]) for x in sigma}
    quotient = {frozenset(rep[v] for v in f) for f in faces}
    assert len(quotient) == 10 and all(len(f) == 3 for f in quotient)
    triangles = sorted(tuple(sorted(f)) for f in quotient)
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    verts = sorted({v for t in triangles for v in t})
    assert (len(verts), len(edges), len(triangles)) == (6, 15, 10)
    # closed surface: every edge lies in exactly two triangles
    for e in edges:
        assert sum(1 for t in triangles if set(e) <= set(t)) == 2
    # comparability graph of the face poset (chains = cliques)
    elements = [frozenset((v,)) for v in verts]
    elements += [frozenset(e) for e in edges]
    elements += [frozenset(t) for t in triangles]
    names = {x: f"f{k}" for k, x in enumerate(sorted(elements, key=lambda s: (len(s), sorted(s))))}
    cmp_edges = [
        (names[x], names[y])
        for x in elements
        for y in elements
        if len(x) < len(y) and x < y
    ]
    return Graph(sorted(names.values(), key=lambda s: int(s[1:])), cmp_edges)


def test_projective_plane_torsion():
    g = projective_plane_poset_graph()
    c = flag_complex(g)
    assert [c.face_count(d) for d in range(c.dim + 1)] == [31, 90, 60]
    hz = reduced_homology(c, "Z")
    assert hz.groups == ((0, ()), (0, (2,)), (0, ()))
    assert reduced_homology(c, "Q").trivial()
    h2 = reduced_homology(c, "Fp:2")
    assert [h2.free_rank(i) for i in range(3)] == [0, 1, 1]
    assert reduced_homology(c, "Fp:3").trivial()
    # universal coefficients: field rank >= rational rank, equality away from torsion
    assert not acyclic_over_z_fast(c)


def test_projective_plane_fp_type_depends_on_field():
    from bbraag.invariants import fp_type

    g = projective_plane_poset_graph()
    assert fp_type(g, "Q") is None
    assert fp_type(g, "Fp:2") == 1
    assert fp_type(g, "Fp:3") is None
    assert fp_type(g, "Z") == 1


def test_gf2_bit_rows_match_modular_rank():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    for g in graphs + [projective_plane_poset_graph()]:
        c = flag_complex(g)
        ranks = [rank_over_field(boundary_matrix(c, d), "Fp:2") for d in range(c.dim + 1)]
        ranks.append(0)
        betti = [c.face_count(i) - ranks[i] - ranks[i + 1] for i in range(c.dim + 1)]
        h = reduced_homology(c, "Fp:2")
        assert [h.free_rank(i) for i in range(c.dim + 1)] == betti


def test_universal_coefficients_spot_checks():
    for n in range(1, 6):
        for g in connected_graphs(n):
            c = flag_complex(g)
            hq = reduced_homology(c, "Q")
            hz = reduced_homology(c, "Z")
            for i in range(c.dim + 1):
                assert hq.free_rank(i) == hz.free_rank(i)
            for p in (2, 3):
                hp = reduced_homology(c, f"Fp:{p}")
                for i in range(c.dim + 1):
                    assert hp.free_rank(i) >= hq.free_rank(i)
                    if not any(t % p == 0 for t in hz.torsion(i) + hz.torsion(i - 1)):
                        assert hp.free_rank(i) == hq.free_rank(i)


def test_snf_full_chain_against_minor_gcd_oracle():
    # every invariant factor checked: d_1 * ... * d_k = gcd of all k x k minors
    rng = random.Random(97)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        factors = smith_normal_form(mat).factors
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == minor_gcd(mat, k), (mat, factors)
        # rank bound: every (rank+1)-minor vanishes
        if len(factors) < min(m, n):
            assert minor_gcd(mat, len(factors) + 1) == 0


# -- the strong-collapse core -------------------------------------------------------------

RINGS = ("Z", "Q", "Fp:2", "Fp:3")


def complex_from_facets(facets) -> SimplicialComplex:
    """The complex generated by ``facets`` (label tuples), labels sorted."""
    labels = tuple(sorted({v for f in facets for v in f}))
    index = {v: i for i, v in enumerate(labels)}
    faces = {
        tuple(sorted(index[v] for v in sub))
        for f in facets
        for k in range(1, len(f) + 1)
        for sub in combinations(f, k)
    }
    top = max(len(f) for f in faces)
    return SimplicialComplex(
        labels, tuple(tuple(sorted(f for f in faces if len(f) == k)) for k in range(1, top + 1))
    )


# The 6-vertex real projective plane: not a flag complex (its 1-skeleton is K6).
RP2_FACETS = [
    tuple(f) for f in (
        "abe", "abf", "acd", "acf", "ade", "bcd", "bce", "bdf", "cef", "def"
    )
]


def label_faces(c: SimplicialComplex) -> set:
    return {frozenset(f) for d in range(c.dim + 1) for f in c.face_labels(d)}


def replay_strong_collapse(c: SimplicialComplex) -> None:
    """Check every (removed, dominator) pair on the complex of its step, then the core."""
    faces = label_faces(c)
    for removed, dominator in c.strong_collapse.pairs:
        assert removed != dominator
        assert any(removed in f for f in faces), removed
        assert dominates(faces, dominator, removed), (removed, dominator)
        faces = {f for f in faces if removed not in f}
    assert faces == label_faces(c.core)
    vertices = {v for f in faces for v in f}
    for v in vertices:
        assert not any(dominates(faces, u, v) for u in vertices - {v}), v


def test_hollow_triangle_is_not_reduced():
    # Its 1-skeleton is K3, where N[v] is inside N[u] for every pair; the faces say no.
    c = complex_from_facets(["ab", "ac", "bc"])
    assert c.strong_collapse.pairs == ()
    assert c.core is c
    for ring in RINGS:
        assert reduced_homology(c, ring).groups == ((0, ()), (1, ()))
    assert not acyclic_over_z_fast(c)


def test_projective_plane_core_keeps_torsion():
    rp2 = complex_from_facets(RP2_FACETS)
    assert rp2.strong_collapse.pairs == ()
    # a tetrahedron glued at a vertex and a pendant edge collapse away; H_3 pads with zero
    glued = complex_from_facets(RP2_FACETS + [tuple("awxy"), tuple("bz")])
    assert glued.dim == 3 and glued.core.dim == 2
    assert sorted(glued.core.labels) == sorted(rp2.labels)
    replay_strong_collapse(glued)
    want = {
        "Z": ((0, ()), (0, (2,)), (0, ())),
        "Q": ((0, ()), (0, ()), (0, ())),
        "Fp:2": ((0, ()), (1, ()), (1, ())),
        "Fp:3": ((0, ()), (0, ()), (0, ())),
    }
    for ring in RINGS:
        assert reduced_homology(rp2, ring).groups == want[ring]
        assert reduced_homology(glued, ring).groups == want[ring] + ((0, ()),)
        assert reduced_homology(glued, ring).groups == reference_homology(glued, ring)
    assert not acyclic_over_z_fast(glued)
    # the cone over it is contractible: the apex dominates every vertex
    cone = complex_from_facets([f + ("z",) for f in RP2_FACETS])
    replay_strong_collapse(cone)
    assert cone.core.face_count(0) == 1
    assert acyclic_over_z_fast(cone)
    for ring in RINGS:
        assert reduced_homology(cone, ring).trivial()
    fixture = flag_complex(projective_plane_poset_graph())
    replay_strong_collapse(fixture)
    assert reduced_homology(fixture, "Z").groups == want["Z"]


def test_empty_complex_and_two_points():
    empty = flag_complex(Graph([]))
    assert empty.strong_collapse.pairs == () and empty.core is empty
    assert not acyclic_over_z_fast(empty)
    two = flag_complex(Graph(["a", "b"]))
    assert two.strong_collapse.pairs == () and two.core is two
    assert not acyclic_over_z_fast(two)
    for ring in RINGS:
        assert reduced_homology(empty, ring).groups == ()
        assert reduced_homology(two, ring).groups == ((1, ()),)


def test_complete_graphs_reduce_to_a_point():
    for n in range(1, 11):
        c = flag_complex(complete_graph(n))
        assert len(c.strong_collapse.pairs) == n - 1
        assert c.core.face_count(0) == 1
        for ring in RINGS:
            groups = reduced_homology(c, ring).groups
            assert len(groups) == n
            assert all(g == (0, ()) for g in groups)
        assert acyclic_over_z_fast(c)


def test_strong_collapse_certificates_replay_v7():
    reduced = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            c = flag_complex(g)
            replay_strong_collapse(c)
            reduced += bool(c.strong_collapse.pairs)
    assert reduced > 0


def test_core_homology_matches_full_complex_reference_v7():
    for n in range(1, 8):
        for g in connected_graphs(n):
            c = flag_complex(g)
            reference = {ring: reference_homology(c, ring) for ring in RINGS}
            for ring in RINGS:
                assert reduced_homology(c, ring).groups == reference[ring], (g, ring)
            acyclic = all(group == (0, ()) for group in reference["Z"])
            assert acyclic_over_z_fast(flag_complex(g)) == acyclic, g


def test_collapse_matches_rescanning_oracle():
    complexes = [flag_complex(g) for n in range(1, 8) for g in connected_graphs(n)]
    complexes += [
        flag_complex(Graph([])),
        flag_complex(complete_graph(8)),
        flag_complex(projective_plane_poset_graph()),
        complex_from_facets(["ab", "ac", "bc"]),
        complex_from_facets(RP2_FACETS),
        complex_from_facets(RP2_FACETS + [tuple("awxy"), tuple("bz")]),
        complex_from_facets([f + ("z",) for f in RP2_FACETS]),
    ]
    outcomes = set()
    for c in complexes:
        res = collapse_to_point(c)
        assert (res.collapsible, res.sequence, res.remaining) == rescanning_collapse(c)
        outcomes.add(res.collapsible)
    assert outcomes == {True, False}
