import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from bbraag.errors import CapacityError, DomainError
from bbraag.graphs import Graph, central_vertices, clique_euler, is_connected
from bbraag.homology import (
    HOMOLOGY_FACE_LIMIT,
    SimplicialComplex,
    _elimination_factors,
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
from bbraag.invariants import Analysis

from oracles import (
    brute_flag_faces,
    dominates,
    face_strong_collapse,
    fraction_rank,
    integer_diagonal,
    invariant_factors,
    minor_gcd,
    modular_rank,
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


def random_graph(rng, n, percent):
    """A random graph on n vertices with distinct random hex labels, in no order."""
    labels = [f"{rng.getrandbits(24):06x}" for _ in range(n)]
    while len(set(labels)) < n:
        labels = [f"{rng.getrandbits(24):06x}" for _ in range(n)]
    return Graph(labels, [e for e in combinations(labels, 2) if rng.random() * 100 < percent])


def test_flag_complex_matches_brute_force():
    cases = [g for n in range(1, 8) for g in connected_graphs(n)]
    cases += [Graph([]), Graph("dcba"), Graph(["z"])]
    rng = random.Random(47)
    cases += [random_graph(rng, rng.randint(1, 11), rng.choice((20, 50, 80))) for _ in range(60)]
    for g in cases:
        c = flag_complex(g)
        assert c.labels == g.labels
        assert c.faces == brute_flag_faces(g), g.labels


def test_flag_complex_budget_counts_every_face(monkeypatch):
    def k(n):
        return Graph.from_masks([f"v{i}" for i in range(n)],
                                [((1 << n) - 1) ^ (1 << i) for i in range(n)])

    monkeypatch.setattr("bbraag.graphs.CLIQUE_BUDGET", 31)
    assert sum(map(len, flag_complex(k(5)).faces)) == 31
    for n in (6, 7, 40):
        with pytest.raises(CapacityError):
            flag_complex(k(n))

    # K_400 has 79,800 edges; each one made costs a tuple and a 400-bit mask,
    # several MB together, so the enumeration must stop inside the budget.
    big = k(400)
    monkeypatch.setattr("bbraag.graphs.CLIQUE_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            flag_complex(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
        res = smith_normal_form(mat)
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


def test_snf_entry_limit(monkeypatch):
    import bbraag.homology

    monkeypatch.setattr(bbraag.homology, "ENTRY_LIMIT", 10**3)
    with pytest.raises(CapacityError, match="SNF entry magnitude exceeded 1000"):
        smith_normal_form([[10**6, 1], [1, 10**6]])


def test_non_integer_entries_are_rejected():
    # truncated by int(), these would give the factors (1, 2) and (), and the rank 0
    with pytest.raises(DomainError):
        smith_normal_form([[1.5, 0], [0, 2.7]])
    with pytest.raises(DomainError):
        smith_normal_form([[Fraction(1, 2)]])
    with pytest.raises(DomainError):
        rank_over_field([[0.5]], "Q")
    # a ragged matrix has no factors or rank either
    with pytest.raises(DomainError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(DomainError):
        rank_over_field([[1, 2], [3]], "Q")
    assert smith_normal_form([[True, 0], [0, 4]]).factors == (1, 4)


def unit_free_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """About half zeros, the rest of magnitude 2 to 9, so no pivot is a unit at first."""
    values = [v for v in range(-9, 10) if abs(v) > 1]
    return [[rng.choice(values) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(m)]


def test_snf_of_unit_free_square_matrices():
    # least-magnitude pivots keep every entry under ENTRY_LIMIT; the factors
    # run to ~50, ~90 and ~160 bits.  Most pivots find no unit, and the unit
    # search is skipped until a unit can have appeared.
    for size, seed in ((size, seed) for size in (15, 25, 40) for seed in range(3)):
        mat = unit_free_matrix(random.Random(f"unit-free/{size}/{seed}"), size, size)
        factors = smith_normal_form(mat).factors
        assert list(factors) == invariant_factors(integer_diagonal(mat)), (size, seed)
        assert factors[-1].bit_length() > 40


def test_homology_face_limit(monkeypatch):
    import bbraag.homology

    # a cycle has no dominated vertex, so its core keeps every vertex and edge
    assert Analysis(cycle_graph(HOMOLOGY_FACE_LIMIT)).homology("Fp:2").free_rank(1) == 1

    def no_entries(*args):
        raise AssertionError("boundary built past the face limit")

    # every ring's boundary comes from this one entry source
    monkeypatch.setattr(bbraag.homology, "_boundary_entries", no_entries)
    big = Analysis(cycle_graph(HOMOLOGY_FACE_LIMIT + 1))
    for ring in ("Z", "Q", "Fp:2", "Fp:3"):
        with pytest.raises(CapacityError):
            big.homology(ring)


def test_face_limit_without_dismantling_reads_the_full_complex():
    # the cone over a long cycle: its flag complex dismantles to the apex, but the
    # same faces built by hand carry no dismantling and are their own core
    n = HOMOLOGY_FACE_LIMIT
    labels = [f"v{i}" for i in range(n)]
    wheel = Graph(labels + ["z"], [(v, "z") for v in labels] + list(zip(labels, labels[1:] + labels[:1])))
    flag = flag_complex(wheel)
    by_hand = SimplicialComplex(flag.labels, flag.faces)
    assert by_hand == flag and by_hand.core is by_hand
    assert flag.core.face_count(0) == 1
    for ring in RINGS:
        assert reduced_homology(flag, ring).trivial()
        with pytest.raises(CapacityError):
            reduced_homology(by_hand, ring)


def test_elimination_factors_against_oracles():
    # with and without unit entries: unit pivots, least-magnitude pivots, and both
    rng = random.Random(43)
    mats = []
    for trial in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        values = [v for v in range(-9, 10) if trial % 3 or abs(v) != 1]
        mats.append([[rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)])
    mats += [unit_free_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(60)]
    for mat in mats:
        entries = [(i, j, x) for i, row in enumerate(mat) for j, x in enumerate(row) if x]
        factors = _elimination_factors(entries)
        assert list(factors) == invariant_factors(integer_diagonal(mat)), mat
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            if k <= 3:
                assert prod == minor_gcd(mat, k), mat
        for p in (2, 3):
            assert rank_over_field(mat, f"Fp:{p}") == modular_rank(mat, p), mat


def test_elimination_entry_limit_in_sparse_phase(monkeypatch):
    import bbraag.homology

    monkeypatch.setattr(bbraag.homology, "ENTRY_LIMIT", 10)
    # the unit pivot at (0, 0) turns the 1 at (1, 1) into 1 - 5 * 5 = -24
    with pytest.raises(CapacityError):
        _elimination_factors([(0, 0, 1), (0, 1, 5), (1, 0, 5), (1, 1, 1)])
    # no unit: the pivot 2 at (0, 0) turns the -9 at (1, 1) into -9 - 2 * 9 = -27
    with pytest.raises(CapacityError):
        _elimination_factors([(0, 0, 2), (0, 1, 9), (1, 0, 4), (1, 1, -9)])


def test_four_rings_eliminate_each_boundary_once(monkeypatch):
    import bbraag.homology

    calls = []
    real = bbraag.homology._elimination_factors

    def counting(entries, *args):
        entries = list(entries)
        calls.append(len(entries))
        return real(entries, *args)

    monkeypatch.setattr(bbraag.homology, "_elimination_factors", counting)
    for g in (projective_plane_poset_graph(), cycle_graph(7), complete_graph(6)):
        c = flag_complex(g)
        # degrees 0 and 1 are read off the 1-skeleton; each boundary above is eliminated once
        for ring in RINGS:
            reduced_homology(c, ring)
        assert len(calls) == max(c.core.dim - 1, 0)
        calls.clear()
        a = Analysis(g)
        for ring in RINGS:
            a.homology(ring)
        assert len(calls) == max(c.core.dim - 1, 0)
        calls.clear()


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


def test_gf2_homology_matches_modular_rank():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    for g in graphs + [projective_plane_poset_graph()]:
        c = flag_complex(g)
        ranks = [modular_rank(boundary_matrix(c, d), 2) for d in range(c.dim + 1)]
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


def replay_core_certificate(c: SimplicialComplex) -> set:
    """Check every (removed, dominator) pair on the complex of its step; return what is left.

    A flag complex replays its dismantling, which must leave ``c.core``; a
    complex built by hand has no dismantling and is its own core, so the
    oracle's face rule supplies its pairs.
    """
    pairs = face_strong_collapse(c)[0] if c.dismantling is None else c.dismantling.pairs
    faces = label_faces(c)
    for removed, dominator in pairs:
        assert removed != dominator
        assert any(removed in f for f in faces), removed
        assert dominates(faces, dominator, removed), (removed, dominator)
        faces = {f for f in faces if removed not in f}
    if c.dismantling is None:
        assert c.core is c
    else:
        assert faces == label_faces(c.core)
    vertices = {v for f in faces for v in f}
    for v in vertices:
        assert not any(dominates(faces, u, v) for u in vertices - {v}), v
    return faces


def test_hollow_triangle_is_not_reduced():
    # Its 1-skeleton is K3, where N[v] is inside N[u] for every pair; the faces say no.
    c = complex_from_facets(["ab", "ac", "bc"])
    assert face_strong_collapse(c) == ((), 0b111)
    assert c.core is c
    for ring in RINGS:
        assert reduced_homology(c, ring).groups == ((0, ()), (1, ()))
    assert not acyclic_over_z_fast(c)


def test_projective_plane_core_keeps_torsion():
    rp2 = complex_from_facets(RP2_FACETS)
    assert face_strong_collapse(rp2)[0] == ()
    # a tetrahedron glued at a vertex and a pendant edge collapse away; H_3 pads with zero
    glued = complex_from_facets(RP2_FACETS + [tuple("awxy"), tuple("bz")])
    assert glued.dim == 3 and glued.core is glued
    core = replay_core_certificate(glued)
    assert core == label_faces(rp2)
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
    assert len(replay_core_certificate(cone)) == 1
    assert cone.core is cone
    assert acyclic_over_z_fast(cone)
    for ring in RINGS:
        assert reduced_homology(cone, ring).trivial()
    fixture = flag_complex(projective_plane_poset_graph())
    replay_core_certificate(fixture)
    assert reduced_homology(fixture, "Z").groups == want["Z"]


def test_empty_complex_and_two_points():
    empty = flag_complex(Graph([]))
    assert empty.dismantling.pairs == () and empty.core is empty
    assert not acyclic_over_z_fast(empty)
    two = flag_complex(Graph(["a", "b"]))
    assert two.dismantling.pairs == () and two.core is two
    assert not acyclic_over_z_fast(two)
    for ring in RINGS:
        assert reduced_homology(empty, ring).groups == ()
        assert reduced_homology(two, ring).groups == ((1, ()),)
        # the empty complex has nonzero reduced homology in degree -1
        assert not is_acyclic(empty, ring) and not is_acyclic(two, ring)
        assert not Analysis(Graph([])).acyclic(ring)


def test_complete_graphs_reduce_to_a_point():
    for n in range(1, 11):
        c = flag_complex(complete_graph(n))
        assert len(c.dismantling.pairs) == n - 1
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
            replay_core_certificate(c)
            reduced += bool(c.dismantling.pairs)
    assert reduced > 0


def small_graphs():
    """Every connected graph with v <= 7, then the empty graph, one vertex,
    seeded random graphs on shuffled labels, most of them disconnected, and
    seeded random graphs with 9 to 14 vertices."""
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [Graph([]), Graph(["a"]), Graph("ba"), Graph("zyxwvu", ["zy", "yx", "xz", "wv"])]
    rng = random.Random(59)
    for _ in range(60):
        labels = [f"v{i}" for i in range(rng.randint(2, 8))]
        rng.shuffle(labels)
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.35]
        graphs.append(Graph(labels, edges))
    # and larger ones: 141 dominated vertices in 33 of these 36 graphs
    for _ in range(36):
        labels = [f"v{i}" for i in range(rng.randint(9, 14))]
        p = rng.choice((0.2, 0.35, 0.5))
        edges = [e for e in combinations(labels, 2) if rng.random() < p]
        graphs.append(Graph(labels, edges))
    assert sum(not is_connected(g) for g in graphs) > 30
    return graphs


def assert_dismantling_is_strong_collapse(g):
    """The flag complex's core, with and without the Analysis's dismantling handed
    over, and ``Analysis.core`` against the face rule of the oracle."""
    c = flag_complex(g)
    pairs, alive = face_strong_collapse(c)
    a = Analysis(g)
    assert c.dismantling.pairs == a.complex.dismantling.pairs == pairs, g
    assert (a.core.pairs, a.core.alive) == (pairs, alive), g
    kept = {g.labels[i] for i in range(g.n) if alive >> i & 1}
    for core in (c.core, a.complex.core):
        assert core.labels == tuple(v for v in g.labels if v in kept), g
        assert label_faces(core) == {f for f in label_faces(c) if f <= kept}, g
    assert clique_euler(g.adj, alive) == c.core.euler_characteristic()
    assert a.dim == c.dim


def test_dismantling_matches_strong_collapse_v7():
    for g in small_graphs():
        assert_dismantling_is_strong_collapse(g)


@pytest.mark.slow
def test_dismantling_matches_strong_collapse_v8():
    for g in connected_graphs(8):
        assert_dismantling_is_strong_collapse(g)


def test_core_homology_matches_full_complex_reference_v7():
    for g in small_graphs():
        c = flag_complex(g)
        reference = {ring: reference_homology(c, ring) for ring in RINGS}
        a = Analysis(g)
        for ring in RINGS:
            assert reduced_homology(c, ring).groups == reference[ring], (g, ring)
            assert a.homology(ring).groups == reference[ring], (g, ring)
        # the empty complex has nonzero reduced homology in degree -1
        acyclic = g.n > 0 and all(group == (0, ()) for group in reference["Z"])
        assert acyclic_over_z_fast(flag_complex(g)) == acyclic, g
        assert Analysis(g).acyclic("Z") == a.acyclic("Z") == acyclic, g


def assert_boundary_factors(c: SimplicialComplex):
    """Each boundary's factors against the diagonal oracle, and its F_2 and F_3 ranks."""
    for d, factors in enumerate(c.boundary_factors):
        mat = boundary_matrix(c, d)
        assert list(factors) == invariant_factors(integer_diagonal(mat)), d
        for p in (2, 3):
            assert sum(1 for f in factors if f % p) == modular_rank(mat, p), (d, p)


def test_boundary_factors_against_oracle_v7():
    # the full complexes, not their cores, so every boundary of every graph is eliminated
    for g in [g for n in range(1, 8) for g in connected_graphs(n)]:
        assert_boundary_factors(flag_complex(g))
    rp2 = flag_complex(projective_plane_poset_graph())
    assert_boundary_factors(rp2)
    assert rp2.boundary_factors[2].count(2) == 1  # the torsion, so F_2 sees what Q does not


def test_low_boundary_factors_closed_form(monkeypatch):
    import bbraag.homology

    complexes = [
        complex_from_facets(["abc", "xyz"]),  # two disjoint triangles
        complex_from_facets(["ab", "ac", "bc", "x"]),  # a hollow triangle and a point
        complex_from_facets(["a", "b", "c"]),  # isolated points only
        complex_from_facets(RP2_FACETS),
        complex_from_facets(["a"]),
    ]
    want = [((1,), (1,) * 4), ((1,), (1,) * 2), ((1,),), ((1,), (1,) * 5), ((1,),)]
    # no elimination below degree 2: a complex of dimension at most 1 makes none
    calls = []
    real = bbraag.homology._elimination_factors
    monkeypatch.setattr(
        bbraag.homology, "_elimination_factors", lambda e: calls.append(1) or real(e)
    )
    for c, low in zip(complexes, want):
        assert c.boundary_factors[:2] == low, c.labels
        for d in range(min(c.dim, 1) + 1):
            assert list(c.boundary_factors[d]) == invariant_factors(
                integer_diagonal(boundary_matrix(c, d))
            ), (c.labels, d)
    assert len(calls) == 2  # degree 2 of the disjoint triangles and of RP^2 only
    empty = SimplicialComplex((), ())
    assert empty.boundary_factors == ()
    assert reduced_homology(empty, "Z").groups == ()
    assert reduced_homology(complexes[-1], "Z").groups == ((0, ()),)
    assert reduced_homology(complexes[2], "Z").groups == ((2, ()),)


def test_boundary_factors_on_large_random_cores():
    sizes = []
    for seed, n, percent in ((0, 28, 42), (1, 30, 40), (2, 26, 50)):
        rng = random.Random(seed)
        labels = [f"v{i}" for i in range(n)]
        g = Graph(labels, [e for e in combinations(labels, 2) if rng.random() * 100 < percent])
        core = flag_complex(g).core
        assert_boundary_factors(core)
        sizes.append(max(core.face_count(d) for d in range(core.dim + 1)))
    assert all(150 <= k <= HOMOLOGY_FACE_LIMIT for k in sizes), sizes


def test_collapse_matches_rescanning_oracle():
    complexes = [flag_complex(g) for n in range(1, 8) for g in connected_graphs(n)]
    complexes += [
        flag_complex(Graph([])),
        flag_complex(complete_graph(8)),
        flag_complex(complete_graph(9)),
        # K_{2,2,2,2,2}: the boundary of the 5-dimensional cross-polytope, S^4
        flag_complex(Graph(range(10), [(a, b) for a, b in combinations(range(10), 2) if b - a != 5])),
        flag_complex(projective_plane_poset_graph()),
        complex_from_facets(["ab", "ac", "bc"]),
        complex_from_facets(RP2_FACETS),
        complex_from_facets(RP2_FACETS + [tuple("awxy"), tuple("bz")]),
        complex_from_facets([f + ("z",) for f in RP2_FACETS]),
        # labels out of index order: ordering faces by index picks other free faces
        flag_complex(complete_graph(9, labels=[str(8 - i) for i in range(9)])),
    ]
    rng = random.Random(71)
    complexes += [flag_complex(random_graph(rng, 11, 70)) for _ in range(3)]
    outcomes = set()
    for c in complexes:
        res = collapse_to_point(c)
        assert (res.collapsible, res.sequence, res.remaining) == rescanning_collapse(c)
        outcomes.add(res.collapsible)
    assert outcomes == {True, False}
