import random
from fractions import Fraction
from itertools import combinations

import pytest

import bbraag.invariants as invariants
from bbraag.errors import CapacityError, DomainError, NotSupportedError
from bbraag.graphs import Graph, central_vertices, is_connected
from bbraag.homology import flag_complex
from bbraag.invariants import (
    Analysis,
    ConeStrip,
    FreeSplit,
    StructureGraph,
    bb_abelian,
    bb_cohomology_dimensions,
    bb_free,
    bb_structure_graph,
    coherence,
    finitely_presented_group,
    fp_type,
    inequality_checks,
    invariant_report,
    koszul_hilbert_check,
    omega,
    omega_identity_check,
    replay_structure,
    subgroups_raag,
)
from bbraag.patterns import (
    complete_graph,
    cycle_graph,
    gem_graph,
    overlapping_gems_graph,
    path_graph,
    star_graph,
)
from bbraag.recognition import is_chordal, is_droms, is_tree_of_droms
from bbraag.enumeration import connected_graphs

import oracles
from oracles import chi_quotient_dims, fraction_rank, hilbert_product
from test_homology import projective_plane_poset_graph, small_graphs


# -- fp type -----------------------------------------------------------------------


def test_fp_type_examples():
    assert fp_type(cycle_graph(4)) == 1
    assert fp_type(gem_graph()) is None
    assert fp_type(Graph(["a", "b"])) == 0
    assert fp_type(path_graph(5)) is None
    assert fp_type(cycle_graph(5), "Fp:7") == 1


def test_fp_type_equals_first_nonvanishing_degree():
    from bbraag.homology import flag_complex

    from oracles import rational_reduced_betti

    for n in range(1, 6):
        for g in connected_graphs(n):
            betti = rational_reduced_betti(flag_complex(g))
            expected = next((i for i, b in enumerate(betti) if b), None)
            assert fp_type(g, "Q") == expected


# -- coherence, freeness, abelianness ---------------------------------------------------


def test_coherence_examples():
    res = coherence(cycle_graph(5))
    assert not res.coherent and res.chordality.witness.pattern == "C5"
    assert coherence(overlapping_gems_graph()).coherent
    assert coherence(Graph(["a"])).coherent


def test_coherence_delegates_to_chordality():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert coherence(g).coherent == is_chordal(g).chordal


def test_bb_free_examples():
    res = bb_free(path_graph(4))
    assert res.free and res.rank == 3
    res = bb_free(complete_graph(3))
    assert not res.free and "triangle" in res.reason
    res = bb_free(Graph("abcd", [("a", "b"), ("c", "d")]))
    assert not res.free and "finitely generated" in res.reason
    res = bb_free(cycle_graph(5))
    assert not res.free


def test_bb_abelian_examples():
    assert bb_abelian(complete_graph(3)).rank == 2
    assert bb_abelian(complete_graph(5)).rank == 4
    assert not bb_abelian(path_graph(3)).abelian
    with pytest.raises(DomainError):
        bb_abelian(Graph("ab"))


def test_subgroups_raag_examples():
    with pytest.raises(DomainError):
        subgroups_raag(Graph("ab"))
    assert not subgroups_raag(gem_graph()).holds
    assert not subgroups_raag(overlapping_gems_graph()).holds
    res = subgroups_raag(path_graph(6))
    assert res.holds and res.decomposition is not None


# -- structure graph ----------------------------------------------------------------------


def test_structure_examples():
    s = bb_structure_graph(gem_graph())
    assert s.graph == path_graph(4, "abcd")
    s = bb_structure_graph(complete_graph(3))
    assert s.graph.n == 2 and s.graph.edge_count == 1
    s = bb_structure_graph(path_graph(4, "abcd"))
    assert s.graph.n == 3 and s.graph.edge_count == 0
    with pytest.raises(NotSupportedError):
        bb_structure_graph(overlapping_gems_graph())
    with pytest.raises(DomainError):
        bb_structure_graph(Graph("ab"))


def test_structure_replay():
    for g in (gem_graph(), complete_graph(4), path_graph(6), star_graph(4),
              Graph("abvcd", [("a", "b"), ("a", "v"), ("b", "v"), ("c", "d"),
                              ("c", "v"), ("d", "v")])):
        s = bb_structure_graph(g)
        assert replay_structure(g, s.derivation) == s.graph


def test_structure_depth_limit(monkeypatch):
    # path_graph(n) nests n - 3 splits for 4 <= n <= 12
    monkeypatch.setattr(invariants, "STRUCTURE_DEPTH_LIMIT", 3)
    s = bb_structure_graph(path_graph(6))
    assert replay_structure(path_graph(6), s.derivation) == s.graph
    with pytest.raises(CapacityError, match="more than 3 splits"):
        bb_structure_graph(path_graph(7))
    with pytest.raises(CapacityError):
        invariant_report(path_graph(7))


def test_replay_rejects_a_wrong_log():
    bowtie = Graph("abvcd", [("a", "b"), ("a", "v"), ("b", "v"), ("c", "d"), ("c", "v"), ("d", "v")])
    p5 = path_graph(5)
    again = FreeSplit("1", (ConeStrip("0"), ConeStrip("1")))
    for g, wrong in [
        (bowtie, ConeStrip("a")),  # not central
        (bowtie, ConeStrip("x")),  # not a vertex
        (p5, FreeSplit("0", ())),  # not a cut vertex
        (p5, FreeSplit("x", ())),
        (p5, FreeSplit("1", (ConeStrip("0"),))),  # one part short
        # "1" cuts P5 but not its part 1-2-3-4, nor the part 2-3-4 of the split at "2"
        (p5, FreeSplit("1", (ConeStrip("0"), again))),
        (p5, FreeSplit("2", (again, again))),
        (Graph("ab"), ConeStrip("a")),  # disconnected
    ]:
        for replay in (replay_structure, oracles.replay_structure):
            with pytest.raises(DomainError):
                replay(g, wrong)


def assert_splits_match_oracles(g):
    """The tree-of-Droms decomposition, the structure derivation and its replay
    give the JSON of the reference splits in tests/oracles.py."""
    res = is_tree_of_droms(g)
    if res.tree_of_droms:
        expect = oracles.tree_of_droms_decomposition(g)
        assert res.decomposition.to_json() == expect.to_json(), g
    if not (res.tree_of_droms or central_vertices(g)):
        return
    s = bb_structure_graph(g)
    derivation = oracles.structure_derivation(g)
    assert s.derivation.to_json() == derivation.to_json(), g
    expect = StructureGraph(oracles.replay_structure(g, derivation), derivation)
    assert s.to_json() == expect.to_json(), g


def test_splits_match_oracles_v7():
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert_splits_match_oracles(g)


@pytest.mark.slow
def test_splits_match_oracles_v8():
    for g in connected_graphs(8):
        assert_splits_match_oracles(g)


def random_tree(rng, n, clique_sizes=(2,)):
    """Shuffled labels; each new block is a clique hung at an earlier vertex."""
    labels = [f"t{i}" for i in range(n)]
    rng.shuffle(labels)
    edges, made = [], 1
    while made < n:
        k = min(rng.choice(clique_sizes), n - made + 1)
        block = [labels[rng.randrange(made)]] + labels[made:made + k - 1]
        edges += combinations(block, 2)
        made += k - 1
    return Graph(labels, edges)


def triangle_chain(k):
    edges = []
    for i in range(k):
        a, b, c = f"c{2 * i}", f"c{2 * i + 1}", f"c{2 * i + 2}"
        edges += [(a, b), (b, c), (a, c)]
    return Graph([f"c{i}" for i in range(2 * k + 1)], edges)


def test_splits_match_oracles_on_long_inputs():
    rng = random.Random(15)
    graphs = [random_tree(rng, n) for n in (30, 90, 200, 400)]
    graphs += [random_tree(rng, n, (2, 3, 4)) for n in (40, 150)]
    graphs += [triangle_chain(k) for k in (1, 2, 5, 40, 150)]
    graphs += [path_graph(450), path_graph(500)]
    for g in graphs:
        assert_splits_match_oracles(g)


def test_structure_trees_isolated_vertices():
    # every tree on v vertices yields v-1 isolated vertices
    for n in range(1, 8):
        for g in connected_graphs(n):
            if g.edge_count != g.n - 1:
                continue
            s = bb_structure_graph(g)
            assert s.graph.n == g.n - 1
            assert s.graph.edge_count == 0


def test_structure_of_trees_of_droms_is_droms_union():
    for n in range(1, 7):
        for g in connected_graphs(n):
            res = subgroups_raag(g)
            if res.holds:
                s = bb_structure_graph(g)
                assert is_droms(s.graph).droms
                assert replay_structure(g, s.derivation) == s.graph


# -- omega --------------------------------------------------------------------------------


def test_omega_examples():
    assert omega(4, 6, 4) == 0  # complete-graph data
    assert omega(6, 15, 6) == 0
    assert omega(5, 7, 3) == 8
    assert omega(3, 0, 1) == 0
    with pytest.raises(DomainError):
        omega(3, 0, 0)


def test_omega_identity_examples():
    res = omega_identity_check(gem_graph())
    assert (res.lhs, res.rhs, res.passed) == (12, 12, True)
    res = omega_identity_check(complete_graph(3))
    assert (res.lhs, res.rhs, res.passed) == (0, 0, True)
    assert not omega_identity_check(cycle_graph(4)).applicable
    assert not omega_identity_check(Graph("ab")).applicable


def test_omega_identity_all_acyclic_small():
    for n in range(1, 7):
        for g in connected_graphs(n):
            res = omega_identity_check(g)
            if res.applicable:
                assert res.passed, (g.edges(), res)


# -- inequalities ----------------------------------------------------------------------------


def test_inequality_examples():
    res = inequality_checks(gem_graph())
    assert (res["acyclic_dim_bound"].lhs, res["acyclic_dim_bound"].rhs) == (20, 16)
    assert res["acyclic_dim_bound"].passed
    assert not res["droms_tree_bound"].applicable

    res = inequality_checks(complete_graph(3))
    assert (res["acyclic_dim_bound"].lhs, res["acyclic_dim_bound"].rhs) == (4, 4)
    assert res["acyclic_dim_bound"].passed
    # the looser display legitimately fails on complete graphs; flagged, not hidden
    assert res["droms_tree_bound"].applicable
    assert (res["droms_tree_bound"].lhs, res["droms_tree_bound"].rhs) == (2, 4)
    assert res["droms_tree_bound"].passed is False
    assert res["droms_tree_bound"].note

    for n in range(2, 7):
        tree = path_graph(n)
        res = inequality_checks(tree)
        assert res["turan_nonneg"].lhs == (n - 2) ** 2  # perfect square for trees
        assert res["turan_nonneg"].passed

    res = inequality_checks(cycle_graph(5))
    assert not res["acyclic_dim_bound"].applicable


def test_inequality_checks_on_k24():
    # K_24 has 2^24 - 1 cliques, far over CLIQUE_BUDGET: its one-vertex core
    # decides acyclicity before any clique is walked, and Bron-Kerbosch meets
    # its one maximal clique.
    res = inequality_checks(complete_graph(24))
    bound = res["acyclic_dim_bound"]
    assert bound.applicable and bound.passed
    assert (bound.lhs, bound.rhs) == (23 * (24 * 24 - 2 * 276 - 1), 23 * 23)


PREDICATE_RINGS = ("Z", "Q", "Fp:2", "Fp:3")


def assert_predicate_matches_oracle(g):
    """``Analysis.acyclic`` over every ring and ``Analysis.dim`` against the
    homology of the whole flag complex and its brute-force faces."""
    c = flag_complex(g)
    dim = len(oracles.brute_flag_faces(g)) - 1
    for ring in PREDICATE_RINGS:
        groups = oracles.reference_homology(c, ring)
        acyclic = g.n > 0 and all(group == (0, ()) for group in groups)
        a = Analysis(g)
        assert a.acyclic(ring) == acyclic, (g, ring)
        assert a.dim == dim, g


def test_predicate_matches_oracle_v7():
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert_predicate_matches_oracle(g)


@pytest.mark.slow
def test_predicate_matches_oracle_v8():
    for g in connected_graphs(8):
        assert_predicate_matches_oracle(g)


def test_two_dim_edge_bound():
    res = inequality_checks(gem_graph())
    out = res["two_dim_edge_bound"]
    assert out.applicable and (out.lhs, out.rhs) == (36, 32) and out.passed
    assert not inequality_checks(path_graph(4))["two_dim_edge_bound"].applicable


# -- graded cohomology dimensions -------------------------------------------------------------


def exterior_quotient_dims_oracle(g):
    """Dims of the exterior algebra on the vertices modulo (non-edges, vertex sum).

    Works on the full 2^n monomial basis with Fraction arithmetic; independent
    of the clique-basis construction in the library.
    """
    n = g.n
    monomials = [tuple(c) for k in range(n + 1) for c in combinations(range(n), k)]
    index = {m: i for i, m in enumerate(monomials)}

    def wedge_vertex(v, mono):
        if v in mono:
            return 0, None
        sign = (-1) ** sum(1 for x in mono if x < v)
        return sign, tuple(sorted(mono + (v,)))

    generators = []  # vectors spanning the ideal, graded later
    non_edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (g.adj[i] >> j) & 1
    ]
    for mono in monomials:
        # m ^ (x ^ y) for every non-edge
        for (x, y) in non_edges:
            if x in mono or y in mono:
                continue
            s1, m1 = wedge_vertex(y, mono)
            s2, m2 = wedge_vertex(x, m1)
            vec = [Fraction(0)] * len(monomials)
            vec[index[m2]] = Fraction(s1 * s2)
            generators.append(vec)
        # m ^ chi
        vec = [Fraction(0)] * len(monomials)
        nonzero = False
        for v in range(n):
            s, m2 = wedge_vertex(v, mono)
            if s:
                vec[index[m2]] += s
                nonzero = True
        if nonzero:
            generators.append(vec)
    dims = []
    for k in range(n + 1):
        idx = [index[m] for m in monomials if len(m) == k]
        graded = [[vec[i] for i in idx] for vec in generators if any(vec[i] for i in idx)]
        rank = fraction_rank(graded) if graded else 0
        dims.append(len(idx) - rank)
    return dims


def test_cohomology_dims_examples():
    assert bb_cohomology_dimensions(complete_graph(3)).dims == (1, 2, 1, 0)
    assert bb_cohomology_dimensions(star_graph(3)).dims == (1, 3, 0)
    assert bb_cohomology_dimensions(cycle_graph(4)).dims[1] == 3
    with pytest.raises(DomainError):
        bb_cohomology_dimensions(complete_graph(3), "Z")


def test_cohomology_dims_against_exterior_oracle():
    rng = random.Random(71)
    graphs = [complete_graph(3), star_graph(3), path_graph(4), cycle_graph(4), Graph(["a"])]
    for _ in range(15):
        n = rng.randint(1, 5)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(Graph([str(i) for i in range(n)], edges))
    for g in graphs:
        dims = list(bb_cohomology_dimensions(g).dims)
        oracle = exterior_quotient_dims_oracle(g)
        # oracle reports up to degree n; pad both to same length
        width = max(len(dims), len(oracle))
        dims += [0] * (width - len(dims))
        oracle += [0] * (width - len(oracle))
        assert dims == oracle, g.edges()


def assert_dims_match_chi_oracle(graphs):
    for g in graphs:
        for ring in ("Q", "Fp:2", "Fp:3"):
            dims = bb_cohomology_dimensions(g, ring).dims
            assert list(dims) == chi_quotient_dims(g, ring), (g, ring)


def test_cohomology_dims_match_chi_oracle():
    # the barycentric projective plane has 2-torsion, so its F_2 Betti numbers differ
    assert_dims_match_chi_oracle(small_graphs() + [projective_plane_poset_graph()])


@pytest.mark.slow
def test_cohomology_dims_match_chi_oracle_v8():
    assert_dims_match_chi_oracle(connected_graphs(8))


def test_dim_one_is_v_minus_one():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert bb_cohomology_dimensions(g).dims[1] == g.n - 1


def test_b2_matches_quotient_degree_two():
    # e - v + 1 against the library and against the chi-oracle's clique-basis rank;
    # the library reads dims off the Betti numbers, so only the oracle is a second route
    for n in range(1, 7):
        for g in connected_graphs(n):
            from bbraag.homology import flag_complex, reduced_homology

            hom = reduced_homology(flag_complex(g), "Q")
            if hom.free_rank(1):
                continue
            for dims in (bb_cohomology_dimensions(g).dims, chi_quotient_dims(g, "Q")):
                a2 = dims[2] if len(dims) > 2 else 0
                assert a2 == g.edge_count - g.n + 1


# -- Hilbert series ---------------------------------------------------------------------------


def test_hilbert_examples():
    res = koszul_hilbert_check(complete_graph(3), 10)
    assert res.passed and res.enveloping_series[:4] == (1, 2, 3, 4)
    res = koszul_hilbert_check(star_graph(3), 10)
    assert res.passed and res.enveloping_series[:4] == (1, 3, 9, 27)
    res = koszul_hilbert_check(path_graph(4), 10)
    assert res.passed and res.enveloping_series[:4] == (1, 3, 9, 27)
    assert not koszul_hilbert_check(cycle_graph(4), 10).applicable
    assert not koszul_hilbert_check(Graph("ab"), 10).applicable
    with pytest.raises(DomainError):
        koszul_hilbert_check(complete_graph(3), 1)


def test_hilbert_chordal_small():
    for n in range(1, 6):
        for g in connected_graphs(n):
            if is_chordal(g).chordal:
                res = koszul_hilbert_check(g, 12)
                assert res.applicable and res.passed
                # h_A from the chi-oracle, not from the Betti numbers
                product = hilbert_product(chi_quotient_dims(g, "Q"), res.enveloping_series)
                assert product == [1] + [0] * 12, g


# -- three-valued finite presentation ---------------------------------------------------------


def test_finitely_presented_group_values():
    assert finitely_presented_group(gem_graph()) == "YES"
    assert finitely_presented_group(overlapping_gems_graph()) == "YES"
    assert finitely_presented_group(cycle_graph(4)) == "NO"
    assert finitely_presented_group(cycle_graph(5)) == "NO"


def test_finitely_presented_group_one_vertex_core_skips_collapse(monkeypatch):
    import bbraag.invariants as inv
    from bbraag.homology import collapse_to_point, flag_complex

    real = inv.collapse_to_point
    collapses = []

    def counting(c):
        collapses.append(c)
        return real(c)

    monkeypatch.setattr(inv, "collapse_to_point", counting)
    assert finitely_presented_group(gem_graph()) == "YES"
    assert collapses == []
    # the fast path turns no greedy-collapse UNKNOWN into a YES here
    for n in range(1, 8):
        for g in connected_graphs(n):
            a = Analysis(g)
            h1 = a.homology("Z").free_rank(1) or a.homology("Z").torsion(1)
            greedy = "NO" if h1 else "YES" if collapse_to_point(flag_complex(g)).collapsible else "UNKNOWN"
            assert finitely_presented_group(a) == greedy, g


# -- report assembly ---------------------------------------------------------------------------


def test_report_gem():
    rep = invariant_report(gem_graph())
    assert (rep.v, rep.e, rep.flag_dim, rep.cd_raag) == (5, 7, 2, 3)
    assert rep.b1_raag == 5 and rep.b2_raag == 7
    assert rep.b1_bb == 4 and rep.omega_raag == 8
    ring_q = next(r for r in rep.rings if r.ring == "Q")
    assert ring_q.fp_type is None and ring_q.b2_bb == 3 and ring_q.omega_bb == 4
    assert rep.subgroups_raag is not None and not rep.subgroups_raag.holds
    assert rep.structure.graph == path_graph(4, "abcd")
    assert rep.omega_identity.lhs == 12 and rep.omega_identity.rhs == 12
    assert rep.finitely_presented_group == "YES"


def test_report_disconnected():
    rep = invariant_report(Graph("abcx", [("a", "b"), ("b", "c")]))
    assert rep.b1_bb is None
    assert rep.bb_abelian is None and rep.subgroups_raag is None
    assert rep.structure is None and "connected" in rep.structure_error
    ring = rep.rings[0]
    assert ring.fp_type == 0 and ring.b2_bb is None
    json_form = rep.to_json()
    assert json_form["b1_bb"] == "not finitely generated"


def test_report_c4():
    rep = invariant_report(cycle_graph(4))
    assert not rep.coherent.coherent
    ring_q = next(r for r in rep.rings if r.ring == "Q")
    assert ring_q.fp_type == 1
    assert not ring_q.finitely_presented_lie
    assert rep.finitely_presented_group == "NO"


def test_report_k3():
    rep = invariant_report(complete_graph(3))
    assert rep.bb_abelian.abelian and rep.bb_abelian.rank == 2
    assert rep.cohomology.dims == (1, 2, 1, 0)
    assert rep.structure.graph.edge_count == 1


def count_dismantlings(monkeypatch) -> list:
    """Record every graph that is dismantled, by the Analysis or by flag_complex."""
    import bbraag.homology
    import bbraag.invariants

    dismantled = []
    real = bbraag.homology.dismantle

    def counting(graph):
        dismantled.append(graph)
        return real(graph)

    for module in (bbraag.homology, bbraag.invariants):
        monkeypatch.setattr(module, "dismantle", counting)
    return dismantled


@pytest.mark.parametrize(
    "g",
    [gem_graph(), path_graph(5), cycle_graph(4), Graph("abcx", [("a", "b"), ("b", "c")])],
    ids=["gem", "P5", "C4", "disconnected"],
)
def test_report_builds_complex_and_homology_once_per_call(monkeypatch, g):
    import bbraag.invariants as inv
    import bbraag.recognition

    complexes, rings, chordality = [], [], []
    real_complex, real_homology = inv.flag_complex, inv.reduced_homology
    real_chordal = bbraag.recognition.is_chordal
    dismantled = count_dismantlings(monkeypatch)

    def counting_chordal(graph):
        chordality.append(graph)
        return real_chordal(graph)

    def counting_complex(graph, *rest):
        complexes.append(graph)
        return real_complex(graph, *rest)

    def counting_homology(c, ring):
        rings.append(ring)
        return real_homology(c, ring)

    monkeypatch.setattr(inv, "flag_complex", counting_complex)
    monkeypatch.setattr(inv, "reduced_homology", counting_homology)
    for module in (inv, bbraag.recognition):
        monkeypatch.setattr(module, "is_chordal", counting_chordal)
    first = invariant_report(g, rings=("Z", "Q", "Fp:2"))
    assert len(complexes) == len(chordality) == len(dismantled) == 1
    assert sorted(rings) == ["Fp:2", "Q", "Z"]
    # no cache outlives a call: the same graph is analysed again
    assert invariant_report(g, rings=("Z", "Q", "Fp:2")) == first
    assert len(complexes) == len(chordality) == len(dismantled) == 2
    assert sorted(rings) == ["Fp:2", "Fp:2", "Q", "Q", "Z", "Z"]


@pytest.mark.parametrize("g", [path_graph(6), gem_graph()], ids=["P6", "gem"])
def test_report_builds_one_block_cut_tree(monkeypatch, g):
    # P_6 is a tree of Droms graphs; the gem is not, so its decomposition
    # stops at a block before the structure derivation reads the same tree.
    import bbraag.graphs
    import bbraag.recognition

    built = []
    real = bbraag.graphs.block_cut_tree

    def counting(graph):
        built.append(graph)
        return real(graph)

    for module in (bbraag.graphs, bbraag.recognition, invariants):
        monkeypatch.setattr(module, "block_cut_tree", counting)
    rep = invariant_report(g)
    assert rep.structure is not None
    assert len(built) == 1


def test_homology_command_dismantles_once(monkeypatch, capsys):
    from bbraag.cli import main
    from bbraag.formats import format_graph6

    dismantled = count_dismantlings(monkeypatch)
    code = main(["homology", "--graph6", format_graph6(gem_graph()), "--ring", "Z", "--ring", "Q"])
    assert code == 0 and "[Q]" in capsys.readouterr().out
    assert len(dismantled) == 1


def test_analysis_acyclic_matches_is_acyclic():
    from bbraag.homology import flag_complex, is_acyclic

    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            want = {ring: is_acyclic(c, ring) for ring in ("Z", "Q", "Fp:2")}
            staged = Analysis(g)
            assert {ring: staged.acyclic(ring) for ring in want} == want
            cached = Analysis(g)
            cached.homology("Z")
            assert {ring: cached.acyclic(ring) for ring in want} == want


def test_analysis_shared_across_functions():
    a = Analysis(gem_graph())
    assert fp_type(a, "Q") == fp_type(gem_graph(), "Q")
    assert finitely_presented_group(a) == "YES"
    assert not subgroups_raag(a).holds
    assert bb_structure_graph(a) == bb_structure_graph(gem_graph())
    assert invariant_report(a) == invariant_report(gem_graph())


def test_fp2_iff_h1_vanishes():
    from bbraag.homology import flag_complex, reduced_homology

    for n in range(1, 7):
        for g in connected_graphs(n):
            fp = fp_type(g, "Q")
            fp2 = fp is None or fp >= 2
            h1 = reduced_homology(flag_complex(g), "Q").free_rank(1)
            assert fp2 == (h1 == 0)


def test_recorded_overlapping_gems_presentation_fixture():
    """The BB group of the overlapping-gems graph is a RAAG on a non-Droms graph.

    Recorded fixture, not an algorithm output: the structure recursion
    refuses this input (no central vertex, not a tree of Droms graphs), but
    the known defining graph of its Bestvina-Brady group is pinned here and
    cross-checked against the report numbers.
    """
    hbar = overlapping_gems_graph()
    with pytest.raises(NotSupportedError):
        bb_structure_graph(hbar)
    known = Graph(
        ["e1", "e2", "e3", "e4", "e5"],
        [("e1", "e2"), ("e2", "e3"), ("e2", "e4"), ("e3", "e4"), ("e4", "e5")],
    )
    # the recorded defining graph is not Droms: it contains an induced P4
    droms = is_droms(known)
    assert not droms.droms and droms.witness.pattern == "P4"
    # generator and relation counts agree with the Betti numbers of the report
    rep = invariant_report(hbar, rings=("Q",))
    assert rep.b1_bb == known.n == 5
    assert rep.rings[0].b2_bb == known.edge_count == 5
    assert rep.finitely_presented_group == "YES"


def octahedron():
    """Complete tripartite K_{2,2,2}; its flag complex is the 2-sphere."""
    pairs = [("a1", "a2"), ("b1", "b2"), ("c1", "c2")]
    labels = [v for p in pairs for v in p]
    edges = [
        (x, y)
        for i, p in enumerate(pairs)
        for q in pairs[i + 1:]
        for x in p
        for y in q
    ]
    return Graph(labels, edges)


def test_unknown_finite_presentation_on_sphere():
    # the flag complex is a 2-sphere: 1-acyclic, so not NO, but there is no
    # free face at all, so collapsibility cannot certify YES
    from bbraag.homology import collapse_to_point, flag_complex, reduced_homology

    g = octahedron()
    c = flag_complex(g)
    assert [c.face_count(d) for d in range(c.dim + 1)] == [6, 12, 8]
    assert reduced_homology(c, "Z").groups == ((0, ()), (0, ()), (1, ()))
    res = collapse_to_point(c)
    assert not res.collapsible and not res.sequence
    assert finitely_presented_group(g) == "UNKNOWN"
    assert fp_type(g, "Q") == 2
