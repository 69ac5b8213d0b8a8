import random
import sys
from itertools import combinations

import pytest

from bbraag.errors import DomainError
from bbraag.graphs import Graph, cut_vertices, is_connected
from bbraag.patterns import (
    PATTERNS,
    complete_graph,
    cycle_graph,
    gem_graph,
    overlapping_gems_graph,
    path_graph,
    star_graph,
)
from bbraag.recognition import (
    DISCONNECTED,
    find_cut_or_central,
    find_induced,
    is_chordal,
    is_droms,
    is_ptolemaic,
    is_tree_of_droms,
    replay_droms,
    replay_ptolemaic,
    replay_tree_of_droms,
)
from bbraag.enumeration import connected_graphs

from oracles import brute_isomorphic, scanning_find_induced, scanning_mcs_order


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_tree_of_droms_decomposition_does_not_recurse_per_split():
    # P_300 splits about 290 times; the decomposition must fit in 100 frames.
    g = path_graph(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        res = is_tree_of_droms(g)
    finally:
        sys.setrecursionlimit(limit)
    assert res.tree_of_droms and replay_tree_of_droms(res.decomposition) == g


def bowtie():
    return Graph("abvcd", [("a", "b"), ("a", "v"), ("b", "v"), ("c", "d"), ("c", "v"), ("d", "v")])


def assert_witness_induces(g, witness):
    """Every negative verdict must exhibit its pattern as an induced subgraph."""
    if witness.pattern == DISCONNECTED:
        assert g.n == 0 or not is_connected(g)
        return
    sub = g.induced(witness.vertices)
    if witness.pattern.startswith("C") and witness.pattern not in PATTERNS:
        k = int(witness.pattern[1:])
        assert brute_isomorphic(sub, cycle_graph(k))
    else:
        assert brute_isomorphic(sub, PATTERNS[witness.pattern])


# -- chordality --------------------------------------------------------------------


def test_chordal_examples():
    res = is_chordal(cycle_graph(4))
    assert not res.chordal and res.witness.pattern == "C4"
    assert len(res.witness.vertices) == 4
    assert is_chordal(path_graph(6)).chordal
    assert is_chordal(overlapping_gems_graph()).chordal
    assert is_chordal(Graph([])).chordal


def test_peo_property():
    # later neighbors of each vertex in the order must form a clique
    for g in (overlapping_gems_graph(), gem_graph(), complete_graph(5), path_graph(5)):
        res = is_chordal(g)
        assert res.chordal
        order = res.elimination_order
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
            for i, a in enumerate(later):
                for b in later[i + 1:]:
                    assert g.has_edge(a, b)


def test_mcs_order_matches_scanning_oracle_v8():
    from bbraag.recognition import _mcs_order

    examined = 0
    for n in range(1, 9):
        for g in connected_graphs(n):
            assert _mcs_order(g) == scanning_mcs_order(g), g
            examined += 1
    assert examined == 12113
    # random graphs of up to 40 vertices, and a clique met only after a long path
    rng = random.Random(4)
    for n in (0, 1, 15, 40):
        g = Graph([str(i) for i in range(n)], [
            (str(i), str(j)) for i in range(n) for j in range(i) if rng.random() < 0.3
        ])
        assert _mcs_order(g) == scanning_mcs_order(g)
    g = path_graph(30)
    g = Graph(g.labels + ("a", "b", "c", "d"), g.edges() + [
        (x, y) for x, y in combinations(["29", "a", "b", "c", "d"], 2)
    ])
    assert _mcs_order(g) == scanning_mcs_order(g)


def test_chordless_cycle_witnesses():
    for k in range(4, 9):
        res = is_chordal(cycle_graph(k))
        assert not res.chordal and res.witness.pattern == f"C{k}"
        assert_witness_induces(cycle_graph(k), res.witness)
    # C6 plus one long chord leaves a C5 and a C4; witness must be chordless
    g = cycle_graph(6)
    g = Graph(g.labels, g.edges() + [("0", "2")])
    res = is_chordal(g)
    assert not res.chordal
    assert_witness_induces(g, res.witness)


# -- induced patterns ----------------------------------------------------------------


def test_find_induced_examples():
    assert find_induced(gem_graph(), "P4") == ("a", "b", "c", "d")
    assert find_induced(complete_graph(5), "C4") is None
    assert find_induced(complete_graph(5), "P4") is None
    assert find_induced(overlapping_gems_graph(), "GEM") is None
    hit = find_induced(overlapping_gems_graph(), "HBAR")
    assert hit == ("a", "b", "c", "d", "u", "w")


def test_find_induced_matches_scanning_oracle():
    cases = [g for n in range(1, 8) for g in connected_graphs(n)]
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 11)
        labels = [f"x{rng.getrandbits(20):05x}{i}" for i in range(n)]
        rng.shuffle(labels)
        p = rng.random()
        cases.append(Graph(labels, [(a, b) for i, a in enumerate(labels)
                                    for b in labels[i + 1:] if rng.random() < p]))
    found = set()
    for g in cases:
        for name, pat in PATTERNS.items():
            hit = find_induced(g, name)
            assert hit == scanning_find_induced(g, pat)
            found.add((name, hit is not None))
    assert len(found) == 2 * len(PATTERNS)


def test_find_induced_soundness():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(4, 8)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph([str(i) for i in range(n)], edges)
        for name, pat in PATTERNS.items():
            hit = find_induced(g, name)
            if hit is not None:
                assert brute_isomorphic(g.induced(hit), pat)


def test_find_induced_complete_search():
    # absence agrees with a brute-force subset scan on small graphs
    from itertools import combinations

    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(4, 6)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph([str(i) for i in range(n)], edges)
        for name, pat in PATTERNS.items():
            if pat.n > n:
                continue
            exists = any(
                brute_isomorphic(g.induced(list(sub)), pat)
                for sub in combinations(g.labels, pat.n)
            )
            assert (find_induced(g, name) is not None) == exists


# -- Droms recognition -----------------------------------------------------------------


def test_droms_examples():
    res = is_droms(path_graph(4, "abcd"))
    assert not res.droms and res.witness.pattern == "P4"
    assert res.witness.vertices == ("a", "b", "c", "d")
    res = is_droms(gem_graph())
    assert not res.droms and res.witness.pattern == "P4"
    res = is_droms(complete_graph(3))
    assert res.droms
    assert replay_droms(res.certificate) == complete_graph(3)
    res = is_droms(cycle_graph(4))
    assert not res.droms and res.witness.pattern == "C4"


def test_droms_certificates_replay():
    fixtures = [
        complete_graph(5),
        star_graph(4),
        Graph("abcxy", [("a", "b"), ("a", "c")]),
        Graph(["solo"]),
        Graph([]),
    ]
    for g in fixtures:
        res = is_droms(g)
        assert res.droms
        assert replay_droms(res.certificate) == g


def test_droms_equals_pattern_freeness_exhaustive():
    # verdict equality with forbidden-pattern absence, all connected graphs v <= 7
    for n in range(1, 8):
        for g in connected_graphs(n):
            res = is_droms(g)
            free = find_induced(g, "P4") is None and find_induced(g, "C4") is None
            assert res.droms == free
            if res.droms:
                assert replay_droms(res.certificate) == g
            else:
                assert_witness_induces(g, res.witness)


# -- ptolemaic ---------------------------------------------------------------------------


def test_ptolemaic_examples():
    res = is_ptolemaic(gem_graph())
    assert not res.ptolemaic and res.witness.pattern == "GEM"
    assert set(res.witness.vertices) == set("abcdz")
    res = is_ptolemaic(bowtie())
    assert res.ptolemaic
    assert replay_ptolemaic(res.certificate) == bowtie()
    res = is_ptolemaic(cycle_graph(4))
    assert not res.ptolemaic and res.witness.pattern == "C4"
    res = is_ptolemaic(Graph("ab"))
    assert not res.ptolemaic and res.witness.pattern == DISCONNECTED


def test_ptolemaic_block_graphs():
    # complete graphs glued along single vertices
    g = Graph(
        "abcdefg",
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("d", "f"),
         ("e", "f"), ("f", "g")],
    )
    res = is_ptolemaic(g)
    assert res.ptolemaic
    assert replay_ptolemaic(res.certificate) == g


def test_ptolemaic_false_twin_rule_enforced():
    # replay rejects a false twin attached where the neighbourhood is not complete
    from bbraag.recognition import BuildStep, PtolemaicSequence

    bad = PtolemaicSequence(
        "a",
        (
            BuildStep("leaf", "b", "a"),
            BuildStep("leaf", "c", "b"),
            BuildStep("false_twin", "d", "b"),  # N(b) = {a, c} is not complete
        ),
    )
    with pytest.raises(DomainError, match="neighbourhood is not complete"):
        replay_ptolemaic(bad)
    # a step must attach a new vertex to a placed one, by a known kind
    for step in (BuildStep("leaf", "c", "z"), BuildStep("twin", "a", "b")):
        with pytest.raises(DomainError, match="invalid build step"):
            replay_ptolemaic(PtolemaicSequence("a", (BuildStep("leaf", "b", "a"), step)))
    with pytest.raises(DomainError, match="unknown build step kind 'cousin'"):
        replay_ptolemaic(PtolemaicSequence("a", (BuildStep("cousin", "b", "a"),)))


def test_ptolemaic_matches_definition_exhaustive():
    # v <= 7 reaches a valid false-twin step: F?NFw is the one such class
    for n in range(1, 8):
        for g in connected_graphs(n):
            res = is_ptolemaic(g)
            expected = is_chordal(g).chordal and find_induced(g, "GEM") is None
            assert res.ptolemaic == expected
            if res.ptolemaic:
                assert replay_ptolemaic(res.certificate) == g


# -- cut-or-central ------------------------------------------------------------------------


def test_find_cut_or_central_examples():
    assert find_cut_or_central(path_graph(4, "abcd")) == ("cut", "b")
    kind, v = find_cut_or_central(complete_graph(4))
    assert kind == "central"
    # bowtie: the waist is adjacent to all others, so central wins
    assert find_cut_or_central(bowtie()) == ("central", "v")
    with pytest.raises(DomainError):
        find_cut_or_central(gem_graph())
    with pytest.raises(DomainError):
        find_cut_or_central(cycle_graph(5))


def test_cut_or_central_total_on_class():
    # every connected chordal gem-free hbar-free graph has one or the other
    for n in range(1, 7):
        for g in connected_graphs(n):
            if not is_tree_of_droms(g).tree_of_droms:
                continue
            kind, v = find_cut_or_central(g)
            if kind == "central":
                assert g.degree(v) == g.n - 1
            else:
                assert v in cut_vertices(g)


# -- trees of Droms graphs -----------------------------------------------------------------


def test_tree_of_droms_examples():
    res = is_tree_of_droms(gem_graph())
    assert not res.tree_of_droms and res.witness.pattern == "GEM"
    res = is_tree_of_droms(overlapping_gems_graph())
    assert not res.tree_of_droms and res.witness.pattern == "HBAR"
    assert set(res.witness.vertices) == set("abcduw")
    for tree in (path_graph(5), star_graph(5), Graph(["x"])):
        res = is_tree_of_droms(tree)
        assert res.tree_of_droms
        assert replay_tree_of_droms(res.decomposition) == tree
    assert not is_tree_of_droms(Graph([])).tree_of_droms


def test_tree_of_droms_decomposition_structure():
    res = is_tree_of_droms(bowtie())
    dec = res.decomposition
    assert sorted(n.vertices for n in dec.nodes) == [("a", "b", "v"), ("c", "d", "v")]
    assert len(dec.edges) == 1 and dec.edges[0][2] == "v"
    # every node replays to a connected Droms graph; adjacent nodes share
    # exactly the edge label
    for node in dec.nodes:
        piece = replay_droms(node.certificate)
        assert set(piece.labels) == set(node.vertices)
        assert is_connected(piece)
    for a, b, v in dec.edges:
        assert set(dec.nodes[a].vertices) & set(dec.nodes[b].vertices) == {v}


def test_tree_of_droms_exhaustive_small():
    for n in range(1, 7):
        for g in connected_graphs(n):
            res = is_tree_of_droms(g)
            expected = (
                is_chordal(g).chordal
                and find_induced(g, "GEM") is None
                and find_induced(g, "HBAR") is None
            )
            assert res.tree_of_droms == expected
            if res.tree_of_droms:
                assert replay_tree_of_droms(res.decomposition) == g
                for a, b, v in res.decomposition.edges:
                    shared = set(res.decomposition.nodes[a].vertices) & set(
                        res.decomposition.nodes[b].vertices
                    )
                    assert shared == {v}
            else:
                assert_witness_induces(g, res.witness)


def test_hereditary_small():
    from bbraag.graphs import _bits

    for n in range(1, 6):
        for g in connected_graphs(n):
            if not is_tree_of_droms(g).tree_of_droms:
                continue
            for mask in range(1, 1 << g.n):
                sub = g.induced([g.labels[i] for i in _bits(mask)])
                if is_connected(sub):
                    assert is_tree_of_droms(sub).tree_of_droms


def test_class_inclusions_small():
    # Droms implies chordal; tree of Droms implies ptolemaic or has a cut
    # vertex; ptolemaic and hbar-free iff tree of Droms (connected stream)
    from bbraag.graphs import cut_vertices as _cuts

    for n in range(1, 7):
        for g in connected_graphs(n):
            droms = is_droms(g).droms
            chordal = is_chordal(g).chordal
            if droms:
                assert chordal
            tod = is_tree_of_droms(g).tree_of_droms
            ptol = is_ptolemaic(g).ptolemaic
            if tod:
                assert ptol or _cuts(g)
            hbar_free = find_induced(g, "HBAR") is None
            assert (ptol and hbar_free) == tod
