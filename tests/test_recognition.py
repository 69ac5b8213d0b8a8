import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from bbraag.errors import DomainError
from bbraag.graphs import Graph, _bits, cut_vertices, is_connected
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

from oracles import (
    brute_isomorphic,
    rebuilding_is_droms,
    rebuilding_ptolemaic_build,
    rebuilding_replay_droms,
    scanning_find_induced,
    scanning_mcs_order,
    tree_of_droms_decomposition,
)


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


def test_find_induced_unknown_pattern_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown pattern 'XYZ'; known: P4, C4, GEM, HBAR"):
        find_induced(path_graph(4), "XYZ")


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


def opaque_labels(rng, n):
    """Distinct labels in random order: string order is not index order."""
    return [f"{rng.choice('abxyz')}{k}" for k in rng.sample(range(1000), n)]


def clique_attachment(rng, n):
    """A connected chordal graph: each new vertex joins a random clique."""
    adj, grow = [0] * n, rng.random()
    for v in range(1, n):
        u = rng.randrange(v)
        clique, cands = 1 << u, adj[u]
        while cands and rng.random() < grow:
            w = rng.choice(list(_bits(cands)))
            clique, cands = clique | 1 << w, cands & adj[w]
        for u in _bits(clique):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def cone_union(rng, n):
    """A Droms graph from random cones and unions, then one pair flipped half the time."""
    adj, pieces = [0] * n, []
    for v in range(n):
        if pieces and rng.random() < 0.5:  # v is the apex of a cone over a piece
            k = rng.randrange(len(pieces))
            for u in _bits(pieces[k]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pieces[k] |= 1 << v
        else:
            pieces.append(1 << v)
        if len(pieces) > 1 and rng.random() < 0.3:  # two pieces become one union
            union = pieces.pop(rng.randrange(len(pieces)))
            pieces[rng.randrange(len(pieces))] |= union
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
    return adj


def random_adj(rng, n):
    p, adj = rng.random(), [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_mask_recognizers_match_rebuilding_oracles():
    # The v <= 8 pins label vertices "0".."7", whose string order is index
    # order; opaque labels in random order catch a label/index mix-up.
    rng = random.Random(28)
    for k in range(3000):
        n = rng.randrange(2, 41)
        adj = (clique_attachment, cone_union, clique_attachment, random_adj)[k % 4](rng, n)
        labels = opaque_labels(rng, n)
        g = Graph(labels, [(labels[i], labels[j]) for i in range(n) for j in _bits(adj[i]) if i < j])
        res = is_droms(g)
        assert res == rebuilding_is_droms(g), g.edges()
        if res.droms:
            replayed, expect = replay_droms(res.certificate), rebuilding_replay_droms(res.certificate)
            assert (replayed.labels, replayed.adj) == (expect.labels, expect.adj)
            assert replayed == g
        if is_connected(g) and is_chordal(g).chordal:
            seq = rebuilding_ptolemaic_build(g)
            ptol = is_ptolemaic(g)
            assert ptol.certificate == seq, g.edges()
            assert ptol.ptolemaic or ptol.witness.pattern == "GEM"
            assert is_tree_of_droms(g).decomposition == tree_of_droms_decomposition(g), g.edges()


RECOGNIZE_LARGE = """
from bbraag.graphs import Graph
from bbraag.patterns import complete_graph
from bbraag.recognition import (
    is_droms, is_ptolemaic, is_tree_of_droms, replay_droms, replay_tree_of_droms,
)
k = complete_graph(400)
book = Graph(["a", "b"] + [f"p{i}" for i in range(3000)],
             [("a", "b")] + [(s, f"p{i}") for i in range(3000) for s in "ab"])
droms, ptol, tod = is_droms(k), is_ptolemaic(k), is_tree_of_droms(k)
print(replay_droms(droms.certificate) == k, replay_tree_of_droms(tod.decomposition) == k,
      ptol.ptolemaic, is_ptolemaic(book).ptolemaic, is_droms(book).droms)
"""


def test_recognizers_scale_to_cliques_and_books():
    # A new graph per cone, per build step or per certificate node, or a
    # vertex-pair scan per build step, costs seconds on K_400 or the book.
    # The timeout only guards against that: it times nothing.
    import bbraag

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bbraag.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", RECOGNIZE_LARGE], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 5


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
