import random
import sys

import pytest

from bbraag.errors import CapacityError, DomainError
import bbraag.graphs as graphs
from bbraag.enumeration import connected_graphs
from bbraag.graphs import (
    Graph,
    all_cliques,
    block_cut_tree,
    canonical_form,
    central_vertices,
    clique_euler,
    clique_masks,
    clique_number,
    connected_components,
    cut_vertices,
    is_connected,
    maximal_clique_masks,
)
from bbraag.patterns import (
    complete_graph,
    cycle_graph,
    gem_graph,
    overlapping_gems_graph,
    path_graph,
    star_graph,
)

from oracles import blocks_at, maximal_cut_free_sets, run_flat


def test_run_flat_runs_deeper_than_the_stack():
    def depth(k):
        if k == 0:
            return 0
        return 1 + (yield depth(k - 1))

    deep = 5 * sys.getrecursionlimit()
    assert run_flat(depth(deep)) == deep


def bowtie():
    return Graph("abvcd", [("a", "b"), ("a", "v"), ("b", "v"), ("c", "d"), ("c", "v"), ("d", "v")])


def test_constructor_validation():
    with pytest.raises(DomainError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(DomainError):
        Graph(["a"], [("a", "b")])
    with pytest.raises(DomainError):
        Graph(["a", "a"])


def test_induced_subgraph():
    gem = gem_graph()
    p = gem.induced("abcd")
    assert p == path_graph(4, "abcd")
    assert gem.induced(gem.labels) == gem
    c4 = cycle_graph(4)
    assert c4.induced(["0", "1", "2"]).edge_count == 2
    with pytest.raises(DomainError):
        gem.induced(["nope"])


def test_induced_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 7)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph([str(i) for i in range(n)], edges)
        subset = [str(i) for i in range(n) if rng.random() < 0.6]
        once = g.induced(subset)
        assert once.induced(subset) == once


def test_induced_keeps_the_index_order():
    # the subset's indices sorted, as the scan over every index gave them
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 30)
        labels = [f"v{i}" for i in range(n)]
        rng.shuffle(labels)
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i) if rng.random() < 0.3]
        g = Graph(labels, edges)
        subset = rng.sample(labels, rng.randint(0, n))
        chosen = {g.index(v) for v in subset}
        keep = [i for i in range(g.n) if i in chosen]
        sub = g.induced(subset)
        assert sub.labels == tuple(g.labels[i] for i in keep)
        assert sub.adj == tuple(
            sum(1 << k for k, j in enumerate(keep) if g.adj[i] >> j & 1) for i in keep
        )


def test_connected_components():
    assert connected_components(Graph([])) == []
    g = Graph("abcx", [("a", "b"), ("b", "c")])
    assert connected_components(g) == [("a", "b", "c"), ("x",)]
    assert connected_components(complete_graph(3)) == [("0", "1", "2")]


def test_cut_vertices_examples():
    assert cut_vertices(path_graph(4, "abcd")) == ["b", "c"]
    assert cut_vertices(complete_graph(4)) == []
    assert cut_vertices(bowtie()) == ["v"]
    with pytest.raises(DomainError):
        cut_vertices(Graph("ab"))


def test_cut_vertices_brute_force():
    # the definition: G - v has more than one component.  Every connected graph
    # with v <= 7, each also in reversed vertex order (the search starts at vertex 0),
    # then seeded random graphs.
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [Graph(reversed(g.labels), g.edges()) for g in graphs]
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 12)
        while True:
            edges = [
                (str(i), str(j))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph([str(i) for i in range(n)], edges)
            if is_connected(g):
                break
        graphs.append(g)
    for g in graphs:
        expect = [
            v for v in sorted(g.labels)
            if len(connected_components(g.without(v))) > 1
        ]
        assert cut_vertices(g) == expect, g


def test_cut_vertices_long_path():
    # one search on an explicit stack: a path far deeper than the recursion limit
    n = 5000
    assert cut_vertices(path_graph(n)) == sorted(str(i) for i in range(1, n - 1))


def tree_parts(g, v):
    """The parts of ``g`` at cut vertex ``v`` by the block-cut tree, as label tuples."""
    tree = block_cut_tree(g)
    return tuple(tree.names(part) for part in tree.parts(tree.whole, tree.rank[v]))


def test_blocks_at():
    # the reference split of tests/oracles.py against the block-cut tree
    dec = blocks_at(bowtie(), "v")
    assert dec.blocks == (("a", "b", "v"), ("c", "d", "v")) == tree_parts(bowtie(), "v")
    dec = blocks_at(path_graph(4, "abcd"), "b")
    assert dec.blocks == (("a", "b"), ("b", "c", "d")) == tree_parts(path_graph(4, "abcd"), "b")
    with pytest.raises(DomainError):
        blocks_at(complete_graph(4), "0")


def test_blocks_cover_edges():
    g = Graph("abcdef", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("d", "f")])
    for v in cut_vertices(g):
        dec = blocks_at(g, v)
        assert tree_parts(g, v) == dec.blocks
        union_edges = set()
        for block in dec.blocks:
            union_edges.update(frozenset(e) for e in g.induced(block).edges())
        assert union_edges == {frozenset(e) for e in g.edges()}
        # blocks pairwise intersect exactly in the cut vertex
        for i in range(len(dec.blocks)):
            for j in range(i + 1, len(dec.blocks)):
                assert set(dec.blocks[i]) & set(dec.blocks[j]) == {v}
    # every split of every connected graph with v <= 6, also in reversed vertex
    # order, so the search root is not always the smallest label
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    for g in graphs + [Graph(reversed(g.labels), g.edges()) for g in graphs]:
        for v in cut_vertices(g):
            assert tree_parts(g, v) == blocks_at(g, v).blocks, (g, v)


def test_block_cut_tree_matches_maximal_cut_free_sets():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 12)
        labels = [f"v{i}" for i in range(n)]
        rng.shuffle(labels)
        while True:
            p = rng.choice((0.2, 0.3, 0.5))
            edges = [(labels[i], labels[j]) for i in range(n) for j in range(i) if rng.random() < p]
            g = Graph(labels, edges)
            if is_connected(g):
                break
        tree = block_cut_tree(g)
        blocks = {frozenset(tree.names(b)) for b in tree.blocks}
        assert len(blocks) == len(tree.blocks)
        assert blocks == (maximal_cut_free_sets(g) if n > 1 else {frozenset(g.labels)}), g
        # a cut vertex is a vertex in two blocks
        assert set(tree.names(tree.cuts)) == {v for v in g.labels if sum(v in b for b in blocks) > 1}
    with pytest.raises(DomainError):
        block_cut_tree(Graph([]))
    with pytest.raises(DomainError):
        block_cut_tree(Graph("ab"))


def test_central_vertices():
    assert central_vertices(gem_graph()) == ["z"]
    assert central_vertices(complete_graph(4)) == ["0", "1", "2", "3"]
    assert central_vertices(cycle_graph(4)) == []
    kn_plus_isolated = Graph("abcx", [("a", "b"), ("a", "c"), ("b", "c")])
    assert central_vertices(kn_plus_isolated) == []
    assert central_vertices(Graph(["a"])) == ["a"]


def test_all_cliques_counts():
    assert len(all_cliques(complete_graph(3))) == 8
    c4 = all_cliques(cycle_graph(4))
    assert len(c4) == 9  # empty + 4 vertices + 4 edges
    assert max(len(c) for c in c4) == 2
    hbar = overlapping_gems_graph()
    fours = [c for c in all_cliques(hbar) if len(c) == 4]
    assert fours == [("a", "b", "c", "d")]


def test_all_cliques_downward_closed():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        g = Graph([str(i) for i in range(n)], edges)
        cliques = set(all_cliques(g))
        for c in cliques:
            for drop in range(len(c)):
                assert c[:drop] + c[drop + 1:] in cliques


def test_clique_number():
    assert clique_number(gem_graph()) == 3
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(path_graph(6)) == 2
    assert clique_number(star_graph(3)) == 2
    assert clique_number(Graph([])) == 0
    assert clique_number(Graph(["a"])) == 1


def test_clique_number_branch_and_bound_matches_bron_kerbosch():
    # Up to 17 vertices no graph has more than CLIQUE_BUDGET cliques, and the
    # branch and bound answers; Bron-Kerbosch is the reference.
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 17)
        p = rng.choice((0.2, 0.5, 0.8, 0.95))
        labels = [str(i) for i in range(n)]
        edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < p]
        g = Graph(labels, edges)
        expected = max(m.bit_count() for m in maximal_clique_masks(g.n, g.adj))
        assert clique_number(g) == expected, g.edges()


def test_clique_budget(monkeypatch):
    k5 = complete_graph(5)  # 31 nonempty cliques, one of them maximal
    edgeless = Graph("abcd")  # 4 cliques, all maximal
    monkeypatch.setattr(graphs, "CLIQUE_BUDGET", 31)
    assert len(clique_masks(k5.n, k5.adj)) == 32
    assert clique_euler(k5.adj, 0b11111) == 1
    monkeypatch.setattr(graphs, "CLIQUE_BUDGET", 30)
    with pytest.raises(CapacityError):
        clique_masks(k5.n, k5.adj)
    with pytest.raises(CapacityError):
        clique_euler(k5.adj, 0b11111)
    monkeypatch.setattr(graphs, "CLIQUE_BUDGET", 3)
    with pytest.raises(CapacityError):
        clique_number(edgeless)


def test_canonical_form_bound(monkeypatch):
    with pytest.raises(CapacityError):
        canonical_form(path_graph(11))
    monkeypatch.setattr(graphs, "CANONICAL_VERTEX_BOUND", 11)
    assert canonical_form(path_graph(11))
