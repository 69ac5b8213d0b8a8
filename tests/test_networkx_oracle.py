"""Chordality, maximal cliques, cut vertices, blocks and the graph atlas against networkx, where it is installed."""

import random

import pytest

from bbraag.enumeration import connected_graph_count, connected_graphs
from bbraag.graphs import Graph, block_cut_tree, canonical_form, cut_vertices, maximal_clique_masks
from bbraag.recognition import is_chordal

nx = pytest.importorskip("networkx")


def test_chordality_and_maximal_cliques_match_networkx_v8():
    examined = chordal = 0
    for n in range(1, 9):
        for g in connected_graphs(n):
            ng = nx.Graph()
            ng.add_nodes_from(range(g.n))
            ng.add_edges_from((i, j) for i in range(g.n) for j in range(i) if (g.adj[i] >> j) & 1)
            verdict = is_chordal(g).chordal
            assert verdict == nx.is_chordal(ng), g
            chordal += verdict
            ours = sorted(maximal_clique_masks(g.n, g.adj))
            theirs = sorted(sum(1 << v for v in clique) for clique in nx.find_cliques(ng))
            assert ours == theirs, g
            examined += 1
    assert examined == 12113
    assert chordal == 1968


def test_graph_atlas_counts_and_canonical_forms_v7():
    # graph_atlas_g() lists every graph on 0..7 vertices once up to isomorphism
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    forms = set()
    connected: dict[int, set[bytes]] = {}
    for ng in atlas:
        labels = [str(v) for v in ng.nodes()]
        g = Graph(labels, [(str(a), str(b)) for a, b in ng.edges()])
        form = canonical_form(g)
        forms.add(form)
        if g.n and nx.is_connected(ng):
            connected.setdefault(g.n, set()).add(form)
    assert len(forms) == 1253
    assert [len(connected[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    for n in range(1, 8):
        assert len(connected[n]) == connected_graph_count(n)
        assert connected[n] == {canonical_form(g) for g in connected_graphs(n)}


def test_cut_vertices_match_networkx():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(20, 120)
        labels = [f"v{i}" for i in range(n)]
        rng.shuffle(labels)
        # a random tree plus a few chords: many cut vertices, some blocks
        edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
        edges += [tuple(rng.sample(labels, 2)) for _ in range(n // 8)]
        graphs.append(Graph(labels, {frozenset(e): e for e in edges}.values()))
    for g in graphs:
        ng = nx.Graph()
        ng.add_nodes_from(g.labels)
        ng.add_edges_from(g.edges())
        assert cut_vertices(g) == sorted(nx.articulation_points(ng)), g


def test_block_cut_tree_matches_networkx_v8():
    examined = 0
    for n in range(1, 9):
        for g in connected_graphs(n):
            ng = nx.Graph()
            ng.add_nodes_from(g.labels)
            ng.add_edges_from(g.edges())
            tree = block_cut_tree(g)
            blocks = sorted(sorted(tree.names(b)) for b in tree.blocks)
            # networkx gives an isolated vertex no biconnected component
            theirs = sorted(sorted(c) for c in nx.biconnected_components(ng)) or [list(g.labels)]
            assert blocks == theirs, g
            assert list(tree.names(tree.cuts)) == sorted(nx.articulation_points(ng)), g
            examined += 1
    assert examined == 12113
