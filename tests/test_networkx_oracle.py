"""Chordality and maximal cliques against networkx, where it is installed."""

import pytest

from bbraag.enumeration import connected_graphs
from bbraag.graphs import maximal_clique_masks
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
