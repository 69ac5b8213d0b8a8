"""Named graph builders and the forbidden-pattern constants.

The two obstruction patterns beyond paths and cycles are the gem (a cone over
the 4-vertex path) and the overlapping-gems graph: a K4 with two extra
vertices, each attached to one of a pair of disjoint K4 edges.
"""

from __future__ import annotations

from .graphs import Graph


def path_graph(k: int, labels=None) -> Graph:
    labels = list(labels) if labels is not None else [str(i) for i in range(k)]
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def cycle_graph(k: int, labels=None) -> Graph:
    labels = list(labels) if labels is not None else [str(i) for i in range(k)]
    edges = [(labels[i], labels[(i + 1) % k]) for i in range(k)]
    return Graph(labels, edges)


def complete_graph(k: int, labels=None) -> Graph:
    labels = list(labels) if labels is not None else [str(i) for i in range(k)]
    edges = [(labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)]
    return Graph(labels, edges)


def star_graph(leaves: int) -> Graph:
    return Graph(["c"] + [f"l{i}" for i in range(leaves)],
                 [("c", f"l{i}") for i in range(leaves)])


def gem_graph() -> Graph:
    """Cone over the path a-b-c-d, apex z."""
    g = path_graph(4, "abcd")
    return Graph(list(g.labels) + ["z"], g.edges() + [(v, "z") for v in "abcd"])


def overlapping_gems_graph() -> Graph:
    """K4 on a,b,c,d with u attached to edge {a,d} and w attached to {b,c}."""
    k4 = complete_graph(4, "abcd")
    edges = k4.edges() + [("u", "a"), ("u", "d"), ("w", "b"), ("w", "c")]
    return Graph(list("abcd") + ["u", "w"], edges)


# Pattern table for induced-subgraph search; order of vertices within each
# pattern is the backtracking order.
PATTERNS: dict[str, Graph] = {
    "P4": path_graph(4),
    "C4": cycle_graph(4),
    "GEM": gem_graph(),
    "HBAR": overlapping_gems_graph(),
}
