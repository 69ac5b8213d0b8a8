"""Finite simplicial graphs with stable, opaque vertex labels.

A :class:`Graph` is immutable: the label tuple fixes the vertex order used by
every downstream computation (boundary-matrix bases, certificate replays), and
all operations are pure functions returning fresh values.  Internally each
vertex gets an index by position and adjacency lives in bitmasks, which keeps
the structure queries and the canonical-labeling kernel fast without numpy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from . import _g6, kernel
from ._record import Record
from .errors import CapacityError, DomainError

CANONICAL_VERTEX_BOUND = 10
# Cliques one graph may have before an enumeration stops with CapacityError;
# K_17 has 131,071, the largest benchmark complexes a few thousand.
CLIQUE_BUDGET = 250_000


class Graph:
    """Undirected simple graph; no self-loops, no multi-edges."""

    __slots__ = ("labels", "adj", "_index")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        labels = tuple(str(v) for v in labels)
        index: dict[str, int] = {}
        for v in labels:
            if v in index:
                raise DomainError(f"duplicate vertex label {v!r}")
            index[v] = len(index)
        adj = [0] * len(labels)
        for a, b in edges:
            a, b = str(a), str(b)
            if a == b:
                raise DomainError(f"self-loop at {a!r}")
            try:
                i, j = index[a], index[b]
            except KeyError as exc:
                raise DomainError(f"edge endpoint {exc.args[0]!r} is not a vertex") from None
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.labels = labels
        self.adj = tuple(adj)
        self._index = index

    @classmethod
    def from_masks(cls, labels: Iterable[str], adj: Iterable[int]) -> "Graph":
        g = cls.__new__(cls)
        g.labels = tuple(labels)
        g.adj = tuple(adj)
        g._index = {v: i for i, v in enumerate(g.labels)}
        return g

    @classmethod
    def numbered(cls, adj) -> "Graph":
        """The graph on the labels "0", "1", ... with adjacency masks ``adj``.

        Graphs of one order share one label tuple and one index.
        """
        g = cls.__new__(cls)
        g.adj = tuple(adj)
        g.labels, g._index = _numbered_names(len(g.adj))
        return g

    # -- elementary accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj[self.index(a)] >> self.index(b) & 1)

    def degree(self, v: str) -> int:
        return self.adj[self.index(v)].bit_count()

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in _bits(self.adj[self.index(v)]))

    def edges(self) -> list[tuple[str, str]]:
        """Edges as label pairs, ordered by (index of first, index of second)."""
        out = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            for j in _bits(row):
                out.append((self.labels[i], self.labels[i + 1 + j]))
        return out

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.labels) == set(other.labels) and self._edge_set() == other._edge_set()

    def __hash__(self):
        return hash((frozenset(self.labels), frozenset(self._edge_set())))

    def _edge_set(self) -> set[frozenset]:
        return {frozenset(e) for e in self.edges()}

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.edge_count} edges)"

    # -- derived graphs -------------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "Graph":
        """Induced subgraph; keeps this graph's relative vertex order."""
        keep = sorted({self.index(v) for v in subset})
        mask = _mask(keep)
        pos = {i: k for k, i in enumerate(keep)}
        adj = [_mask(pos[j] for j in _bits(self.adj[i] & mask)) for i in keep]
        return Graph.from_masks([self.labels[i] for i in keep], adj)

    def relabeled(self, mapping: dict[str, str]) -> "Graph":
        return Graph.from_masks((mapping.get(v, v) for v in self.labels), self.adj)


@lru_cache(maxsize=32)
def _numbered_names(n: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The labels "0" to str(n - 1) and their index, shared and never changed."""
    labels = tuple(map(str, range(n)))
    return labels, {v: i for i, v in enumerate(labels)}


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# -- connectivity and separators ----------------------------------------------


def _component_masks(n: int, adj, universe: int | None = None) -> list[int]:
    if universe is None:
        universe = (1 << n) - 1
    todo = universe
    comps = []
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for i in _bits(frontier):
                grow |= adj[i] & universe
            frontier = grow & ~comp
            comp |= frontier
        comps.append(comp)
        todo &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return len(_component_masks(g.n, g.adj)) == 1


def cut_vertices(g: Graph) -> list[str]:
    """Vertices whose removal disconnects ``g``, sorted; requires ``g`` connected."""
    tree = block_cut_tree(g)
    return list(tree.names(tree.cuts))


class BlockCutTree(Record):
    """The blocks of a connected graph as vertex masks, with its cut vertices.

    Bit r is ``labels[r]``, the r-th smallest label; ``adj`` is renumbered so.
    Rooted at rank 0, ``below[v]`` has each block hanging below v with all under it.
    """

    labels: tuple[str, ...]
    rank: dict[str, int]
    adj: tuple[int, ...]
    whole: int
    blocks: tuple[int, ...]
    cuts: int
    below: tuple[tuple[int, ...], ...]

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[r] for r in _bits(mask))

    def parts(self, piece: int, v: int) -> list[int]:
        """The components of piece - v, each plus v, by smallest label other than v.

        ``piece`` is a connected union of blocks and v one of its cut vertices.
        A part's cut vertices are the piece's cut vertices in it, but v.
        """
        bit = 1 << v
        out = [part for part in (sub & piece for sub in self.below[v]) if part != bit]
        rest = piece ^ sum(part ^ bit for part in out)  # the parts below v meet only at v
        if rest != bit:
            out.append(rest)
        return sorted(out, key=lambda part: (part ^ bit) & -(part ^ bit))


def block_cut_tree(g: Graph) -> BlockCutTree:
    """One depth-first search with low-links and a vertex stack (Hopcroft-Tarjan).

    On an explicit stack, so long paths do not recurse.  When a child w of v
    finishes with low[w] >= disc[v], the stack down to w plus v is a block.
    """
    n = g.n
    if not is_connected(g):
        raise DomainError("block_cut_tree needs a connected graph")
    order = sorted(range(n), key=g.labels.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    adj = tuple(_mask(rank[j] for j in _bits(g.adj[i])) for i in order)
    disc, low, subtree = [-1] * n, [0] * n, [1 << r for r in range(n)]
    blocks, below = [], [[] for _ in range(n)]  # below[v]: as in BlockCutTree
    disc[0] = clock = 0
    stack = [(0, -1, adj[0])]  # vertex, its parent, neighbours not yet tried
    path = [0]  # vertices found and in no block yet
    while stack:
        v, parent, todo = stack[-1]
        if todo:
            w = (todo & -todo).bit_length() - 1
            stack[-1] = (v, parent, todo & (todo - 1))
            if disc[w] < 0:
                clock += 1
                disc[w] = low[w] = clock
                path.append(w)
                stack.append((w, v, adj[w]))
            elif w != parent:
                low[v] = min(low[v], disc[w])
            continue
        stack.pop()
        if parent < 0:
            continue
        subtree[parent] |= subtree[v]
        low[parent] = min(low[parent], low[v])
        if low[v] >= disc[parent]:
            block, x = 1 << parent, -1
            while x != v:
                x = path.pop()
                block |= 1 << x
            blocks.append(block)
            below[parent].append(subtree[v] | 1 << parent)
    labels = tuple(g.labels[i] for i in order)
    cuts = _mask(v for v in range(n) if len(below[v]) > (v == 0))
    return BlockCutTree(
        labels, {v: r for r, v in enumerate(labels)}, adj, subtree[0],
        tuple(blocks) or (1,), cuts, tuple(map(tuple, below)),  # one vertex is one block
    )


def central_vertices(g: Graph) -> list[str]:
    """Vertices adjacent to every other vertex."""
    want = g.n - 1
    return sorted(g.labels[i] for i in range(g.n) if g.adj[i].bit_count() == want)


class Dismantling(Record):
    """Dominated-vertex deletions of a graph, as a replayable certificate.

    Replayed in order, each ``(removed, dominator)`` pair has N[removed]
    inside N[dominator] among the vertices the earlier pairs left.  ``alive``
    is the mask of the vertices no pair removed.
    """

    pairs: tuple[tuple[str, str], ...]
    alive: int


def dismantle(g: Graph) -> Dismantling:
    """Delete the lowest dominated vertex, with its lowest dominator, until none is left.

    On a flag complex "every facet through v contains u" is N[v] inside N[u],
    so the vertices left span the strong-collapse core of the flag complex
    (Nowakowski-Winkler 1983, Barmak-Minian 2012), found here without faces.
    A vertex found undominated stays so until one of its neighbours is
    deleted, so only the deleted vertex's neighbours are checked again.
    """
    adj = g.adj
    alive = (1 << len(adj)) - 1
    todo = alive  # the alive vertices not known to be undominated
    pairs = []
    while todo:
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        # v's lowest dominator: a neighbour u with N[v] inside N[u], among the
        # alive; u is in N[v] but not in N(u), so N[v] - N(u) is then {u}
        near = (adj[v] | bit) & alive
        rest = near ^ bit
        if rest:  # a dominator is adjacent to all of N(v): keep N[w], w its lowest
            w = rest & -rest
            rest &= adj[w.bit_length() - 1] | w
        while rest:
            low = rest & -rest
            rest ^= low
            if near & ~adj[low.bit_length() - 1] == low:
                pairs.append((g.labels[v], g.labels[low.bit_length() - 1]))
                alive ^= bit
                todo |= adj[v] & alive
                break
    return Dismantling(tuple(pairs), alive)


# -- cliques -------------------------------------------------------------------


def _over_budget(count: int) -> None:
    if count > CLIQUE_BUDGET:
        raise CapacityError(f"more than {CLIQUE_BUDGET} cliques")


def maximal_clique_masks(n: int, adj) -> list[int]:
    """Bron-Kerbosch with pivoting; masks of all maximal cliques."""
    out = []

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            _over_budget(len(out))
            return
        pivot, best = -1, -1
        for u in _bits(p | x):
            c = (adj[u] & p).bit_count()
            if c > best:
                pivot, best = u, c
        for v in _bits(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    return out


def clique_levels(n: int, adj) -> list[list[tuple[int, ...]]]:
    """The nonempty cliques by size, each size in lexicographic index order.

    The (k+1)-cliques are the k-cliques, in order, each extended by its common
    neighbours above its largest vertex in ascending order, so every level
    comes out sorted.  Each clique's extensions are counted before they are
    made, so more than CLIQUE_BUDGET cliques raise CapacityError before more
    than CLIQUE_BUDGET exist.
    """
    count = n
    _over_budget(count)
    faces = [(i,) for i in range(n)]
    # the common neighbours of each clique above its largest vertex
    above = [a >> (i + 1) << (i + 1) for i, a in enumerate(adj)]
    levels = []
    while faces:
        levels.append(faces)
        grown: list[tuple[int, ...]] = []
        grown_above: list[int] = []
        for face, rest in zip(faces, above):
            if not rest:
                continue
            count += rest.bit_count()
            _over_budget(count)
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                grown.append(face + (v,))
                grown_above.append(rest & adj[v])
        faces, above = grown, grown_above
    return levels


def clique_masks(n: int, adj) -> set[int]:
    """Every clique of the graph as a vertex mask, the empty one included.

    More than CLIQUE_BUDGET nonempty cliques raise CapacityError.
    """
    return {0}.union(_mask(face) for level in clique_levels(n, adj) for face in level)


def clique_euler(adj, universe: int) -> int:
    """Sum of (-1)^(|K|-1) over the nonempty cliques K inside ``universe``.

    This is the Euler characteristic of the flag complex on ``universe``;
    see :func:`clique_euler_number`.
    """
    return clique_euler_number(adj, universe)[0]


def clique_euler_number(adj, universe: int) -> tuple[int, int]:
    """The Euler characteristic and the clique number of the graph on ``universe``.

    One walk extends each clique by its common neighbours above its largest
    vertex, so every clique is met once and none is stored; each clique K
    adds (-1)^(|K|-1), and the deepest one is the clique number.  More than
    CLIQUE_BUDGET cliques raise CapacityError.
    """
    total = count = number = 0
    budget = CLIQUE_BUDGET
    # (candidates, size): the cliques K + v for v in candidates, of size |K| + 1
    stack = [(universe, 1)] if universe else []
    while stack:
        cands, size = stack.pop()
        k = cands.bit_count()
        total += k if size & 1 else -k
        count += k
        if count > budget:
            _over_budget(count)
        if size > number:
            number = size
        while cands:
            low = cands & -cands
            cands ^= low
            grow = cands & adj[low.bit_length() - 1]
            if grow:
                stack.append((grow, size + 1))
    return total, number


def all_cliques(g: Graph) -> list[tuple[str, ...]]:
    """All cliques as sorted label tuples, ordered by (size, labels)."""
    out = [tuple(sorted(g.labels[i] for i in _bits(m))) for m in clique_masks(g.n, g.adj)]
    out.sort(key=lambda c: (len(c), c))
    return out


def clique_number(g: Graph) -> int:
    """The size of a largest clique.

    More than CLIQUE_BUDGET maximal cliques raise CapacityError.  A graph on
    n vertices has fewer than 2^n cliques, so when 2^n - 1 is within the
    budget no graph can raise, and a branch-and-bound search that lists no
    clique stands in for Bron-Kerbosch.
    """
    n = len(g.adj)
    if n == 0:
        return 0
    if (1 << n) - 1 > CLIQUE_BUDGET:
        return max(m.bit_count() for m in maximal_clique_masks(n, g.adj))
    return _maximum_clique(g.adj, (1 << n) - 1)


def _maximum_clique(adj, universe: int) -> int:
    """The clique number of the graph on ``universe``, by branch and bound.

    A node is a clique of ``size`` with its candidates ``cands``, the common
    neighbours not yet tried; it takes the lowest candidate or drops it, and
    is cut off when ``size + |cands|`` cannot beat the best clique found.
    """
    best = 0
    stack = [(universe, 0)]
    while stack:
        cands, size = stack.pop()
        if size + cands.bit_count() <= best:
            continue
        low = cands & -cands
        rest = cands ^ low
        if rest:
            stack.append((rest, size))
        grow = rest & adj[low.bit_length() - 1]
        if grow:
            stack.append((grow, size + 1))
        elif size + 1 > best:
            best = size + 1
    return best


# -- canonical form -------------------------------------------------------------


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 bytes: equal iff the graphs are isomorphic."""
    if g.n > CANONICAL_VERTEX_BOUND:
        raise CapacityError(
            f"canonical_form is bounded to {CANONICAL_VERTEX_BOUND} vertices, got {g.n}"
        )
    return _g6.encode(g.n, kernel.canon_key(g.n, g.adj))
