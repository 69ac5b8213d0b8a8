"""Graph-class recognition with certificates and forbidden-subgraph witnesses.

Every decision procedure here returns evidence in both directions: a positive
answer carries a construction (elimination order, cone/union tree, build
sequence, glued decomposition) that replays to the input graph, a negative
answer carries a vertex subset inducing one of the obstruction patterns.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from ._record import Record
from .errors import CapacityError, DomainError
from .formats import Result
from .graphs import (
    BlockCutTree,
    Graph,
    _bits,
    _component_masks,
    block_cut_tree,
    central_vertices,
    is_connected,
)
from .patterns import PATTERNS

DISCONNECTED = "DISCONNECTED"

# Vertices a graph may have before `bbraag classify` or `bbraag structure`
# stops with CapacityError.  Only non-members search patterns (about n^4 on a
# clique); the slowest one measured takes 1.75 s at 33 and 2.0 s at 34 (README).
RECOGNITION_VERTEX_LIMIT = 33


def check_recognition_size(g: Graph) -> None:
    """Raise CapacityError when ``g`` has more than RECOGNITION_VERTEX_LIMIT vertices."""
    if g.n > RECOGNITION_VERTEX_LIMIT:
        raise CapacityError(
            f"recognition is bounded to {RECOGNITION_VERTEX_LIMIT} vertices, got {g.n}"
        )


class ForbiddenWitness(Result):
    """A pattern name plus the vertices of the input that induce it."""

    pattern: str
    vertices: tuple[str, ...]


# -- chordality -----------------------------------------------------------------


class ChordalityResult(Record):
    chordal: bool
    elimination_order: Optional[tuple[str, ...]] = None
    witness: Optional[ForbiddenWitness] = None


def _mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality search visit order (indices); ties by smallest index.

    Each visit takes the lowest unvisited vertex of the highest weight, kept in
    one mask per weight (Tarjan-Yannakakis, SIAM J. Comput. 13, 1984).
    """
    weight = [0] * g.n
    buckets = [(1 << g.n) - 1] + [0] * g.n
    unvisited, top, order = buckets[0], 0, []
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        bit = buckets[top] & -buckets[top]
        buckets[top] ^= bit
        unvisited ^= bit
        order.append(bit.bit_length() - 1)
        for j in _bits(g.adj[order[-1]] & unvisited):
            buckets[weight[j]] ^= 1 << j
            weight[j] += 1
            buckets[weight[j]] |= 1 << j
        top += 1  # a neighbour may now outweigh the vertex taken by one
    return order


def _verify_peo(g: Graph, elim: list[int]):
    """None if ``elim`` is a perfect elimination order, else a failing triple.

    The triple is (v, u, w): u, w are later neighbors of v with u earliest,
    and u, w are non-adjacent.
    """
    pos = {v: k for k, v in enumerate(elim)}
    for k, v in enumerate(elim):
        later = [u for u in _bits(g.adj[v]) if pos[u] > k]
        if len(later) < 2:
            continue
        later.sort(key=pos.get)
        u = later[0]
        for w in later[1:]:
            if not (g.adj[u] >> w) & 1:
                return v, u, w
    return None


def _chordless_cycle_through(g: Graph, v: int, u: int, w: int) -> Optional[tuple[str, ...]]:
    """Shortest u-w path avoiding N[v] - {u, w}, closed up through v.

    Interior path vertices are outside N(v), the path is shortest in the
    induced subgraph, and u, w are non-adjacent, so the cycle is chordless.
    """
    forbidden = (g.adj[v] | (1 << v)) & ~(1 << u) & ~(1 << w)
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            cycle = [v]
            while x is not None:
                cycle.append(x)
                x = prev[x]
            return tuple(g.labels[i] for i in cycle)
        for y in sorted(_bits(g.adj[x] & ~forbidden)):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def _find_chordless_cycle(g: Graph, hint=None) -> tuple[str, ...]:
    if hint is not None:
        cycle = _chordless_cycle_through(g, *hint)
        if cycle is not None:
            return cycle
    for v in range(g.n):
        nbrs = sorted(_bits(g.adj[v]))
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                u, w = nbrs[a], nbrs[b]
                if (g.adj[u] >> w) & 1:
                    continue
                cycle = _chordless_cycle_through(g, v, u, w)
                if cycle is not None:
                    return cycle
    raise AssertionError("no chordless cycle found in a non-chordal graph")


def is_chordal(g: Graph) -> ChordalityResult:
    """Decide chordality; yes gives a perfect elimination order, no a long cycle."""
    if g.n == 0:
        return ChordalityResult(True, elimination_order=())
    elim = list(reversed(_mcs_order(g)))
    bad = _verify_peo(g, elim)
    if bad is None:
        return ChordalityResult(True, elimination_order=tuple(g.labels[i] for i in elim))
    cycle = _find_chordless_cycle(g, hint=bad)
    return ChordalityResult(
        False, witness=ForbiddenWitness(f"C{len(cycle)}", tuple(sorted(cycle)))
    )


# -- induced pattern search -------------------------------------------------------


def find_induced(g: Graph, pattern: str) -> Optional[tuple[str, ...]]:
    """First vertex subset of ``g`` inducing the named pattern, or ``None``.

    Backtracking over partial vertex maps.  The candidates for each pattern
    position are one mask: the unused vertices of large enough degree,
    adjacent to the image of each earlier position exactly where the pattern
    is.  They are tried in index order, so the result is deterministic.
    """
    if pattern not in PATTERNS:
        raise DomainError(f"unknown pattern {pattern!r}; known: {', '.join(PATTERNS)}")
    k, padj = PATTERNS[pattern].n, PATTERNS[pattern].adj
    if g.n < k:
        return None
    adj = g.adj
    fits = [
        sum(1 << c for c, row in enumerate(adj) if row.bit_count() >= p.bit_count())
        for p in padj
    ]
    image = [-1] * k

    def extend(depth: int, used: int) -> bool:
        if depth == k:
            return True
        cands = fits[depth] & ~used
        want = padj[depth]
        for j in range(depth):
            row = adj[image[j]]
            cands &= row if want >> j & 1 else ~row
        while cands:
            low = cands & -cands
            cands ^= low
            image[depth] = low.bit_length() - 1
            if extend(depth + 1, used | low):
                return True
        return False

    if extend(0, 0):
        return tuple(sorted(g.labels[i] for i in image))
    return None


# -- Droms graphs -------------------------------------------------------------------


class DromsLeaf(Result):
    label: str

    def to_json(self):
        return {"kind": "vertex", "label": self.label}


class DromsCone(Result):
    apex: str
    child: "DromsNode"

    def to_json(self):
        return {"kind": "cone", "apex": self.apex, "child": self.child.to_json()}


class DromsUnion(Result):
    children: tuple["DromsNode", ...]

    def to_json(self):
        return {"kind": "union", "children": [c.to_json() for c in self.children]}


DromsNode = Union[DromsLeaf, DromsCone, DromsUnion]


def replay_droms(cert: DromsNode) -> Graph:
    """Evaluate a cone/union tree back into the graph it describes, in one walk."""
    labels, edges = [], []
    todo = [(cert, ())]  # (node, the apexes above it); a cone's vertices precede its apex
    while todo:
        node, above = todo.pop()
        if isinstance(node, DromsCone):
            todo += [(DromsLeaf(node.apex), above), (node.child, above + (node.apex,))]
        elif isinstance(node, DromsUnion):
            todo += [(child, above) for child in reversed(node.children)]
        else:  # a vertex, with an edge to every apex above it
            labels.append(node.label)
            edges += [(node.label, apex) for apex in above]
    return Graph(labels, edges)


class DromsResult(Record):
    droms: bool
    certificate: Optional[DromsNode] = None
    witness: Optional[ForbiddenWitness] = None


def _droms_tree(labels, adj, mask: int) -> Union[DromsNode, int]:
    """The cone/union tree of the graph on the nonempty ``mask``, or if it is not
    Droms the mask of its first connected piece with no central vertex."""
    apexes = []
    while mask & (mask - 1):
        comps = _component_masks(len(adj), adj, mask)
        if len(comps) > 1:  # a union, its children by smallest label
            children = []
            for comp in sorted(comps, key=lambda c: min(labels[i] for i in _bits(c))):
                children.append(_droms_tree(labels, adj, comp))
                if isinstance(children[-1], int):
                    return children[-1]
            node = DromsUnion(tuple(children))
            break
        centrals = [i for i in _bits(mask) if mask & ~adj[i] == 1 << i]
        if not centrals:
            return mask
        apexes.append(min(centrals, key=labels.__getitem__))  # a cone's apex: the smallest label
        mask ^= 1 << apexes[-1]
    else:
        node = DromsLeaf(labels[mask.bit_length() - 1])
    for apex in reversed(apexes):
        node = DromsCone(labels[apex], node)
    return node


def is_droms(g: Graph) -> DromsResult:
    """Cone/disjoint-union recursion; failure yields an induced P4 or C4."""
    node = _droms_tree(g.labels, g.adj, (1 << g.n) - 1) if g.n else DromsUnion(())
    if not isinstance(node, int):
        return DromsResult(True, certificate=node)
    # connected with no dominating vertex forces one of the two patterns
    witness = _pattern_witness(g.induced(g.labels[i] for i in _bits(node)), ("P4", "C4"))
    if witness is None:
        raise AssertionError("connected non-cone graph without induced P4 or C4")
    return DromsResult(False, witness=witness)


# -- ptolemaic graphs -----------------------------------------------------------------


class BuildStep(Result):
    kind: str  # "leaf" | "twin" | "false_twin"
    vertex: str
    attached_to: str


class PtolemaicSequence(Result):
    base: str
    steps: tuple[BuildStep, ...]


def replay_ptolemaic(seq: PtolemaicSequence) -> Graph:
    """Rebuild the graph from its leaf/twin construction sequence.

    Raises DomainError if a step is illegal at replay time (in particular a
    false twin attached to a vertex whose neighbourhood is not complete).
    """
    labels = [seq.base]
    edges: list[tuple[str, str]] = []
    nbrs: dict[str, set[str]] = {seq.base: set()}
    for step in seq.steps:
        u = step.attached_to
        if u not in nbrs or step.vertex in nbrs:
            raise DomainError(f"invalid build step {step}")
        if step.kind == "leaf":
            new_nbrs = {u}
        elif step.kind == "twin":
            new_nbrs = nbrs[u] | {u}
        elif step.kind == "false_twin":
            around = nbrs[u]
            for a in around:
                if not (around - {a}) <= nbrs[a]:
                    raise DomainError(
                        f"false twin of {u!r} attached where its neighbourhood is not complete"
                    )
            new_nbrs = set(around)
        else:
            raise DomainError(f"unknown build step kind {step.kind!r}")
        labels.append(step.vertex)
        nbrs[step.vertex] = set()
        for x in new_nbrs:
            nbrs[step.vertex].add(x)
            nbrs[x].add(step.vertex)
            edges.append((x, step.vertex))
    return Graph(labels, edges)


class PtolemaicResult(Record):
    ptolemaic: bool
    certificate: Optional[PtolemaicSequence] = None
    witness: Optional[ForbiddenWitness] = None


def _removable_step(adj, alive: int, order: list[int]) -> Optional[tuple[str, int, int]]:
    """(kind, vertex, partner): the first leaf, twin or false twin in ``order``, the
    alive vertices by label, of the chordal graph on ``alive``, with its first partner."""
    for i in order:
        if (row := adj[i] & alive).bit_count() == 1:
            return "leaf", i, row.bit_length() - 1
    # the graph is chordal, so false twins have a complete neighbourhood: two
    # non-adjacent common neighbours would close an induced C4 with them.
    for kind, closed in (("twin", 1), ("false_twin", 0)):
        groups: dict[int, list[int]] = {}  # by N[v] or N(v), in the order of the first vertex
        for i in order:
            groups.setdefault(adj[i] & alive | closed << i, []).append(i)
        for group in groups.values():
            if len(group) > 1:
                return kind, group[0], group[1]
    return None


def _connected_chordal_witness(
    g: Graph, chordality: Optional[ChordalityResult]
) -> Optional[ForbiddenWitness]:
    """Why ``g`` is not connected and chordal; None when it is."""
    if not is_connected(g):
        return ForbiddenWitness(DISCONNECTED, ())
    chord = is_chordal(g) if chordality is None else chordality
    return None if chord.chordal else chord.witness


def _pattern_witness(g: Graph, patterns: tuple[str, ...]) -> Optional[ForbiddenWitness]:
    """The first of ``patterns`` that ``g`` induces, on its first vertex subset."""
    for pattern in patterns:
        hit = find_induced(g, pattern)
        if hit is not None:
            return ForbiddenWitness(pattern, hit)
    return None


def is_ptolemaic(g: Graph, chordality: Optional[ChordalityResult] = None) -> PtolemaicResult:
    """Connected + chordal + gem-free, certified by a leaf/twin build sequence.

    The greedy build decides (Bandelt-Mulder 1986); only a stalled one searches for the gem.
    ``chordality``, when given, must be ``is_chordal(g)``; it saves the search.
    """
    witness = _connected_chordal_witness(g, chordality)
    if witness is not None:
        return PtolemaicResult(False, witness=witness)
    steps: list[BuildStep] = []
    alive, order = (1 << g.n) - 1, sorted(range(g.n), key=g.labels.__getitem__)
    while alive & (alive - 1):
        step = _removable_step(g.adj, alive, order)
        if step is None:
            return PtolemaicResult(False, witness=_pattern_witness(g, ("GEM",)))
        kind, i, partner = step
        steps.append(BuildStep(kind, g.labels[i], g.labels[partner]))
        alive ^= 1 << i
        order.remove(i)
    return PtolemaicResult(
        True, certificate=PtolemaicSequence(g.labels[order[0]], tuple(reversed(steps)))
    )


# -- cut-or-central and trees of Droms graphs ------------------------------------------


def find_cut_or_central(g: Graph) -> tuple[str, str]:
    """For a connected chordal gem-free hbar-free graph: ("central", v) or ("cut", v).

    Prefers a central vertex (cone stripping shrinks fastest); smallest label
    breaks ties.  Violated preconditions raise DomainError naming the clause.
    """
    res = is_tree_of_droms(g)
    if not res.tree_of_droms:
        raise DomainError(f"precondition violated: {res.witness.pattern} on {res.witness.vertices}")
    centrals = central_vertices(g)
    if centrals:
        return ("central", centrals[0])
    # a tree of Droms graphs without a central vertex has several blocks, and
    # its decomposition glues them along every cut vertex
    return ("cut", min(v for _, _, v in res.decomposition.edges))


class DromsTreeNode(Result):
    vertices: tuple[str, ...]
    certificate: DromsNode


class DromsTreeDecomposition(Result):
    """Connected Droms pieces glued along cut vertices; edges are (parent, child, vertex)."""

    nodes: tuple[DromsTreeNode, ...]
    edges: tuple[tuple[int, int, str], ...]


def replay_tree_of_droms(dec: DromsTreeDecomposition) -> Graph:
    """Union of the pieces' replayed graphs; equals the decomposed graph."""
    pieces = [replay_droms(node.certificate) for node in dec.nodes]
    labels = sorted({v for piece in pieces for v in piece.labels})
    return Graph(labels, [e for piece in pieces for e in piece.edges()])


class TreeOfDromsResult(Record):
    tree_of_droms: bool
    decomposition: Optional[DromsTreeDecomposition] = None
    witness: Optional[ForbiddenWitness] = None


def _decompose(tree: BlockCutTree) -> Optional[DromsTreeDecomposition]:
    """Split at the smallest cut vertex, on an explicit stack, until every piece is one block.

    Each block becomes a node, or ends the walk with None if it is not Droms.
    A piece split at v is walked part by part: first the part holding its
    anchor (the vertex it was glued along, or v at the top), then each other
    part, glued after its walk to the main part's node holding v.  All nodes
    holding v come from this walk, the main part's first.
    """
    nodes, edges = [], []
    holding: dict[str, list[int]] = {}  # label -> the nodes holding it
    todo: list[tuple] = [(tree.whole, tree.cuts, 0)]  # (piece, its cut vertices, anchor bit)
    while todo:
        piece, cuts, anchor = todo.pop()
        if cuts is None:  # glue along the vertex labelled ``piece``
            edges.append((holding[piece][0], holding[piece][-1], piece))
        elif not cuts:
            node = _droms_tree(tree.labels, tree.adj, piece)
            if isinstance(node, int):
                return None
            names = tree.names(piece)
            for name in names:
                holding.setdefault(name, []).append(len(nodes))
            nodes.append(DromsTreeNode(names, node))
        else:
            v = cuts & -cuts
            parts = tree.parts(piece, v.bit_length() - 1)
            main = next((k for k, part in enumerate(parts) if part & anchor), 0)
            for part in reversed(parts[:main] + parts[main + 1:]):
                todo.append((tree.labels[v.bit_length() - 1], None, None))
                todo.append((part, cuts & part & ~v, v))
            todo.append((parts[main], cuts & parts[main] & ~v, anchor or v))
    return DromsTreeDecomposition(tuple(nodes), tuple(edges))


def is_tree_of_droms(
    g: Graph, chordality: Optional[ChordalityResult] = None, tree: Optional[BlockCutTree] = None
) -> TreeOfDromsResult:
    """Connected + chordal + gem-free + hbar-free, certified by a glued decomposition.

    Only a block that is not Droms leads to the gem and hbar search.  ``chordality``
    and ``tree``, when given, must be ``is_chordal(g)`` and ``block_cut_tree(g)``.
    """
    witness = _connected_chordal_witness(g, chordality)
    if witness is not None:
        return TreeOfDromsResult(False, witness=witness)
    dec = _decompose(block_cut_tree(g) if tree is None else tree)
    if dec is None:
        return TreeOfDromsResult(False, witness=_pattern_witness(g, ("GEM", "HBAR")))
    return TreeOfDromsResult(True, decomposition=dec)
