"""Graph-class recognition with certificates and forbidden-subgraph witnesses.

Every decision procedure here returns evidence in both directions: a positive
answer carries a construction (elimination order, cone/union tree, build
sequence, glued decomposition) that replays to the input graph, a negative
answer carries a vertex subset inducing one of the obstruction patterns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, Optional, Union

from .errors import CapacityError, DomainError
from .graphs import (
    Graph,
    _bits,
    blocks_at,
    central_vertices,
    connected_components,
    cut_vertices,
    is_connected,
    run_flat,
)
from .patterns import PATTERNS, disjoint_union

DISCONNECTED = "DISCONNECTED"

# Vertices a graph may have before `bbraag classify` or `bbraag structure`
# stops with CapacityError.  The pattern searches grow like n^5 on cliques:
# classify on K20 takes about 1.6 s on a 2-vCPU VM, and about 60 s on K40.
RECOGNITION_VERTEX_LIMIT = 20


def check_recognition_size(g: Graph) -> None:
    """Raise CapacityError when ``g`` has more than RECOGNITION_VERTEX_LIMIT vertices."""
    if g.n > RECOGNITION_VERTEX_LIMIT:
        raise CapacityError(
            f"recognition is bounded to {RECOGNITION_VERTEX_LIMIT} vertices, got {g.n}"
        )


@dataclass(frozen=True)
class ForbiddenWitness:
    """A pattern name plus the vertices of the input that induce it."""

    pattern: str
    vertices: tuple[str, ...]

    def to_json(self):
        return {"pattern": self.pattern, "vertices": list(self.vertices)}


# -- chordality -----------------------------------------------------------------


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    elimination_order: Optional[tuple[str, ...]] = None
    witness: Optional[ForbiddenWitness] = None


def _mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality search visit order (indices); ties by smallest index."""
    n = g.n
    weight = [0] * n
    visited = 0
    order = []
    for _ in range(n):
        best = -1
        for i in range(n):
            if not (visited >> i) & 1 and (best < 0 or weight[i] > weight[best]):
                best = i
        order.append(best)
        visited |= 1 << best
        for j in _bits(g.adj[best] & ~visited):
            weight[j] += 1
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
    pat = PATTERNS[pattern]
    k, padj = pat.n, pat.adj
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


@dataclass(frozen=True)
class DromsLeaf:
    label: str

    def to_json(self):
        return {"kind": "vertex", "label": self.label}


@dataclass(frozen=True)
class DromsCone:
    apex: str
    child: "DromsNode"

    def to_json(self):
        return {"kind": "cone", "apex": self.apex, "child": self.child.to_json()}


@dataclass(frozen=True)
class DromsUnion:
    children: tuple["DromsNode", ...]

    def to_json(self):
        return {"kind": "union", "children": [c.to_json() for c in self.children]}


DromsNode = Union[DromsLeaf, DromsCone, DromsUnion]


def replay_droms(cert: DromsNode) -> Graph:
    """Evaluate a cone/union tree back into the graph it describes."""
    if isinstance(cert, DromsLeaf):
        return Graph([cert.label])
    if isinstance(cert, DromsUnion):
        return disjoint_union(*(replay_droms(c) for c in cert.children))
    child = replay_droms(cert.child)
    return Graph(
        list(child.labels) + [cert.apex],
        child.edges() + [(v, cert.apex) for v in child.labels],
    )


@dataclass(frozen=True)
class DromsResult:
    droms: bool
    certificate: Optional[DromsNode] = None
    witness: Optional[ForbiddenWitness] = None


def is_droms(g: Graph) -> DromsResult:
    """Cone/disjoint-union recursion; failure yields an induced P4 or C4."""
    if g.n == 0:
        return DromsResult(True, certificate=DromsUnion(()))
    comps = connected_components(g)
    if len(comps) > 1:
        children = []
        for comp in comps:
            sub = is_droms(g.induced(comp))
            if not sub.droms:
                return DromsResult(False, witness=sub.witness)
            children.append(sub.certificate)
        return DromsResult(True, certificate=DromsUnion(tuple(children)))
    if g.n == 1:
        return DromsResult(True, certificate=DromsLeaf(g.labels[0]))
    centrals = central_vertices(g)
    if not centrals:
        # connected with no dominating vertex forces one of the two patterns
        for pattern in ("P4", "C4"):
            hit = find_induced(g, pattern)
            if hit is not None:
                return DromsResult(False, witness=ForbiddenWitness(pattern, hit))
        raise AssertionError("connected non-cone graph without induced P4 or C4")
    apex = centrals[0]
    sub = is_droms(g.without(apex))
    if not sub.droms:
        return DromsResult(False, witness=sub.witness)
    return DromsResult(True, certificate=DromsCone(apex, sub.certificate))


# -- ptolemaic graphs -----------------------------------------------------------------


@dataclass(frozen=True)
class BuildStep:
    kind: str  # "leaf" | "twin" | "false_twin"
    vertex: str
    attached_to: str

    def to_json(self):
        return {"kind": self.kind, "vertex": self.vertex, "attached_to": self.attached_to}


@dataclass(frozen=True)
class PtolemaicSequence:
    base: str
    steps: tuple[BuildStep, ...]

    def to_json(self):
        return {"base": self.base, "steps": [s.to_json() for s in self.steps]}


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


@dataclass(frozen=True)
class PtolemaicResult:
    ptolemaic: bool
    certificate: Optional[PtolemaicSequence] = None
    witness: Optional[ForbiddenWitness] = None


def _removable_step(g: Graph) -> Optional[BuildStep]:
    """A vertex removable as leaf, twin, or legal false twin, in label order."""
    order = sorted(range(g.n), key=lambda i: g.labels[i])
    for i in order:
        row = g.adj[i]
        if row.bit_count() == 1:
            u = next(_bits(row))
            return BuildStep("leaf", g.labels[i], g.labels[u])
    for i in order:
        row = g.adj[i]
        for j in order:
            if j == i:
                continue
            if (row >> j) & 1 and (row & ~(1 << j)) == (g.adj[j] & ~(1 << i)):
                return BuildStep("twin", g.labels[i], g.labels[j])
    for i in order:
        row = g.adj[i]
        nbrs = list(_bits(row))
        complete = all(
            (g.adj[a] >> b) & 1 for ai, a in enumerate(nbrs) for b in nbrs[ai + 1:]
        )
        if not complete:
            continue
        for j in order:
            if j != i and not (row >> j) & 1 and g.adj[j] == row:
                return BuildStep("false_twin", g.labels[i], g.labels[j])
    return None


def _class_witness(
    g: Graph, chordality: Optional[ChordalityResult], patterns: tuple[str, ...]
) -> Optional[ForbiddenWitness]:
    """Why ``g`` is not connected, chordal and free of ``patterns``; None when it is."""
    if not is_connected(g):
        return ForbiddenWitness(DISCONNECTED, ())
    chord = is_chordal(g) if chordality is None else chordality
    if not chord.chordal:
        return chord.witness
    for pattern in patterns:
        hit = find_induced(g, pattern)
        if hit is not None:
            return ForbiddenWitness(pattern, hit)
    return None


def is_ptolemaic(g: Graph, chordality: Optional[ChordalityResult] = None) -> PtolemaicResult:
    """Connected + chordal + gem-free, certified by a leaf/twin build sequence.

    ``chordality``, when given, must be ``is_chordal(g)``; it saves the search.
    """
    witness = _class_witness(g, chordality, ("GEM",))
    if witness is not None:
        return PtolemaicResult(False, witness=witness)
    steps: list[BuildStep] = []
    current = g
    while current.n > 1:
        step = _removable_step(current)
        if step is None:
            raise AssertionError("ptolemaic graph with no removable leaf or twin")
        steps.append(step)
        current = current.without(step.vertex)
    return PtolemaicResult(
        True, certificate=PtolemaicSequence(current.labels[0], tuple(reversed(steps)))
    )


# -- cut-or-central and trees of Droms graphs ------------------------------------------


def find_cut_or_central(g: Graph) -> tuple[str, str]:
    """For a connected chordal gem-free hbar-free graph: ("central", v) or ("cut", v).

    Prefers a central vertex (cone stripping shrinks fastest); smallest label
    breaks ties.  Violated preconditions raise DomainError naming the clause.
    """
    witness = _class_witness(g, None, ("GEM", "HBAR"))
    if witness is not None:
        raise DomainError(f"precondition violated: {witness.pattern} on {witness.vertices}")
    centrals = central_vertices(g)
    if centrals:
        return ("central", centrals[0])
    cuts = cut_vertices(g)
    if cuts:
        return ("cut", cuts[0])
    raise AssertionError("connected chordal gem-free hbar-free graph with neither")


@dataclass(frozen=True)
class DromsTreeNode:
    vertices: tuple[str, ...]
    certificate: DromsNode

    def to_json(self):
        return {"vertices": list(self.vertices), "certificate": self.certificate.to_json()}


@dataclass(frozen=True)
class DromsTreeDecomposition:
    """Connected Droms pieces glued along cut vertices; edges are (parent, child, vertex)."""

    nodes: tuple[DromsTreeNode, ...]
    edges: tuple[tuple[int, int, str], ...]

    def to_json(self):
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "edges": [[a, b, v] for a, b, v in self.edges],
        }


def replay_tree_of_droms(dec: DromsTreeDecomposition) -> Graph:
    """Union of the pieces' replayed graphs; equals the decomposed graph."""
    pieces = [replay_droms(node.certificate) for node in dec.nodes]
    labels: list[str] = []
    seen: set[str] = set()
    edges: set[frozenset] = set()
    for piece in pieces:
        for v in piece.labels:
            if v not in seen:
                seen.add(v)
                labels.append(v)
        edges.update(frozenset(e) for e in piece.edges())
    return Graph(sorted(labels), [tuple(sorted(e)) for e in sorted(edges, key=sorted)])


@dataclass(frozen=True)
class TreeOfDromsResult:
    tree_of_droms: bool
    decomposition: Optional[DromsTreeDecomposition] = None
    witness: Optional[ForbiddenWitness] = None


def _decompose(g: Graph, nodes, edges, anchor: Optional[str]) -> Generator:
    """Recursive split; its value is the index of a node containing ``anchor``.

    Run by :func:`run_flat`, so a long path does not exhaust the stack.

    Splits at the smallest cut vertex while one exists; a piece with no cut
    vertex is itself a connected Droms graph (it is a cone by the class
    assumptions) and becomes a tree node.  Child-piece roots contain the cut
    vertex they are glued along, so adjacent node sets intersect exactly in
    the edge label.
    """
    cuts = cut_vertices(g)
    if not cuts:
        sub = is_droms(g)
        assert sub.droms, "cut-free piece of a tree of Droms graphs must be Droms"
        nodes.append(DromsTreeNode(tuple(sorted(g.labels)), sub.certificate))
        return len(nodes) - 1
    v = cuts[0]
    blocks = blocks_at(g, v).blocks
    main = 0
    if anchor is not None and anchor != v:
        main = next(k for k, blk in enumerate(blocks) if anchor in blk)
    begin = len(nodes)
    main_idx = yield _decompose(
        g.induced(blocks[main]), nodes, edges, v if anchor is None else anchor
    )
    attach = next(
        idx for idx in range(begin, len(nodes)) if v in nodes[idx].vertices
    )
    for k, blk in enumerate(blocks):
        if k == main:
            continue
        child_idx = yield _decompose(g.induced(blk), nodes, edges, v)
        edges.append((attach, child_idx, v))
    return main_idx


def is_tree_of_droms(
    g: Graph, chordality: Optional[ChordalityResult] = None
) -> TreeOfDromsResult:
    """Connected + chordal + gem-free + hbar-free, certified by a glued decomposition.

    ``chordality``, when given, must be ``is_chordal(g)``; it saves the search.
    """
    witness = _class_witness(g, chordality, ("GEM", "HBAR"))
    if witness is not None:
        return TreeOfDromsResult(False, witness=witness)
    nodes: list[DromsTreeNode] = []
    edges: list[tuple[int, int, str]] = []
    run_flat(_decompose(g, nodes, edges, None))
    return TreeOfDromsResult(
        True, decomposition=DromsTreeDecomposition(tuple(nodes), tuple(edges))
    )
