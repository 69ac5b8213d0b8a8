"""Isomorph-free generation of small connected graphs and batch property scans.

Generation is canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  The deletion candidates T of a
connected graph C are the vertices w whose removal leaves C connected and
whose (degree, sum of the neighbours' degrees) is largest.  The canonical
parent of C is the C - w, w in T, with the smallest (rank, canonical key),
where the rank of a graph is its sorted list of neighbour-degree sums.  Each
(n-1)-vertex representative is extended by a new vertex v over every
nonempty neighbourhood S, and a child is kept only when v is in T and no w
in T gives a smaller (rank, key) than the parent's.  The rule reads only the
isomorphism class of C, so every connected n-vertex graph has exactly one
parent class, and no set spans parents.

The rank costs a few mask operations, so it settles most rivals before any
canonical labelling, as nauty's geng ranks candidates by an invariant: a
rival w whose C - w ranks below the parent rejects the child, one that ranks
above it is skipped, and only a tied rank is compared with the parent's key
by :func:`~bbraag.kernel.compare_key`.  That search stops at its first leaf
whose key is at most the parent's; a leaf equal to it is a labelling of the
parent, so C - w is isomorphic to it.

Three prunings skip work whose result is already known.  No neighbourhood
smaller than the largest degree of a vertex that does not cut the parent
can put v in T, unless it has one vertex, so the neighbourhoods are walked
by size from there.  An automorphism of the parent extends to an isomorphism
of the children over S and its image that fixes v, so both get the same
verdict and the same key: within each size the neighbourhoods are walked in
ascending order and each orbit of the parent's automorphism group is
processed once, at its smallest member (the generators the canonical search
finds generate the whole group, which the tie rule below needs; each maps a
subset as its low half and its high half, through two tables of at most
2^ceil(m/2) entries).  And a rival w that is a twin of v in the child (equal
neighbourhoods apart from each other) is never tested: the swap of v and w
is an automorphism of the child, so C - w is isomorphic to C - v, the
parent, and cannot rank or key below it.

A child needs its own canonical key only when it ties.  Suppose the accepted
children C over S and C' over S' of one parent, from different orbits, are
isomorphic by phi.  Then phi(v) != v', or phi restricted to the parent would be an
automorphism taking S to S'.  So w' = phi(v) is in T(C'), a rival of v' with
C' - w' isomorphic to the parent, so of equal rank and key, and it is no
twin of v': composing phi with the swap of v' and w' would fix v'.  The
rival test of C' therefore meets a non-twin rival whose deletion ties with
the parent, and by symmetry so does that of C.  A child with no such tie is
the only one of its class.  The tied children of a parent are gathered and
bucketed by an isomorphism invariant (the sorted (degree, neighbour-degree
sum) of every vertex); only the children that share a bucket get a key (22
of order 8), and only those keys meet in a set local to the parent.

Each parent costs one canonical search, which gives both its key and the
generators of its automorphism group, and the parent may come in any
labeling.  A scan therefore walks the orders as labeled graphs: each order
below its bound is built from the children of the one before and scanned as
it is built, and the top order is streamed from the order below without
being held.  A held graph is one bytes string of its adjacency masks, and a
scanned graph is keyed only when it fails.  No lower-order class is keyed
only to be decoded again, so the v <= 8 scan makes 2,801 searches: 996
parent searches, 1,783 rival comparisons and 22 keys.  Keying every rival
made 4,816, and keying the lower orders too made 6,902.  Its counts merge
associatively and the failing list is sorted, so the result does not depend
on the order of the work, and a worker pool takes chunks of each lower order
and chunks of the top order's parents, each through :func:`_scan`.
:func:`_canonical_reps`, whose key lists are ordered by canonical graph6
bytes, grows each order from the decoded keys of the one below and keys
every child.  Each predicate receives one
:class:`~bbraag.invariants.Analysis` per graph, the context the report uses,
on a :meth:`~bbraag.graphs.Graph.numbered` graph.

A streamed child is its parent plus v over S, and its new cliques are v and
v joined to each clique of S.  So its Euler characteristic is chi(parent) +
1 - chi(Cl(S)) and its clique number max(omega(parent), 1 + omega(S)), and
one clique walk over each parent and one over each S give both
(:func:`_grow_seeded`), as nauty's geng tests a property while it generates
(McKay-Piperno, "Practical graph isomorphism, II", 2014).  They seed the
child's Analysis: 7,280 of the 11,117 streamed graphs of order 8 have
chi != 1, so they are not acyclic and are never dismantled.  The held lower
orders carry nothing but their masks, so their Analysis is unseeded, and
so is every Analysis of a predicate that reads neither number (the
tree-of-Droms scans), whose children are not walked.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Iterator

from . import _canon_py, _g6, kernel
from .errors import CapacityError, DomainError
from .formats import Result
from .graphs import Graph, _bits, _component_masks, clique_euler_number, is_connected
from .homology import normalize_ring
from .invariants import INEQUALITIES, Analysis, koszul_hilbert_check, omega_identity_check
from .recognition import find_induced, is_tree_of_droms, replay_tree_of_droms

CAPACITY = 9

_reps_cache: dict[int, list[bytes]] = {}


def _canonical_reps(n: int) -> list[bytes]:
    """Canonical graph6 keys of all connected n-vertex graphs, ascending."""
    cached = _reps_cache.get(n)
    if cached is not None:
        return cached
    if n == 1:
        out = [_g6.encode(1, 0)]
    else:
        parents = (_g6.decode(key)[1] for key in _canonical_reps(n - 1))
        out = sorted(key or _key_of(grown) for grown, key in _grow(parents))
    _reps_cache[n] = out
    return out


def _grow(parents) -> Iterator[tuple[list[int], bytes | None]]:
    """The children of every parent in ``parents``: one order up, one per class."""
    for adj in parents:
        yield from _children(adj)


def _grow_seeded(parents) -> Iterator[tuple[list[int], int, int]]:
    """The children of :func:`_grow`, each with its Euler characteristic and clique number.

    Both come from one clique walk over the parent and one over the new
    vertex's neighbourhood S, the last mask of the child.
    """
    for adj in parents:
        euler, number = clique_euler_number(adj, (1 << len(adj)) - 1)
        for grown, _ in _children(adj):
            # v and v joined to each clique of S are the child's new cliques
            euler_s, number_s = clique_euler_number(adj, grown[-1])
            yield grown, euler + 1 - euler_s, max(number, number_s + 1)


def _children(adj: list[int]) -> Iterator[tuple[list[int], bytes | None]]:
    """One labeled child per class whose canonical parent is the graph ``adj``.

    ``adj`` holds the parent's adjacency masks in any labeling.  Yields the
    child's adjacency masks (the new vertex last) with its canonical key when
    another tied child shared its invariant, else None.
    """
    m = len(adj)
    parent_key, generators = _canon_py.canonical_search(m, adj)
    deg = [a.bit_count() for a in adj]
    # A subset's degree sum, and its image under an automorphism, is that of
    # its low half plus that of its high half.
    split = (m + 1) // 2
    half = (1 << split) - 1
    low_degs, high_degs = _half_sums(deg, split)
    nds = [low_degs[a & half] + high_degs[a >> split] for a in adj]  # neighbour-degree sums
    parent_rank = sorted(nds)
    # The child minus u is connected iff S meets every component of the parent minus u.
    full = (1 << m) - 1
    parts = [_component_masks(m, adj, full & ~(1 << u)) for u in range(m)]
    # Vertex masks by degree in the parent: eq[d] of degree d, ge[d] of degree >= d.
    cut = 0
    eq = [0] * (m + 2)
    for u in range(m):
        eq[deg[u]] |= 1 << u
        if len(parts[u]) > 1:
            cut |= 1 << u
    ge = eq[:]
    for d in range(m, -1, -1):
        ge[d] |= ge[d + 1]
    vertex = 1 << m
    images = [_half_sums([1 << x for x in a], split) for a in generators]
    seen = bytearray(vertex)
    tied: dict[tuple, list[list[int]]] = {}
    # v must have the largest degree among the vertices that do not cut the
    # parent unless |S| = 1, so no smaller neighbourhood is walked.
    top = max(deg[u] for u in range(m) if not cut >> u & 1)
    by_size = _by_size(m)
    for k in (1, *range(max(top, 2), m + 1)):
        for s in by_size[k]:
            # The degree test of _deletion_rivals on the vertices that do not cut
            # the parent, which rejects most neighbourhoods before the orbit walk.
            if seen[s] or k > 1 and (ge[k + 1] | eq[k] & s) & ~cut:
                continue
            # An automorphism of the parent, extended to fix v, maps the child
            # over S onto the child over its image: same verdict, same key.
            orbit = [s]
            seen[s] = 1
            for t in orbit:
                lo, hi = t & half, t >> split
                for low, high in images:
                    img = low[lo] | high[hi]
                    if not seen[img]:
                        seen[img] = 1
                        orbit.append(img)
            degrees = low_degs[s & half] + high_degs[s >> split]  # the degree sum over S
            rivals = _deletion_rivals(s, adj, nds, degrees, parts, cut, eq, ge)
            if rivals is None:
                continue
            grown = [a | vertex if s >> u & 1 else a for u, a in enumerate(adj)]
            grown.append(s)
            if rivals:
                # The child's neighbour-degree sums: S raises the degrees of its
                # members, and v has degree k.
                sums = [
                    d + (a & s).bit_count() + (k if s >> u & 1 else 0)
                    for u, (d, a) in enumerate(zip(nds, adj))
                ]
                sums.append(k + degrees)
            tie = False
            for w in rivals:
                # A twin w of v in the child gives C - w ≅ C - v, the parent itself.
                if grown[w] & ~vertex == s & ~(1 << w):
                    continue
                rank = _deleted_rank(grown, sums, w)
                if rank != parent_rank:
                    if rank < parent_rank:
                        break
                    continue
                sign = kernel.compare_key(m, _delete(grown, w), parent_key)
                if sign < 0:
                    break
                tie = tie or sign == 0
            else:
                if tie:
                    # the (degree, neighbour-degree sum) of every vertex
                    invariant = tuple(sorted(zip(map(int.bit_count, grown), sums)))
                    tied.setdefault(invariant, []).append(grown)
                else:
                    yield grown, None
    # Only tied children can be isomorphic to one another, and only when
    # their invariants agree.
    for bucket in tied.values():
        if len(bucket) == 1:
            yield bucket[0], None
            continue
        kept: set[bytes] = set()
        for grown in bucket:
            key = _key_of(grown)
            if key not in kept:
                kept.add(key)
                yield grown, key


def _half_sums(values: list[int], split: int) -> tuple[list[int], list[int]]:
    """Sums of ``values`` over the subsets of the indices below ``split``, and of those from it.

    Each list is indexed by the subset shifted down to bit 0, so neither has
    more than 2^ceil(m/2) entries.  With ``values[i] = 1 << perm[i]`` a sum
    is the image of the subset under ``perm``.
    """
    low, high = [0], [0]
    for i, x in enumerate(values):
        side = low if i < split else high
        side += [y + x for y in side]
    return low, high


@lru_cache(maxsize=16)
def _by_size(m: int) -> tuple[tuple[int, ...], ...]:
    """The subsets of m vertices as masks, by size, each size ascending."""
    sizes: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(1 << m):
        sizes[s.bit_count()].append(s)
    return tuple(map(tuple, sizes))


def _deletion_rivals(s: int, adj, nds, degrees: int, parts, cut: int, eq, ge) -> list[int] | None:
    """Parent vertices tied with the new vertex v (joined to ``s``) as deletion candidates.

    A candidate leaves the child connected; the candidates with the largest
    (degree, neighbour-degree sum) form T.  None means v is not in T.
    ``nds`` are the parent's neighbour-degree sums and ``degrees`` the sum
    of the degrees in S; ``cut`` masks the parent's cut vertices, ``eq[d]``
    and ``ge[d]`` its vertices of degree d and of degree at least d.
    """
    k = s.bit_count()
    # A vertex u that does not cut the parent leaves the child connected
    # unless S = {u}; the others are checked component by component.
    check = cut | s if k == 1 else cut
    above = ge[k + 1] | eq[k] & s  # child degree above k
    if above & ~check:
        return None
    for u in _bits(above & check):
        if all(s & p for p in parts[u]):
            return None
    level = eq[k] & ~s | eq[k - 1] & s  # child degree k
    ties = level & ~check
    for u in _bits(level & check):
        if all(s & p for p in parts[u]):
            ties |= 1 << u
    rivals = []
    if ties:
        own = k + degrees
        for u in _bits(ties):
            theirs = nds[u] + (adj[u] & s).bit_count() + (k if s >> u & 1 else 0)
            if theirs > own:
                return None
            if theirs == own:
                rivals.append(u)
    return rivals


def _deleted_rank(adj: list[int], sums: list[int], w: int) -> list[int]:
    """Sorted neighbour-degree sums of the graph ``adj`` minus ``w``; ``sums`` are those of ``adj``.

    Deleting w takes w's degree off the sums of its neighbours, and one off a
    sum for each neighbour shared with w.
    """
    nw = adj[w]
    dw = nw.bit_count()
    return sorted(
        sums[x] - (a & nw).bit_count() - (dw if nw >> x & 1 else 0)
        for x, a in enumerate(adj) if x != w
    )


def _delete(adj: list[int], w: int) -> list[int]:
    """Adjacency masks with vertex ``w`` removed and the later vertices shifted down."""
    low = (1 << w) - 1
    return [(a & low) | ((a >> 1) & ~low) for i, a in enumerate(adj) if i != w]


def _key_of(adj: list[int]) -> bytes:
    """Canonical graph6 key of the graph with adjacency masks ``adj``."""
    return _g6.encode(len(adj), kernel.canon_key(len(adj), adj))


def _check_order(n: int, what: str) -> None:
    if not 1 <= n <= CAPACITY:
        raise CapacityError(f"{what} must be within 1..{CAPACITY}, got {n}")


def connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    _check_order(n, "connected_graphs vertex count")
    for key in _canonical_reps(n):
        yield Graph.numbered(_g6.decode(key)[1])


def connected_graph_count(n: int) -> int:
    _check_order(n, "connected_graphs vertex count")
    return len(_canonical_reps(n))


# -- predicates ----------------------------------------------------------------------

Predicate = Callable[[Analysis, str], tuple[bool, bool]]


def _inequality(name: str) -> Predicate:
    """Applicable where the named inequality applies; passes where it holds."""
    check = INEQUALITIES[name]

    def predicate(a: Analysis, ring: str) -> tuple[bool, bool]:
        out = check(a, ring)
        return out.applicable, out.passed is not False

    return predicate


def _pred_chordal_implies_acyclic(a: Analysis, ring: str) -> tuple[bool, bool]:
    if not a.chordality.chordal:
        return False, True
    return True, a.acyclic(ring)


def _pred_tree_of_droms_equivalence(a: Analysis, ring: str) -> tuple[bool, bool]:
    """Connected, chordal, gem- and hbar-free must equal the block-wise verdict, with replay."""
    g, res = a.graph, a.tree_of_droms
    by_patterns = is_connected(g) and a.chordality.chordal and not (
        find_induced(g, "GEM") or find_induced(g, "HBAR")
    )
    if by_patterns != res.tree_of_droms:
        return True, False
    if res.tree_of_droms and replay_tree_of_droms(res.decomposition) != a.graph:
        return True, False
    return True, True


def _pred_omega_identity(a: Analysis, ring: str) -> tuple[bool, bool]:
    check = omega_identity_check(a, ring if ring != "Z" else "Q")
    if not check.applicable:
        return False, True
    return True, bool(check.passed)


def _pred_hilbert_consistency(a: Analysis, ring: str) -> tuple[bool, bool]:
    """The Koszul Hilbert identity on chordal graphs, whose flag complexes are acyclic.

    With h_A read off the Betti numbers the identity follows from the face
    counts; the tests recheck it with h_A from the oracle in ``tests/oracles.py``.
    """
    if not a.chordality.chordal:
        return False, True
    check = koszul_hilbert_check(a, 12, ring if ring != "Z" else "Q")
    return True, check.applicable and bool(check.passed)


def _pred_hereditary_tree_of_droms(a: Analysis, ring: str) -> tuple[bool, bool]:
    if not a.tree_of_droms.tree_of_droms:
        return False, True
    g = a.graph
    for mask in range(1, 1 << g.n):
        sub = g.induced([g.labels[i] for i in _bits(mask)])
        if not is_connected(sub):
            continue
        if not is_tree_of_droms(sub).tree_of_droms:
            return True, False
    return True, True


PREDICATES: dict[str, Predicate] = {
    "acyclic_dim_bound": _inequality("acyclic_dim_bound"),
    "turan_nonneg": _inequality("turan_nonneg"),
    "chordal_implies_acyclic": _pred_chordal_implies_acyclic,
    "tree_of_droms_equivalence": _pred_tree_of_droms_equivalence,
    "omega_identity": _pred_omega_identity,
    "hilbert_consistency": _pred_hilbert_consistency,
    "hereditary_tree_of_droms": _pred_hereditary_tree_of_droms,
}
# The predicates that read a seeded Euler characteristic or clique number;
# the streamed children of a scan are walked for seeds only for these.
SEEDED = frozenset(PREDICATES) - {"tree_of_droms_equivalence", "hereditary_tree_of_droms"}


# -- scan machinery ------------------------------------------------------------------


class ScanReport(Result):
    predicate: str
    ring: str
    max_vertices: int
    examined: int
    applicable: int
    passed: int
    failing: tuple[str, ...]

    @property
    def skipped(self) -> int:
        return self.examined - self.applicable

    @property
    def failed(self) -> int:
        return self.applicable - self.passed

    def to_json(self):
        return dict(super().to_json(), failed=self.failed, skipped=self.skipped)

    def to_text(self) -> str:
        fields = self.to_json()
        del fields["failing"]
        lines = [f"{key.replace('_', ' '):<13}{value}" for key, value in fields.items()]
        if self.failing:
            lines.append("failing graphs (graph6):")
            lines.extend(f"  {g6}" for g6 in self.failing)
        return "\n".join(lines)


def _scan(job) -> tuple[int, int, int, list[str]]:
    """Counts of one job ``(predicate, ring, children, graphs)``, and its failing graph6 keys.

    ``graphs`` are adjacency masks, one graph per class; with ``children``
    their children are scanned instead, each seeded with its Euler
    characteristic and clique number when the predicate is in
    :data:`SEEDED`.  Only a failing graph is keyed.
    """
    name, ring, children, graphs = job
    if children and name in SEEDED:
        seeded = _grow_seeded(graphs)
    else:
        grown = (adj for adj, _ in _grow(graphs)) if children else graphs
        seeded = ((adj, None, None) for adj in grown)
    pred = PREDICATES[name]
    examined = applicable = passed = 0
    failing: list[str] = []
    for adj, euler, number in seeded:
        examined += 1
        g = Graph.numbered(adj)
        is_app, ok = pred(Analysis(g, euler, number), ring)
        if not is_app:
            continue
        applicable += 1
        if ok:
            passed += 1
        else:
            failing.append(_key_of(g.adj).decode("ascii"))
    return examined, applicable, passed, failing


def _scan_jobs(predicate: str, ring: str, max_vertices: int, chunks: int):
    """The jobs of a scan, one order after another, each split into up to ``chunks``.

    Every order below the top is built from the one before and scanned; the
    top order is streamed from the children of the order below.
    """

    def split(children, graphs):
        size = max(1, -(-len(graphs) // chunks))
        for i in range(0, len(graphs), size):
            yield predicate, ring, children, graphs[i:i + size]

    # A held order has at most CAPACITY - 1 = 8 vertices, so each adjacency mask
    # fits in a byte: each graph is held as one bytes string (bytes() raises on
    # a mask that does not fit).
    level = [b"\x00"]  # K1, the class of order 1
    yield from split(False, level)
    for _ in range(2, max_vertices):
        level = [bytes(grown) for grown, _ in _grow(level)]
        yield from split(False, level)
    if max_vertices > 1:
        yield from split(True, level)


def scan_property(
    predicate: str,
    max_vertices: int,
    ring: str = "Z",
    workers: int = 1,
) -> ScanReport:
    """Run a registered predicate over all connected graphs with <= max_vertices.

    Each order is generated from the labeled classes of the order below and
    scanned as it is generated; the top order is streamed, so its graphs are
    never collected, and only tied or failing graphs get a key.
    """
    ring = normalize_ring(ring)  # before any generation or pool
    if predicate not in PREDICATES:
        known = ", ".join(sorted(PREDICATES))
        raise DomainError(f"unknown predicate {predicate!r}; registered: {known}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    _check_order(max_vertices, "scan bound")
    # Each order in up to 8 chunks per worker; one worker takes each order whole.
    jobs = _scan_jobs(predicate, ring, max_vertices, 8 * workers if workers > 1 else 1)
    if workers > 1:
        # Imported here, so a process that scans on one worker never loads it.
        import multiprocessing

        # The lower orders are generated here before the pool takes the chunks.
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_scan, list(jobs))
    else:
        parts = [_scan(job) for job in jobs]
    examined = sum(p[0] for p in parts)
    applicable = sum(p[1] for p in parts)
    passed = sum(p[2] for p in parts)
    failing = sorted(x for p in parts for x in p[3])
    return ScanReport(
        predicate, ring, max_vertices, examined, applicable, passed, tuple(failing)
    )


def scan_dim_bound(max_vertices: int, ring: str = "Z", workers: int = 1) -> ScanReport:
    """The dimension-bound inequality over acyclic flag complexes, v <= max_vertices.

    Z-acyclicity is the default filter (it implies acyclicity over every
    field); pass a field ring to scan per-field instead.
    """
    return scan_property("acyclic_dim_bound", max_vertices, ring, workers)
