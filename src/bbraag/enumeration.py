"""Isomorph-free generation of small connected graphs and batch property scans.

Generation is canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  The deletion candidates T of a
connected graph C are the vertices w whose removal leaves C connected and
whose invariant (degree, then the sorted degrees of the neighbours) is
largest; the canonical parent of C is the C - w, w in T, with the smallest
canonical key.  Each (n-1)-vertex representative is extended by a new vertex
v over every nonempty neighbourhood, and a child is kept only when v is in T
and no w in T gives a smaller key than the parent's.  The rule reads only the
isomorphism class of C, so every connected n-vertex graph has exactly one
parent class, and no set spans parents.

Two prunings skip work whose result is already known.  An automorphism of
the parent extends to an isomorphism of the children over S and its image
that fixes v, so both get the same verdict and the same key: the
neighbourhoods are walked in ascending order and each orbit of the group
generated by the parent's automorphism generators is processed once, at its
smallest member (this holds for any subgroup too).  And a rival w that is a
twin of v in the child (equal neighbourhoods apart from each other) is never
tested: the swap of v and w is an automorphism of the child, so C - w is
isomorphic to C - v, the parent, and cannot have a smaller key.  The few
children of one parent that are isomorphic without being in one orbit still
meet in a set local to that parent.

Streams are ordered by canonical graph6 bytes, so scans are reproducible and
order-independent; a scan can fan out over a worker pool because its counts
merge associatively and the failing list is sorted at the end.  Each
predicate receives one :class:`~bbraag.invariants.Analysis` per graph, the
context the report uses.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterator

from . import _canon_py, _g6, kernel
from .errors import CapacityError, DomainError
from .graphs import Graph, _bits, _component_masks, blocks_at, cut_vertices, is_connected
from .homology import normalize_ring
from .invariants import INEQUALITIES, Analysis, koszul_hilbert_check, omega_identity_check
from .recognition import is_droms, is_tree_of_droms, replay_tree_of_droms

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
        out = [child for key in _canonical_reps(n - 1) for child in _canonical_children(key)]
        out.sort()
    _reps_cache[n] = out
    return out


def _canonical_children(parent: bytes) -> list[bytes]:
    """Canonical keys of the classes, one vertex larger, whose canonical parent is ``parent``."""
    m, adj = _g6.decode(parent)
    parent_key = _g6.key_from_adj(m, adj)
    deg = [a.bit_count() for a in adj]
    nbrs = [tuple(_bits(a)) for a in adj]
    # The child minus u is connected iff S meets every component of the parent minus u.
    full = (1 << m) - 1
    parts = [_component_masks(m, adj, full & ~(1 << u)) for u in range(m)]
    # A vertex that does not cut the parent does not cut the child once
    # |S| > 1, so one whose degree in the child exceeds |S| puts v out of T.
    # These masks reject most neighbourhoods before any per-vertex work.
    above = [0] * (m + 1)
    level = [0] * (m + 1)
    for u in range(m):
        if len(parts[u]) <= 1:
            for k in range(deg[u]):
                above[k] |= 1 << u
            level[deg[u]] |= 1 << u
    vertex = 1 << m
    images = [_subset_images(a, vertex) for a in _canon_py.automorphism_generators(m, adj)]
    seen = bytearray(vertex)
    kept: set[int] = set()
    for s in range(1, vertex):
        k = s.bit_count()
        if seen[s] or k > 1 and (above[k] or s & level[k]):
            continue
        # An automorphism of the parent, extended to fix v, maps the child
        # over S onto the child over its image: same verdict, same key.
        orbit = [s]
        seen[s] = 1
        for t in orbit:
            for img in images:
                if not seen[img[t]]:
                    seen[img[t]] = 1
                    orbit.append(img[t])
        rivals = _deletion_rivals(s, deg, nbrs, parts)
        if rivals is None:
            continue
        grown = [a | vertex if s >> u & 1 else a for u, a in enumerate(adj)]
        grown.append(s)
        # A twin w of v in the child gives C - w ≅ C - v, the parent itself.
        if any(
            grown[w] & ~vertex != s & ~(1 << w)
            and kernel.canon_key(m, _delete(grown, w)) < parent_key
            for w in rivals
        ):
            continue
        kept.add(kernel.canon_key(m + 1, grown))
    return [_g6.encode(m + 1, key) for key in kept]


def _deletion_rivals(s: int, deg, nbrs, parts) -> list[int] | None:
    """Parent vertices tied with the new vertex v (joined to ``s``) as deletion candidates.

    A candidate leaves the child connected; the candidates with the largest
    (degree, sorted neighbour degrees) form T.  None means v is not in T.
    """
    k = s.bit_count()
    dc = [d + (s >> u & 1) for u, d in enumerate(deg)]
    ties = [u for u, d in enumerate(dc) if d >= k and all(s & p for p in parts[u])]
    if any(dc[u] > k for u in ties):
        return None
    own = sorted(dc[u] for u in _bits(s))
    rivals = []
    for u in ties:
        theirs = sorted([dc[x] for x in nbrs[u]] + [k] * (s >> u & 1))
        if theirs > own:
            return None
        if theirs == own:
            rivals.append(u)
    return rivals


def _subset_images(perm: tuple[int, ...], size: int) -> list[int]:
    """``img[t]`` is the vertex subset ``t`` (a bitmask below ``size``) mapped by ``perm``."""
    img = [0] * size
    for t in range(1, size):
        low = t & -t
        img[t] = img[t ^ low] | 1 << perm[low.bit_length() - 1]
    return img


def _delete(adj: list[int], w: int) -> list[int]:
    """Adjacency masks with vertex ``w`` removed and the later vertices shifted down."""
    low = (1 << w) - 1
    return [(a & low) | ((a >> 1) & ~low) for i, a in enumerate(adj) if i != w]


def _graph_from_key(key: bytes) -> Graph:
    n, adj = _g6.decode(key)
    return Graph.from_masks((str(i) for i in range(n)), adj)


def _check_order(n: int, capacity: int, what: str) -> None:
    """A caller's capacity may lower the vertex bound but never raise it above CAPACITY."""
    if capacity > CAPACITY:
        raise CapacityError(f"capacity may not exceed {CAPACITY} vertices, got {capacity}")
    if not 1 <= n <= capacity:
        raise CapacityError(f"{what} must be within 1..{capacity}, got {n}")


def connected_graphs(n: int, capacity: int = CAPACITY) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    _check_order(n, capacity, "connected_graphs vertex count")
    for key in _canonical_reps(n):
        yield _graph_from_key(key)


def connected_graph_count(n: int, capacity: int = CAPACITY) -> int:
    _check_order(n, capacity, "connected_graphs vertex count")
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


def _every_block_droms(g: Graph) -> bool:
    """Connected, and each piece left after splitting at cut vertices is Droms.

    This is the definition of a tree of Droms graphs, decided without the
    chordal, gem and hbar tests that :func:`is_tree_of_droms` runs.
    """
    if not is_connected(g):
        return False
    cuts = cut_vertices(g)
    if not cuts:
        return is_droms(g).droms
    return all(_every_block_droms(g.induced(b)) for b in blocks_at(g, cuts[0]).blocks)


def _pred_tree_of_droms_equivalence(a: Analysis, ring: str) -> tuple[bool, bool]:
    """The block-wise definition must equal the constructive verdict, with replay."""
    res = a.tree_of_droms
    if _every_block_droms(a.graph) != res.tree_of_droms:
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


# -- scan machinery ------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
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
        return {
            "predicate": self.predicate,
            "ring": self.ring,
            "max_vertices": self.max_vertices,
            "examined": self.examined,
            "applicable": self.applicable,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failing": list(self.failing),
        }

    def to_text(self) -> str:
        lines = [
            f"predicate    {self.predicate}",
            f"ring         {self.ring}",
            f"max vertices {self.max_vertices}",
            f"examined     {self.examined}",
            f"applicable   {self.applicable}",
            f"passed       {self.passed}",
            f"failed       {self.failed}",
            f"skipped      {self.skipped}",
        ]
        if self.failing:
            lines.append("failing graphs (graph6):")
            lines.extend(f"  {g6}" for g6 in self.failing)
        return "\n".join(lines)


def _scan_chunk(args) -> tuple[int, int, int, list[str]]:
    name, ring, keys = args
    pred = PREDICATES[name]
    examined = applicable = passed = 0
    failing: list[str] = []
    for key in keys:
        examined += 1
        is_app, ok = pred(Analysis(_graph_from_key(key)), ring)
        if not is_app:
            continue
        applicable += 1
        if ok:
            passed += 1
        else:
            failing.append(key.decode("ascii"))
    return examined, applicable, passed, failing


def scan_property(
    predicate: str,
    max_vertices: int,
    ring: str = "Z",
    capacity: int = CAPACITY,
    workers: int = 1,
) -> ScanReport:
    """Run a registered predicate over all connected graphs with <= max_vertices."""
    ring = normalize_ring(ring)  # before any generation or pool
    if predicate not in PREDICATES:
        known = ", ".join(sorted(PREDICATES))
        raise DomainError(f"unknown predicate {predicate!r}; registered: {known}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    _check_order(max_vertices, capacity, "scan bound")
    keys: list[bytes] = []
    for n in range(1, max_vertices + 1):
        keys.extend(_canonical_reps(n))
    if workers > 1:
        chunk = max(1, len(keys) // (workers * 8))
        jobs = [
            (predicate, ring, keys[i:i + chunk]) for i in range(0, len(keys), chunk)
        ]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_scan_chunk, jobs)
    else:
        parts = [_scan_chunk((predicate, ring, keys))]
    examined = sum(p[0] for p in parts)
    applicable = sum(p[1] for p in parts)
    passed = sum(p[2] for p in parts)
    failing = sorted(x for p in parts for x in p[3])
    return ScanReport(
        predicate, ring, max_vertices, examined, applicable, passed, tuple(failing)
    )


def scan_dim_bound(
    max_vertices: int, ring: str = "Z", capacity: int = CAPACITY, workers: int = 1
) -> ScanReport:
    """The dimension-bound inequality over acyclic flag complexes, v <= max_vertices.

    Z-acyclicity is the default filter (it implies acyclicity over every
    field); pass a field ring to scan per-field instead.
    """
    return scan_property("acyclic_dim_bound", max_vertices, ring, capacity, workers)
