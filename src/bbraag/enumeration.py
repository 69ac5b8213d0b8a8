"""Isomorph-free generation of small connected graphs and batch property scans.

Generation extends each (n-1)-vertex representative by a new vertex over all
nonempty neighborhood subsets and dedupes by canonical form, which reaches
every connected n-vertex graph exactly once.  Streams are ordered by canonical
graph6 bytes, so scans are reproducible and order-independent; a scan can
fan out over a worker pool because its counts merge associatively and the
failing list is sorted at the end.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterator

from . import _g6, kernel
from .errors import CapacityError, DomainError
from .graphs import Graph, _bits, clique_number, is_connected
from .homology import acyclic_over_z_fast, flag_complex, is_acyclic
from .invariants import _omega_raw, koszul_hilbert_check, omega_identity_check
from .recognition import find_induced, is_chordal, is_tree_of_droms, replay_tree_of_droms

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
        seen: set[bytes] = set()
        bit = 1 << (n - 1)
        for key in _canonical_reps(n - 1):
            _, adj = _g6.decode(key)
            for nbhd in range(1, bit):
                grown = list(adj) + [nbhd]
                for i in _bits(nbhd):
                    grown[i] |= bit
                seen.add(_g6.encode(n, kernel.canon_key(n, grown)))
        out = sorted(seen)
    _reps_cache[n] = out
    return out


def _graph_from_key(key: bytes) -> Graph:
    n, adj = _g6.decode(key)
    return Graph.from_masks((str(i) for i in range(n)), adj)


def connected_graphs(n: int, capacity: int = CAPACITY) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    if not 1 <= n <= capacity:
        raise CapacityError(f"connected_graphs supports 1..{capacity} vertices, got {n}")
    for key in _canonical_reps(n):
        yield _graph_from_key(key)


def connected_graph_count(n: int, capacity: int = CAPACITY) -> int:
    if not 1 <= n <= capacity:
        raise CapacityError(f"connected_graphs supports 1..{capacity} vertices, got {n}")
    return len(_canonical_reps(n))


# -- predicates ----------------------------------------------------------------------

Predicate = Callable[[Graph, str], tuple[bool, bool]]


def _pred_acyclic_dim_bound(g: Graph, ring: str) -> tuple[bool, bool]:
    """Applicable on acyclic flag complexes: n(v^2 - 2e - 1) >= (v - 1)^2."""
    c = flag_complex(g)
    if ring == "Z":
        acyclic = acyclic_over_z_fast(c)
    else:
        acyclic = is_acyclic(c, ring)
    if not acyclic:
        return False, True
    v, e, n = g.n, g.edge_count, c.dim
    return True, n * (v * v - 2 * e - 1) >= (v - 1) ** 2


def _pred_turan_nonneg(g: Graph, ring: str) -> tuple[bool, bool]:
    return True, _omega_raw(g.n, g.edge_count, clique_number(g)) >= 0


def _pred_chordal_implies_acyclic(g: Graph, ring: str) -> tuple[bool, bool]:
    if not is_chordal(g).chordal:
        return False, True
    c = flag_complex(g)
    return True, acyclic_over_z_fast(c) if ring == "Z" else is_acyclic(c, ring)


def _class_by_patterns(g: Graph) -> bool:
    return (
        is_chordal(g).chordal
        and find_induced(g, "GEM") is None
        and find_induced(g, "HBAR") is None
    )


def _pred_tree_of_droms_equivalence(g: Graph, ring: str) -> tuple[bool, bool]:
    """Forbidden-pattern membership must equal the constructive verdict, with replay."""
    by_patterns = _class_by_patterns(g)
    res = is_tree_of_droms(g)
    if by_patterns != res.tree_of_droms:
        return True, False
    if res.tree_of_droms and replay_tree_of_droms(res.decomposition) != g:
        return True, False
    return True, True


def _pred_omega_identity(g: Graph, ring: str) -> tuple[bool, bool]:
    check = omega_identity_check(g, ring if ring != "Z" else "Q")
    if not check.applicable:
        return False, True
    return True, bool(check.passed)


def _pred_hilbert_consistency(g: Graph, ring: str) -> tuple[bool, bool]:
    if not is_chordal(g).chordal:
        return False, True
    check = koszul_hilbert_check(g, 12, ring if ring != "Z" else "Q")
    return True, check.applicable and bool(check.passed)


def _pred_hereditary_tree_of_droms(g: Graph, ring: str) -> tuple[bool, bool]:
    if not is_tree_of_droms(g).tree_of_droms:
        return False, True
    verts = list(g.labels)
    for mask in range(1, 1 << g.n):
        sub = g.induced([verts[i] for i in _bits(mask)])
        if not is_connected(sub):
            continue
        if not is_tree_of_droms(sub).tree_of_droms:
            return True, False
    return True, True


PREDICATES: dict[str, Predicate] = {
    "acyclic_dim_bound": _pred_acyclic_dim_bound,
    "turan_nonneg": _pred_turan_nonneg,
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
        g = _graph_from_key(key)
        examined += 1
        is_app, ok = pred(g, ring)
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
    if predicate not in PREDICATES:
        known = ", ".join(sorted(PREDICATES))
        raise DomainError(f"unknown predicate {predicate!r}; registered: {known}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    if not 1 <= max_vertices <= capacity:
        raise CapacityError(
            f"scan bound must be within 1..{capacity}, got {max_vertices}"
        )
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
