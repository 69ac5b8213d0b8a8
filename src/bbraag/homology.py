"""Flag complexes and reduced simplicial homology over Z, Q, and F_p.

Faces are graded by dimension and carried as index tuples in the graph's
vertex order; boundary signs alternate over vertex deletions in that order.
Reduced homology uses the augmented chain complex, so degree 0 counts
components minus one and no degree is special-cased.  Homology in every ring
is computed on the strong-collapse core of the complex (dominated vertices
deleted, which keeps the homotopy type); integral homology then goes through
Smith normal form with a deterministic pivot rule, field homology through
exact rank computations (fraction-free over Q, modular over F_p, on packed
bit rows over F_2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import CapacityError, DomainError
from .graphs import Graph, _bits, _mask, clique_masks

IntegerMatrix = list[list[int]]

DEFAULT_ENTRY_LIMIT = 10**100


# -- rings ---------------------------------------------------------------------


# Miller-Rabin to these 13 bases is exact below the bound (Sorenson-Webster 2015).
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def normalize_ring(ring: str) -> str:
    """Canonical ring tag: "Z", "Q", or "Fp:<prime>" with ASCII decimal digits."""
    tag = ring.strip()
    if tag in ("Z", "Q"):
        return tag
    if tag.startswith("Fp:"):
        body = tag[3:]
        if not (body.isascii() and body.isdigit()):
            raise DomainError(f"bad finite-field tag {ring[:40]!r}")
        digits = body.lstrip("0") or "0"
        if len(digits) > len(str(MILLER_RABIN_BOUND)):
            raise CapacityError(f"primality is only decided below {MILLER_RABIN_BOUND}")
        if not _is_prime(int(digits)):
            raise DomainError(f"{digits} is not prime")
        return f"Fp:{digits}"
    raise DomainError(f"unknown ring {ring[:40]!r} (expected Z, Q, or Fp:<p>)")


def is_field(ring: str) -> bool:
    return normalize_ring(ring) != "Z"


def _is_prime(p: int) -> bool:
    """Exact: trial division by SMALL_PRIMES, then Miller-Rabin to those bases."""
    if p < 2 or any(p % q == 0 for q in SMALL_PRIMES):
        return p in SMALL_PRIMES
    if p >= MILLER_RABIN_BOUND:
        raise CapacityError(f"primality is only decided below {MILLER_RABIN_BOUND}, got {p}")
    odd = p - 1
    while odd % 2 == 0:
        odd //= 2
    for a in SMALL_PRIMES:
        e, x = odd, pow(a, odd, p)
        while e != p - 1 and x not in (1, p - 1):
            e, x = 2 * e, x * x % p
        if x != p - 1 and e != odd:
            return False
    return True


# -- complexes -----------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces per dimension, as sorted index tuples into ``labels``."""

    labels: tuple[str, ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def face_count(self, d: int) -> int:
        if 0 <= d <= self.dim:
            return len(self.faces[d])
        return 0

    def face_labels(self, d: int) -> list[tuple[str, ...]]:
        return [tuple(self.labels[i] for i in f) for f in self.faces[d]]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces))

    @cached_property
    def strong_collapse(self) -> StrongCollapse:
        """Computed once per complex, so homology in every ring shares one core."""
        return _strong_collapse(self)

    @property
    def core(self) -> SimplicialComplex:
        """The strong-collapse core: ``self`` when no vertex is dominated."""
        reduced = self.strong_collapse.reduced
        return self if reduced is None else reduced

    def to_json(self):
        return {
            "vertices": list(self.labels),
            "faces": [[list(f) for f in self.face_labels(d)] for d in range(self.dim + 1)],
        }


def flag_complex(g: Graph) -> SimplicialComplex:
    """Clique complex of ``g``: d-faces are the (d+1)-cliques."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for mask in clique_masks(g.n, g.adj):
        if mask == 0:
            continue
        face = tuple(_bits(mask))
        by_size.setdefault(len(face), []).append(face)
    if not by_size:
        return SimplicialComplex(g.labels, ())
    top = max(by_size)
    faces = tuple(tuple(sorted(by_size.get(k, []))) for k in range(1, top + 1))
    return SimplicialComplex(g.labels, faces)


@dataclass(frozen=True)
class StrongCollapse:
    """Dominated-vertex deletions, as a replayable certificate, and what they leave.

    Replayed in order, each ``(removed, dominator)`` pair is a strong collapse:
    in the complex left by the earlier pairs, every face containing
    ``removed`` stays a face when ``dominator`` is added to it.  ``reduced`` is
    the full subcomplex on the vertices that are left, or None when no vertex
    was dominated.
    """

    pairs: tuple[tuple[str, str], ...]
    reduced: Optional[SimplicialComplex]


def _strong_collapse(c: SimplicialComplex) -> StrongCollapse:
    """Delete dominated vertices, lowest index first, until none is dominated.

    Vertex v is dominated by u != v when every facet (maximal face) containing
    v contains u; the lowest such u is recorded.  Deleting v then keeps the
    homotopy type, hence homology over every ring (Barmak-Minian 2012).  The
    test reads the facets of ``c`` itself, so it holds on complexes that are
    not flag complexes, where N[v] in N[u] in the 1-skeleton does not suffice.
    """
    facets = _facets(c)
    alive = sum(1 << f[0] for f in c.faces[0]) if c.faces else 0
    pairs = []
    while (hit := _dominated(facets, alive)) is not None:
        v, u = hit
        pairs.append((c.labels[v], c.labels[u]))
        bit = 1 << v
        alive ^= bit
        # Facets without v stay maximal; no facet through v shrinks into another one
        # through v, so a shrunk facet is dropped only when a facet without v holds it.
        kept = [f for f in facets if not f & bit]
        facets = kept + [
            f ^ bit for f in facets if f & bit and all((f ^ bit) & ~g for g in kept)
        ]
    if not pairs:
        return StrongCollapse((), None)
    return StrongCollapse(tuple(pairs), _full_subcomplex(c, alive))


def _dominated(facets: list[int], alive: int) -> Optional[tuple[int, int]]:
    """The lowest dominated vertex and its lowest dominator, or None."""
    for v in _bits(alive):
        bit = 1 << v
        common = alive
        for f in facets:
            if f & bit:
                common &= f
        others = common ^ bit
        if others:
            return v, (others & -others).bit_length() - 1
    return None


def _facets(c: SimplicialComplex) -> list[int]:
    """The maximal faces of ``c`` as vertex bitmasks."""
    facets: list[int] = []
    covered: set[int] = set()
    for d in range(c.dim, -1, -1):
        below: set[int] = set()
        for face in c.faces[d]:
            mask = _mask(face)
            if mask not in covered:
                facets.append(mask)
            below.update(mask ^ (1 << i) for i in face)
        covered = below
    return facets


def _full_subcomplex(c: SimplicialComplex, alive: int) -> SimplicialComplex:
    """The faces of ``c`` on the vertices in ``alive``, reindexed in the same order."""
    keep = list(_bits(alive))
    index = {old: new for new, old in enumerate(keep)}
    faces = []
    for fs in c.faces:
        sub = tuple(tuple(index[i] for i in f) for f in fs if not _mask(f) & ~alive)
        if not sub:
            break
        faces.append(sub)
    return SimplicialComplex(tuple(c.labels[i] for i in keep), tuple(faces))


def _boundary_entries(c: SimplicialComplex, d: int):
    """(row, col, sign) of each nonzero entry of the degree-d boundary."""
    if d == 0:
        yield from ((0, col, 1) for col in range(c.face_count(0)))
        return
    rows = {f: i for i, f in enumerate(c.faces[d - 1])}
    for col, face in enumerate(c.faces[d]):
        for k in range(len(face)):
            yield rows[face[:k] + face[k + 1:]], col, -1 if k % 2 else 1


def boundary_matrix(c: SimplicialComplex, d: int) -> IntegerMatrix:
    """Boundary from d-chains to (d-1)-chains; d = 0 is the augmentation row."""
    if d < 0 or d > c.dim:
        raise DomainError(f"no boundary in degree {d}")
    mat = [[0] * c.face_count(d) for _ in range(c.face_count(d - 1) if d else 1)]
    for row, col, sign in _boundary_entries(c, d):
        mat[row][col] = sign
    return mat


def _boundary_bits(c: SimplicialComplex, d: int) -> list[int]:
    """The degree-d boundary over F_2 as row bitmasks, for :func:`_rank_gf2`."""
    rows = [0] * (c.face_count(d - 1) if d else 1)
    for row, col, _ in _boundary_entries(c, d):
        rows[row] |= 1 << col
    return rows


# -- exact linear algebra ---------------------------------------------------------


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors d_1 | d_2 | ... of an integer matrix."""

    factors: tuple[int, ...]
    left: Optional[tuple[tuple[int, ...], ...]] = None
    right: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(
    matrix: IntegerMatrix,
    with_transforms: bool = False,
    entry_limit: int = DEFAULT_ENTRY_LIMIT,
) -> SNFResult:
    """Deterministic SNF: pivot is the smallest nonzero magnitude, then position.

    With ``with_transforms`` the unimodular witnesses U, V with U*M*V = D are
    returned.  Intermediate entries beyond ``entry_limit`` raise CapacityError.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise DomainError("ragged matrix")
    u = [[int(i == j) for j in range(m)] for i in range(m)] if with_transforms else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if with_transforms else None

    def guard(x: int):
        if abs(x) > entry_limit:
            raise CapacityError(f"SNF entry magnitude exceeded {entry_limit}")

    def row_sub(i: int, k: int, q: int):
        ai, ak = a[i], a[k]
        for j in range(n):
            ai[j] -= q * ak[j]
            guard(ai[j])
        if u is not None:
            ui, uk = u[i], u[k]
            for j in range(m):
                ui[j] -= q * uk[j]

    def col_sub(j: int, k: int, q: int):
        for row in a:
            row[j] -= q * row[k]
            guard(row[j])
        if v is not None:
            for row in v:
                row[j] -= q * row[k]

    factors = []
    t = 0
    while True:
        pivot = None
        pmag = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (pmag is None or abs(x) < pmag):
                    pivot, pmag = (i, j), abs(x)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            if v is not None:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            restart = False
            for i in range(t + 1, m):
                if a[i][t] % a[t][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    a[t], a[i] = a[i], a[t]
                    if u is not None:
                        u[t], u[i] = u[i], u[t]
                    restart = True
                    break
            if restart:
                continue
            for i in range(t + 1, m):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, n):
                if a[t][j] % a[t][t]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    if v is not None:
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):
                a[t][j] += a[offender][j]
                guard(a[t][j])
            if u is not None:
                for j in range(m):
                    u[t][j] += u[offender][j]
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            if u is not None:
                for j in range(m):
                    u[t][j] = -u[t][j]
        factors.append(a[t][t])
        t += 1
    return SNFResult(
        tuple(factors),
        tuple(tuple(r) for r in u) if u is not None else None,
        tuple(tuple(r) for r in v) if v is not None else None,
    )


def rank_over_field(matrix: IntegerMatrix, ring: str) -> int:
    """Exact rank over Q (fraction-free elimination) or F_p (modular)."""
    tag = normalize_ring(ring)
    if tag == "Z":
        raise DomainError("rank_over_field needs a field; use smith_normal_form over Z")
    if tag == "Q":
        return _rank_bareiss(matrix)
    return _rank_mod_p(matrix, int(tag[3:]))


def _rank_bareiss(matrix: IntegerMatrix) -> int:
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n):
        if rank >= m:
            break
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pk = a[rank][col]
        for i in range(rank + 1, m):
            ai, ar = a[i], a[rank]
            aic = ai[col]
            for j in range(col + 1, n):
                ai[j] = (pk * ai[j] - aic * ar[j]) // prev
            ai[col] = 0
        prev = pk
        rank += 1
    return rank


def _rank_mod_p(matrix: IntegerMatrix, p: int) -> int:
    a = [[x % p for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        if rank >= m:
            break
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(rank + 1, m):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _rank_gf2(rows: list[int]) -> int:
    """Rank over F_2 of rows packed as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            lead = r.bit_length()
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = r
                rank += 1
                break
            r ^= other
    return rank


# -- homology ----------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroups:
    """Reduced homology per degree 0..dim: free rank plus torsion factors > 1."""

    ring: str
    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def free_rank(self, i: int) -> int:
        return self.groups[i][0] if 0 <= i < len(self.groups) else 0

    def torsion(self, i: int) -> tuple[int, ...]:
        return self.groups[i][1] if 0 <= i < len(self.groups) else ()

    def trivial(self) -> bool:
        return all(r == 0 and not t for r, t in self.groups)

    def to_json(self):
        return {
            "ring": self.ring,
            "reduced": [
                {"degree": i, "free_rank": r, "torsion": list(t)}
                for i, (r, t) in enumerate(self.groups)
            ],
        }


def reduced_homology(c: SimplicialComplex, ring: str) -> HomologyGroups:
    """Reduced homology of ``c``, computed on its strong-collapse core.

    The core has the homotopy type of ``c`` but may have lower dimension, so
    the degrees above it are padded with zero groups up to ``c.dim``.
    """
    tag = normalize_ring(ring)
    full_dim = c.dim
    c = c.core
    dim = c.dim
    ranks = []
    torsions: list[tuple[int, ...]] = [()] * (dim + 2)
    for d in range(dim + 1):
        if tag == "Z":
            snf = smith_normal_form(boundary_matrix(c, d))
            ranks.append(snf.rank)
            torsions[d] = tuple(f for f in snf.factors if f > 1)
        elif tag == "Fp:2":
            ranks.append(_rank_gf2(_boundary_bits(c, d)))
        else:
            ranks.append(rank_over_field(boundary_matrix(c, d), tag))
    ranks.append(0)
    groups = []
    for i in range(dim + 1):
        free = c.face_count(i) - ranks[i] - ranks[i + 1]
        groups.append((free, torsions[i + 1]))
    groups.extend([(0, ())] * (full_dim - dim))
    return HomologyGroups(tag, tuple(groups))


def is_acyclic(c: SimplicialComplex, ring: str) -> bool:
    """All reduced homology vanishes over the ring."""
    return reduced_homology(c, ring).trivial()


# -- collapsibility -----------------------------------------------------------------


@dataclass(frozen=True)
class CollapseResult:
    collapsible: bool
    sequence: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    remaining: tuple[tuple[str, ...], ...]

    def to_json(self):
        return {
            "collapsible": self.collapsible,
            "sequence": [[list(f), list(g)] for f, g in self.sequence],
            "remaining": [list(f) for f in self.remaining],
        }


def collapse_to_point(c: SimplicialComplex) -> CollapseResult:
    """Greedy elementary collapses, smallest (dimension, labels) free face first.

    COLLAPSIBLE certifies contractibility (hence simple connectivity); STUCK is
    inconclusive, so callers must not read it as a negative.  A face is free
    when exactly one face contains it, and that face is then f plus one
    vertex.  Free faces wait in a heap in the order above; an entry whose face
    has been removed or has lost its coface since is skipped when popped.
    """
    over: dict[int, int] = {_mask(f): 0 for fs in c.faces for f in fs}
    for g in list(over):
        for sub in _proper_submasks(g):
            if sub in over:
                over[sub] += 1

    def labels_of(mask: int):
        return tuple(c.labels[i] for i in _bits(mask))

    def entry(mask: int):
        return (mask.bit_count(), labels_of(mask), mask)

    heap = [entry(f) for f, count in over.items() if count == 1]
    heapq.heapify(heap)
    sequence = []
    while heap:
        _, labels, f = heapq.heappop(heap)
        if over.get(f) != 1:
            continue
        coface = next(g for g in (f | 1 << v for v in range(len(c.labels))) if g != f and g in over)
        for removed in (f, coface):
            del over[removed]
            for sub in _proper_submasks(removed):
                if sub in over:
                    over[sub] -= 1
                    if over[sub] == 1:
                        heapq.heappush(heap, entry(sub))
        sequence.append((labels, labels_of(coface)))
    remaining = tuple(sorted((labels_of(f) for f in over), key=lambda t: (len(t), t)))
    return CollapseResult(len(over) == 1, tuple(sequence), remaining)


def _proper_submasks(mask: int):
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def acyclic_over_z_fast(c: SimplicialComplex) -> bool:
    """Staged, exact test for Z-acyclicity (used by the scans and the Analysis).

    The reduced Euler characteristic is a cheap necessary condition, a
    strong-collapse core of one vertex a sufficient certificate, and the
    integral homology of the core decides the rest.
    """
    if c.euler_characteristic() != 1:
        return False
    if c.core.face_count(0) == 1:
        return True
    return is_acyclic(c, "Z")
