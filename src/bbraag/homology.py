"""Flag complexes and reduced simplicial homology over Z, Q, and F_p.

Faces are graded by dimension and carried as index tuples in the graph's
vertex order; boundary signs alternate over vertex deletions in that order.
Reduced homology uses the augmented chain complex, so degree 0 counts
components minus one and no degree is special-cased.  Homology in every ring
is computed on the core of the complex.  Each boundary of the core is
eliminated once, over Z, by sparse pivots into its invariant factors.  Every
ring reads its ranks off those factors; over F_p the rank counts the factors p
does not divide.

A flag complex takes its core from its graph: in the 1-skeleton, v is
dominated by u when N[v] lies inside N[u], so :func:`bbraag.graphs.dismantle`
finds the strong collapses of the complex without reading a face
(Barmak-Minian 2012), and the core is the full subcomplex on the vertices
left, with the certificate in ``dismantling.pairs``.  A complex that
:func:`flag_complex` did not build carries no dismantling and is its own
core: its homology, and :data:`HOMOLOGY_FACE_LIMIT`, go by the full complex.

:func:`flag_complex` makes the (k+1)-cliques from the k-cliques, each
extended in order by its common neighbours above its largest vertex, so every
dimension comes out sorted, with no set and no sort; it stops with
CapacityError before the face that would take it past
:data:`bbraag.graphs.CLIQUE_BUDGET` cliques exists.  :func:`collapse_to_point`
numbers every face once in (dimension, labels) order and collapses on those
integer ids: lists of codimension-1 ids, coface counts and XORs in arrays,
and a heap of ids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from math import gcd
from operator import index
from typing import Optional

from .errors import CapacityError, DomainError
from .formats import Result
from .graphs import Dismantling, Graph, _bits, _mask, clique_levels, dismantle

IntegerMatrix = list[list[int]]

# Largest entry magnitude that _elimination_factors lets an operation make.
ENTRY_LIMIT = 10**100
# Lines holding a unit entry that one pivot search of _elimination_factors reads
# before it takes the cheapest unit seen; a few lines pick nearly as well as all (Zlatev 1980).
_UNIT_LINES = 2
# Most faces in one dimension of a core whose homology is computed (ranks are cubic).
HOMOLOGY_FACE_LIMIT = 400


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
    """Faces per dimension, as sorted index tuples into ``labels``.

    A flag complex also carries its graph's ``dismantling``, which gives its
    core; equality ignores it.
    """

    labels: tuple[str, ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    dismantling: Optional[Dismantling] = field(default=None, compare=False, repr=False)

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
    def boundary_factors(self) -> tuple[tuple[int, ...], ...]:
        """Invariant factors of each boundary, degree 0 (the augmentation) to dim.

        Computed once per complex, so every ring reads its ranks off one elimination.
        """
        return tuple(_elimination_factors(_boundary_entries(self, d)) for d in range(self.dim + 1))

    @cached_property
    def core(self) -> SimplicialComplex:
        """The full subcomplex on what the dismantling left, else ``self``.

        Computed once per complex, so homology in every ring shares one core.
        A complex that carries no dismantling is its own core.
        """
        dismantling = self.dismantling
        if dismantling is None or not dismantling.pairs:
            return self
        return _full_subcomplex(self, dismantling.alive)


def flag_complex(g: Graph, core: Optional[Dismantling] = None) -> SimplicialComplex:
    """Clique complex of ``g``: d-faces are the (d+1)-cliques.

    Built level by level by :func:`bbraag.graphs.clique_levels`, whose order
    (lexicographic in the vertex indices) is already the sorted face order.
    The complex carries ``core``, the dismantling of ``g`` when the caller has
    it already, else one made here.
    """
    faces = tuple(map(tuple, clique_levels(g.n, g.adj)))
    return SimplicialComplex(g.labels, faces, dismantle(g) if core is None else core)


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


# -- exact linear algebra ---------------------------------------------------------


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors d_1 | d_2 | ... of an integer matrix."""

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(matrix: IntegerMatrix) -> SNFResult:
    """Invariant factors of ``matrix``, by :func:`_elimination_factors`."""
    return SNFResult(_elimination_factors(_matrix_entries(matrix)))


def rank_over_field(matrix: IntegerMatrix, ring: str) -> int:
    """Exact rank over Q or F_p, read off the invariant factors of ``matrix``."""
    tag = normalize_ring(ring)
    if tag == "Z":
        raise DomainError("rank_over_field needs a field; use smith_normal_form over Z")
    return _rank(_elimination_factors(_matrix_entries(matrix)), tag)


def _matrix_entries(matrix: IntegerMatrix) -> list[tuple[int, int, int]]:
    """(row, col, value) of each nonzero entry; DomainError on a ragged matrix or a non-integer entry."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise DomainError("ragged matrix")
    try:
        return [(i, j, x) for i, row in enumerate(matrix) for j, x in enumerate(map(index, row)) if x]
    except TypeError as e:
        raise DomainError(f"matrix entries must be integers: {str(e)[:80]}") from None


def _rank(factors: tuple[int, ...], tag: str) -> int:
    """Rank over ``tag`` of a matrix with these invariant factors.

    Over Z and Q it is their number; over F_p it counts those p does not
    divide, as U*M*V = D with U, V unimodular stays an equivalence mod p.
    """
    p = int(tag[3:]) if tag.startswith("Fp:") else 0
    return sum(1 for f in factors if not p or f % p)


def _elimination_factors(entries) -> tuple[int, ...]:
    """Invariant factors of the integer matrix with these (row, col, value) entries.

    Rows are dicts and each column keeps its set of rows.  A pivot is a unit
    entry of low Markowitz cost (|row| - 1) * (|col| - 1), searched in lines
    of increasing length (Duff-Reid) until no unseen entry can cost less or
    :data:`_UNIT_LINES` lines held a unit (Zlatev 1980); with no unit left,
    it is an entry of least magnitude (Dumas-Saunders-Villard 2001).  A
    search that finds no unit is not repeated until an entry of magnitude 1
    appears, which only a row operation or a ``y % p`` can make.  Row
    operations by ``divmod`` clear the pivot p's column but for remainders;
    once it is clear, column operations that change only p's row leave each
    entry y of it as y % p.  p is struck out when its row and column are
    clear, else it stays and a remainder smaller than |p| is the next pivot,
    so the loop ends.  The non-unit entries struck out become a divisibility
    chain by pairwise gcd and lcm.  Entries beyond :data:`ENTRY_LIMIT` raise
    CapacityError.
    """
    limit = ENTRY_LIMIT
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, x in entries:
        rows.setdefault(r, {})[c] = x
        cols.setdefault(c, set()).add(r)
    by_len: tuple[dict[int, set[int]], ...] = ({}, {})  # rows, then columns, by length
    for lines, buckets in zip((rows, cols), by_len):
        for i, line in lines.items():
            buckets.setdefault(len(line), set()).add(i)

    def move(side: int, i: int, old: int, new: int):
        if old:
            by_len[side][old].discard(i)
        if new:
            by_len[side].setdefault(new, set()).add(i)

    def unit_pivot() -> Optional[tuple[int, int]]:
        best, pivot, found = len(rows) * len(cols), None, 0
        for k in sorted(by_len[0].keys() | by_len[1].keys()):
            floor = (k - 1) ** 2  # no entry not yet seen has a row or a column shorter than k
            # the unit entries of each column of length k, then of each such row
            for units in chain(
                ([(r, c) for r in cols[c] if abs(rows[r][c]) == 1] for c in by_len[1].get(k, ())),
                ([(r, c) for c, x in rows[r].items() if abs(x) == 1] for r in by_len[0].get(k, ())),
            ):
                for r, c in units:
                    cost = (len(rows[r]) - 1) * (len(cols[c]) - 1)
                    if cost < best:
                        best, pivot = cost, (r, c)
                if best <= floor or units and (found := found + 1) == _UNIT_LINES:
                    return pivot
        return pivot

    def least_pivot() -> Optional[tuple[int, int]]:
        least = min(((abs(x), r, c) for r, row in rows.items() for c, x in row.items()), default=None)
        return least and least[1:]

    units, diagonal = 0, []
    # False once a unit search found none and no entry of magnitude 1 was made since
    unit_left = True
    while True:
        pivot = unit_pivot() if unit_left else None
        if pivot is None:
            unit_left = False
            if (pivot := least_pivot()) is None:
                break
        pr, pc = pivot
        prow, pcol = rows.pop(pr), cols.pop(pc)
        move(0, pr, len(prow), 0)
        move(1, pc, len(pcol), 0)
        p = prow.pop(pc)
        pcol.discard(pr)
        touched = {c: len(cols[c]) for c in prow}
        left = set()  # the rows that keep a remainder in p's column
        for r in pcol:
            row = rows[r]
            before = len(row)
            q, rest = divmod(row.pop(pc), p)
            for c, y in prow.items():
                x = row.pop(c, 0) - q * y
                if abs(x) > limit:
                    raise CapacityError(f"SNF entry magnitude exceeded {limit}")
                if x:
                    row[c] = x
                    cols[c].add(r)
                    if not unit_left and -2 < x < 2:
                        unit_left = True
                else:
                    cols[c].discard(r)
            if rest:
                row[pc] = rest
                left.add(r)
                unit_left = unit_left or -2 < rest < 2
            move(0, r, before, len(row))
        for c, length in touched.items():
            cols[c].discard(pr)
            move(1, c, length, len(cols[c]))
        if abs(p) == 1:
            units += 1
            continue
        if not left:
            prow = {c: y % p for c, y in prow.items() if y % p}
            if not prow:
                diagonal.append(abs(p))
                continue
            unit_left = unit_left or any(-2 < y < 2 for y in prow.values())
        # p stays, with its row and the remainders in its column
        for c in prow:
            move(1, c, len(cols[c]), len(cols[c]) + 1)
            cols[c].add(pr)
        prow[pc] = p
        rows[pr], cols[pc] = prow, left | {pr}
        move(0, pr, 0, len(prow))
        move(1, pc, 0, len(left) + 1)
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    return (1,) * units + tuple(diagonal)


# -- homology ----------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroups(Result):
    """Reduced homology per degree 0..dim: free rank plus torsion factors > 1."""

    ring: str
    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def free_rank(self, i: int) -> int:
        return self.groups[i][0] if 0 <= i < len(self.groups) else 0

    def torsion(self, i: int) -> tuple[int, ...]:
        return self.groups[i][1] if 0 <= i < len(self.groups) else ()

    def trivial(self) -> bool:
        """All reduced homology vanishes; the empty complex has it in degree -1."""
        return bool(self.groups) and all(r == 0 and not t for r, t in self.groups)

    def to_json(self):
        return {
            "ring": self.ring,
            "reduced": [
                {"degree": i, "free_rank": r, "torsion": list(t)}
                for i, (r, t) in enumerate(self.groups)
            ],
        }


def reduced_homology(c: SimplicialComplex, ring: str) -> HomologyGroups:
    """Reduced homology of ``c``, computed on ``c.core``.

    The core has the homotopy type of ``c`` but may have lower dimension, so
    the degrees above it are padded with zero groups up to ``c.dim``.  A core
    with more than :data:`HOMOLOGY_FACE_LIMIT` faces in one dimension raises
    CapacityError before any boundary matrix is built.
    """
    tag = normalize_ring(ring)
    full_dim = c.dim
    c = c.core
    dim = c.dim
    if any(len(fs) > HOMOLOGY_FACE_LIMIT for fs in c.faces):
        raise CapacityError(f"core has more than {HOMOLOGY_FACE_LIMIT} faces in a dimension")
    factors = c.boundary_factors
    ranks = [_rank(fs, tag) for fs in factors] + [0]
    groups = []
    for i in range(dim + 1):
        torsion = tuple(f for f in factors[i + 1] if f > 1) if tag == "Z" and i < dim else ()
        groups.append((c.face_count(i) - ranks[i] - ranks[i + 1], torsion))
    groups.extend([(0, ())] * (full_dim - dim))
    return HomologyGroups(tag, tuple(groups))


def is_acyclic(c: SimplicialComplex, ring: str) -> bool:
    """All reduced homology vanishes over the ring."""
    return reduced_homology(c, ring).trivial()


# -- collapsibility -----------------------------------------------------------------


@dataclass(frozen=True)
class CollapseResult(Result):
    collapsible: bool
    sequence: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    remaining: tuple[tuple[str, ...], ...]


def collapse_to_point(c: SimplicialComplex) -> CollapseResult:
    """Greedy elementary collapses, smallest (dimension, labels) free face first.

    COLLAPSIBLE certifies contractibility (hence simple connectivity); STUCK is
    inconclusive, so callers must not read it as a negative.  A face is free
    when exactly one face contains it, and that face is then f plus one
    vertex.  Conversely a face f with one codimension-1 coface g is free: a
    face above g would contain a second one.  So only those cofaces are
    counted, with their XOR, which is g itself while the count is 1.

    Faces are numbered once in (dimension, labels) order, so the order of
    the free faces is the order of their integer ids; labels are distinct,
    so no two faces tie.  Free face ids wait in a heap; an id whose face has
    been removed or has lost its coface since is skipped when popped.
    """
    labels_of = partial(map, c.labels.__getitem__)
    names: list[tuple[str, ...]] = []  # the labels of each face, by id
    below: list[list[int]] = []  # the ids of its codimension-1 faces
    ids: dict[int, int] = {}  # the ids of the previous dimension, by vertex mask
    for fs in c.faces:
        lower, ids = ids, {}
        for name, face in sorted(zip(map(tuple, map(labels_of, fs)), fs)):
            mask = _mask(face)
            ids[mask] = len(names)
            names.append(name)
            below.append([lower[mask ^ 1 << i] for i in face] if lower else [])
    up = [0] * len(names)
    co = [0] * len(names)
    for g, subs in enumerate(below):
        for s in subs:
            up[s] += 1
            co[s] ^= g
    heap = [f for f, count in enumerate(up) if count == 1]  # ascending, so a heap
    alive = bytearray(b"\x01") * len(names)
    sequence = []
    while heap:
        f = heapq.heappop(heap)
        if up[f] != 1:
            continue
        g = co[f]
        alive[f] = alive[g] = 0
        # Removing g takes f's count to 0.  No face above f but g, and none
        # above g, is left, so no face alive lies above a removed one.
        for removed in (g, f):
            for s in below[removed]:
                up[s] -= 1
                co[s] ^= removed
                if up[s] == 1:
                    heapq.heappush(heap, s)
        sequence.append((names[f], names[g]))
    remaining = tuple(name for name, kept in zip(names, alive) if kept)
    return CollapseResult(len(remaining) == 1, tuple(sequence), remaining)


def acyclic_over_z_fast(c: SimplicialComplex) -> bool:
    """Staged, exact test for Z-acyclicity of any complex, flag or not.

    The reduced Euler characteristic is a cheap necessary condition.  On a
    flag complex a core of one vertex is a sufficient certificate; a complex
    built by hand is its own core.  The integral homology of the core decides
    the rest.
    """
    if c.euler_characteristic() != 1:
        return False
    if c.core.face_count(0) == 1:
        return True
    return is_acyclic(c, "Z")
