"""Independent oracles for the test suite.

Everything here recomputes results by a different route than the library:
permutation-based isomorphism, labeled brute-force graph counting, Fraction
Gaussian elimination for homology, gcd-of-minors for invariant factors,
homology of the full complex with no core reduction, vertex domination read
off the faces and the strong collapse by that face rule, a from-scratch
graph6 reader, a graph6 codec that shifts one integer per bit (the
reference for the library's column-wise codec), generation by extending
every class and deduplicating through one set per order, automorphism
groups and their orbits on vertex subsets from all n! permutations, greedy
collapse by rescanning every face at each step, the graded dimensions of the
exterior face ring modulo the vertex sum from ranks in the clique basis,
flag-complex faces from every vertex subset, induced-pattern search
that scans every vertex at each step, the canonical search with full
refinement passes and orbits rebuilt for every branch, maximum-cardinality
search that rescans every vertex per visit, the splits at cut vertices that
induce each piece and search its cut vertices again (the tree-of-Droms
decomposition, the structure derivation and its replay), the blocks as
the maximal cut-free vertex sets, and the Droms recursion, the ptolemaic
build and the cone/union replay that build a graph at every step.
Keep these free of bbraag internals beyond the public Graph accessors.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from typing import Generator, Optional

from bbraag.errors import CapacityError, DomainError, GraphParseError
from bbraag.graphs import (
    Graph,
    central_vertices,
    connected_components,
    cut_vertices,
    is_connected,
)
from bbraag.invariants import STRUCTURE_DEPTH_LIMIT, ConeStrip, FreeSplit
from bbraag.recognition import (
    BuildStep,
    DromsCone,
    DromsLeaf,
    DromsResult,
    DromsTreeDecomposition,
    DromsTreeNode,
    DromsUnion,
    ForbiddenWitness,
    PtolemaicSequence,
    find_induced,
)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    ga, ha = g.adj, h.adj
    n = g.n
    for p in permutations(range(n)):
        if all(
            ((ga[i] >> j) & 1) == ((ha[p[i]] >> p[j]) & 1)
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def labeled_graphs(n):
    """All 2^C(n,2) labeled graphs on vertices 0..n-1 as adjacency masks."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (bits >> k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield adj


def mask_connected(n, adj) -> bool:
    if n == 0:
        return False
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        for i in range(n):
            if (frontier >> i) & 1:
                grow |= adj[i]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def count_connected_classes(n) -> int:
    """Connected graphs on n vertices up to isomorphism, by brute classification."""
    reps = []
    for adj in labeled_graphs(n):
        if not mask_connected(n, adj):
            continue
        g = Graph.from_masks([str(i) for i in range(n)], adj)
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def fraction_rank(matrix) -> int:
    a = [[Fraction(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rational_reduced_betti(complex_) -> list[int]:
    """Reduced Betti numbers over Q by straight Fraction Gaussian elimination."""
    from bbraag.homology import boundary_matrix

    dim = complex_.dim
    if dim < 0:
        return []
    ranks = [fraction_rank(boundary_matrix(complex_, d)) for d in range(dim + 1)]
    ranks.append(0)
    return [
        complex_.face_count(i) - ranks[i] - ranks[i + 1] for i in range(dim + 1)
    ]


def modular_rank(matrix, p) -> int:
    """Rank over F_p by Gauss-Jordan elimination with an explicit inverse per pivot."""
    a = [[x % p for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = next(x for x in range(1, p) if a[rank][col] * x % p == 1)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def integer_diagonal(matrix) -> list[int]:
    """Absolute nonzero entries of a diagonal form reached by unimodular operations.

    Pivots on a smallest nonzero entry, reduces its row and column by
    division with remainder, and strikes both out once the remainders vanish.
    The entries need not divide each other; see :func:`invariant_factors`.
    """
    a = [list(row) for row in matrix]
    diag = []
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            return diag
        _, i, j = min(entries)
        p = a[i][j]
        clear = True
        for k in range(len(a)):
            if k != i and a[k][j]:
                q = a[k][j] // p
                a[k] = [x - q * y for x, y in zip(a[k], a[i])]
                clear = clear and not a[k][j]
        for k in range(len(a[i])):
            if k != j and a[i][k]:
                q = a[i][k] // p
                for row in a:
                    row[k] -= q * row[j]
                clear = clear and not a[i][k]
        if clear:
            diag.append(abs(p))
            del a[i]
            for row in a:
                del row[j]


def invariant_factors(diag) -> list[int]:
    """The divisibility chain d_1 | d_2 | ... of a diagonal form, by gcd/lcm exchanges."""
    d = list(diag)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def reference_homology(complex_, ring):
    """Reduced homology of the whole complex, with no core: ((free, torsion), ...) per degree.

    Over Z from :func:`integer_diagonal` of each full boundary matrix, over Q
    from :func:`fraction_rank`, over Fp:<p> from :func:`modular_rank`.
    """
    from bbraag.homology import boundary_matrix

    dim = complex_.dim
    ranks = []
    torsions = [()] * (dim + 2)
    for d in range(dim + 1):
        mat = boundary_matrix(complex_, d)
        if ring == "Z":
            diag = integer_diagonal(mat)
            ranks.append(len(diag))
            torsions[d] = tuple(f for f in invariant_factors(diag) if f > 1)
        elif ring == "Q":
            ranks.append(fraction_rank(mat))
        else:
            ranks.append(modular_rank(mat, int(ring[3:])))
    ranks.append(0)
    return tuple(
        (complex_.face_count(i) - ranks[i] - ranks[i + 1], torsions[i + 1])
        for i in range(dim + 1)
    )


def chi_matrix(g: Graph, cliques, size: int):
    """Left multiplication by the vertex sum, from the (size-1)-cliques to the size-cliques.

    ``cliques[k]`` lists the k-cliques as sorted vertex-index tuples; wedging
    vertex v onto a clique s is signed by the number of vertices of s below v.
    """
    target = {f: i for i, f in enumerate(cliques[size])}
    mat = [[0] * len(cliques[size - 1]) for _ in target]
    for col, s in enumerate(cliques[size - 1]):
        for v in range(g.n):
            if v in s or not all((g.adj[v] >> x) & 1 for x in s):
                continue
            sign = (-1) ** sum(1 for x in s if x < v)
            mat[target[tuple(sorted(s + (v,)))]][col] = sign
    return mat


def chi_quotient_dims(g: Graph, ring) -> list[int]:
    """Graded dimensions of the exterior face ring modulo the vertex sum, over Q or Fp:<p>.

    Degree k has the k-cliques, grown one vertex at a time from the empty
    clique, as basis; its dimension is the clique count minus the rank of
    :func:`chi_matrix` into it, by :func:`fraction_rank` or :func:`modular_rank`.
    """
    cliques = [[()]]
    while True:
        bigger = sorted({
            tuple(sorted(s + (v,)))
            for s in cliques[-1]
            for v in range(g.n)
            if v not in s and all((g.adj[v] >> x) & 1 for x in s)
        })
        if not bigger:
            break
        cliques.append(bigger)
    dims = [1]
    for size in range(1, len(cliques)):
        mat = chi_matrix(g, cliques, size)
        rank = fraction_rank(mat) if ring == "Q" else modular_rank(mat, int(ring[3:]))
        dims.append(len(cliques[size]) - rank)
    return dims


def hilbert_product(dims, h_u) -> list[int]:
    """Coefficients of h_A(-t) * h_U(t) up to the length of ``h_u``, with h_A from ``dims``."""
    return [
        sum((-1) ** j * dims[j] * h_u[k - j] for j in range(min(k + 1, len(dims))))
        for k in range(len(h_u))
    ]


def dominates(faces, u, v) -> bool:
    """Every face (a set of labels) containing v stays a face when u is added."""
    return all(f | {u} in faces for f in faces if v in f)


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _mask(face) -> int:
    return sum(1 << i for i in face)


def face_strong_collapse(c):
    """Delete dominated vertices, lowest index first, until none is dominated.

    The face rule, read off the facets of ``c`` (faces as index tuples into
    ``c.labels``), never off a graph: v is dominated by u != v when every
    facet containing v contains u, and the lowest such u is recorded.
    Returns the (removed, dominator) label pairs and the mask of the vertices
    left.
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
    return tuple(pairs), alive


def _dominated(facets: list[int], alive: int):
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


def _facets(c) -> list[int]:
    """The maximal faces of ``c`` as vertex bitmasks."""
    facets: list[int] = []
    covered: set[int] = set()
    for d in range(len(c.faces) - 1, -1, -1):
        below: set[int] = set()
        for face in c.faces[d]:
            mask = _mask(face)
            if mask not in covered:
                facets.append(mask)
            below.update(mask ^ (1 << i) for i in face)
        covered = below
    return facets


def seen_set_canonical_reps(max_n, canon_key):
    """{n: canonical graph6 keys of the connected n-vertex graphs, ascending} for n <= max_n.

    Every class of order n - 1 is extended by a new vertex over every
    nonempty neighbourhood, and all children of one order are deduplicated
    by their ``canon_key`` in one set.
    """
    from bbraag import _g6

    reps = {1: [_g6.encode(1, 0)]}
    for n in range(2, max_n + 1):
        seen = set()
        bit = 1 << (n - 1)
        for key in reps[n - 1]:
            _, adj = _g6.decode(key)
            for nbhd in range(1, bit):
                grown = [a | bit if nbhd >> i & 1 else a for i, a in enumerate(adj)]
                grown.append(nbhd)
                seen.add(_g6.encode(n, canon_key(n, grown)))
        reps[n] = sorted(seen)
    return reps


def reference_search(n: int, adj) -> tuple[int, list[tuple[int, ...]]]:
    """The pure canonical search as it was before incremental refinement.

    Returns the canonical key and the automorphisms found at equal-key
    leaves.  Every refinement pass tries every cell as a splitter and every
    orbit test rebuilds the orbits from scratch; the library's search must
    return the same key and the same automorphisms in the same order.
    """
    if n <= 1:
        return 0, []
    adj = tuple(adj)

    state = {"best": None, "perm": None}
    autos: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def refine(parts):
        parts = list(parts)
        while True:
            for splitter in list(parts):
                smask = 0
                for v in splitter:
                    smask |= 1 << v
                new_parts = []
                changed = False
                for cell in parts:
                    if len(cell) == 1:
                        new_parts.append(cell)
                        continue
                    groups: dict[int, list[int]] = {}
                    for v in cell:
                        groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                    if len(groups) == 1:
                        new_parts.append(cell)
                    else:
                        changed = True
                        for count in sorted(groups):
                            new_parts.append(tuple(groups[count]))
                parts = new_parts
                if changed:
                    break
            else:
                return parts

    def leaf_key(perm):
        key = 0
        for j in range(1, n):
            row = adj[perm[j]]
            for i in range(j):
                key = (key << 1) | ((row >> perm[i]) & 1)
        return key

    def orbit_blocked(v, tried):
        usable = [a for a in autos if all(a[p] == p for p in prefix)]
        if not usable:
            return False
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in usable:
            for x in range(n):
                rx, ry = find(x), find(a[x])
                if rx != ry:
                    parent[rx] = ry
        rv = find(v)
        return any(find(u) == rv for u in tried)

    def search(parts):
        parts = refine(parts)
        target = -1
        for idx, cell in enumerate(parts):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            perm = [cell[0] for cell in parts]
            key = leaf_key(perm)
            best = state["best"]
            if best is None or key < best:
                state["best"] = key
                state["perm"] = perm
            elif key == best:
                a = [0] * n
                bp = state["perm"]
                for i in range(n):
                    a[bp[i]] = perm[i]
                autos.append(tuple(a))
            return
        cell = parts[target]
        head = parts[:target]
        tail = parts[target + 1:]
        tried: list[int] = []
        for v in cell:
            if tried and orbit_blocked(v, tried):
                continue
            tried.append(v)
            child = head + [(v,), tuple(u for u in cell if u != v)] + tail
            prefix.append(v)
            search(child)
            prefix.pop()

    search([tuple(range(n))])
    return state["best"], autos


def brute_automorphisms(n, adj) -> list[tuple[int, ...]]:
    """Every permutation p of 0..n-1 (p[v] the image of v) that preserves ``adj``."""
    return [
        p
        for p in permutations(range(n))
        if all(((adj[i] >> j) & 1) == ((adj[p[i]] >> p[j]) & 1) for i in range(n) for j in range(i))
    ]


def subset_orbits(n, perms, closed=False) -> set[frozenset]:
    """Orbits on the vertex subsets 0 < t < 2^n of the group the permutations generate.

    With ``closed`` the permutations are the whole group and each orbit is
    read off directly; otherwise an orbit is closed under the generators by
    breadth-first search.  Subsets are mapped bit by bit.
    """

    def image(p, t):
        return sum(1 << p[i] for i in range(n) if t >> i & 1)

    orbits = set()
    placed = set()
    for t in range(1, 1 << n):
        if t in placed:
            continue
        if closed:
            orbit = {image(p, t) for p in perms}
        else:
            orbit, frontier = {t}, [t]
            while frontier:
                u = frontier.pop()
                for p in perms:
                    w = image(p, u)
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(w)
        placed |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def _proper_submasks(mask):
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def rescanning_collapse(complex_):
    """(collapsible, sequence, remaining) of greedy elementary collapses.

    Each step rescans every face for the free ones (contained in exactly one
    other face), removes the smallest by (size, labels) and scans every face
    again for its coface.
    """
    labels = complex_.labels

    def labels_of(mask):
        return tuple(labels[i] for i in range(len(labels)) if mask >> i & 1)

    faces = {sum(1 << i for i in f) for fs in complex_.faces for f in fs}
    over = {f: 0 for f in faces}
    for g in faces:
        for sub in _proper_submasks(g):
            if sub in over:
                over[sub] += 1
    sequence = []
    while True:
        free = [f for f in faces if over[f] == 1]
        if not free:
            break
        f = min(free, key=lambda m: (bin(m).count("1"), labels_of(m)))
        coface = next(
            g for g in faces
            if g != f and g & f == f and bin(g).count("1") == bin(f).count("1") + 1
        )
        for removed in (f, coface):
            faces.remove(removed)
            del over[removed]
            for sub in _proper_submasks(removed):
                if sub in over:
                    over[sub] -= 1
        sequence.append((labels_of(f), labels_of(coface)))
    remaining = tuple(sorted((labels_of(f) for f in faces), key=lambda t: (len(t), t)))
    return len(faces) == 1, tuple(sequence), remaining


def scanning_find_induced(g: Graph, pat: Graph):
    """Sorted labels of the first vertex map of ``g`` inducing ``pat``, or None.

    Backtracking that scans every vertex of ``g`` at each pattern position,
    in index order, and tests degree and adjacency one vertex at a time.
    """
    k, padj = pat.n, pat.adj
    if g.n < k:
        return None
    pdeg = [m.bit_count() for m in padj]
    gdeg = [m.bit_count() for m in g.adj]
    image = [-1] * k
    used = 0

    def extend(depth: int) -> bool:
        nonlocal used
        if depth == k:
            return True
        for c in range(g.n):
            if (used >> c) & 1 or gdeg[c] < pdeg[depth]:
                continue
            ok = True
            for j in range(depth):
                want = (padj[depth] >> j) & 1
                have = (g.adj[c] >> image[j]) & 1
                if want != have:
                    ok = False
                    break
            if ok:
                image[depth] = c
                used |= 1 << c
                if extend(depth + 1):
                    return True
                used &= ~(1 << c)
        return False

    if extend(0):
        return tuple(sorted(g.labels[i] for i in image))
    return None


def brute_flag_faces(g: Graph):
    """Faces of the flag complex of ``g`` by dimension: every vertex subset that
    is a clique, as sorted index tuples, sorted."""
    faces = []
    for size in range(1, g.n + 1):
        level = [
            sub for sub in combinations(range(g.n), size)
            if all(g.adj[a] >> b & 1 for a, b in combinations(sub, 2))
        ]
        if not level:
            break
        faces.append(tuple(sorted(level)))
    return tuple(faces)


def minor_gcd(matrix, k) -> int:
    """gcd of all k x k minors, by cofactor-expansion determinants."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    best = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            best = gcd(best, _det(sub))
    return best


def _det(a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(minor)
    return total


def decode_graph6_independent(text: str):
    """Second graph6 reader, written against the format description only.

    Returns (n, set of frozenset edges).  Row-major walk over an explicit bit
    list rather than the packed-integer arithmetic the library uses.
    """
    data = [ord(ch) - 63 for ch in text.strip()]
    assert all(0 <= x <= 63 for x in data), "byte out of graph6 range"
    if data[0] == 63:  # chr(126): long form
        if data[1] == 63:
            n = 0
            for x in data[2:8]:
                n = n * 64 + x
            body = data[8:]
        else:
            n = data[1] * 64 * 64 + data[2] * 64 + data[3]
            body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    bits = []
    for x in body:
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.add(frozenset((i, j)))
            k += 1
    assert all(b == 0 for b in bits[k:]), "nonzero padding"
    return n, edges


# The graph6 codec as it stood before the library moved to one masked column
# per vertex: one growing integer, shifted once per bit and once per 6-bit
# group.  Same signatures, outputs and errors as ``bbraag._g6``.


def reference_key_from_adj(n: int, adj) -> int:
    key = 0
    for j in range(1, n):
        row = adj[j]
        for i in range(j):
            key = (key << 1) | ((row >> i) & 1)
    return key


def reference_adj_from_key(n: int, key: int) -> list[int]:
    adj = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (key >> pos) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _reference_encode_size(n: int) -> bytes:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return bytes([126, 126] + [63 + ((n >> s) & 63) for s in range(30, -1, -6)])
    raise ValueError("vertex count exceeds graph6 range")


def reference_encode(n: int, key: int) -> bytes:
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    value = key << pad
    groups = bytearray(_reference_encode_size(n))
    for shift in range(nbits + pad - 6, -1, -6):
        groups.append(63 + ((value >> shift) & 63))
    return bytes(groups)


def reference_decode(data: bytes) -> tuple[int, list[int]]:
    if not data:
        raise GraphParseError("empty graph6 string", position=0)
    pos = 0
    if data[pos] == 126:
        if len(data) >= 2 and data[1] == 126:
            size_bytes, pos = data[2:8], 8
            want = 6
        else:
            size_bytes, pos = data[1:4], 4
            want = 3
        if len(size_bytes) != want:
            raise GraphParseError("truncated graph6 size", position=len(data))
        n = 0
        for b in size_bytes:
            if not 63 <= b <= 126:
                raise GraphParseError(f"invalid graph6 byte {b}", position=pos)
            n = (n << 6) | (b - 63)
    else:
        b = data[0]
        if not 63 <= b <= 126:
            raise GraphParseError(f"invalid graph6 byte {b}", position=0)
        n = b - 63
        pos = 1
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != ngroups:
        raise GraphParseError(
            f"graph6 body for {n} vertices needs {ngroups} bytes, got {len(body)}",
            position=pos,
        )
    value = 0
    for off, b in enumerate(body):
        if not 63 <= b <= 126:
            raise GraphParseError(f"invalid graph6 byte {b}", position=pos + off)
        value = (value << 6) | (b - 63)
    pad = ngroups * 6 - nbits
    if value & ((1 << pad) - 1):
        raise GraphParseError("nonzero graph6 padding bits", position=len(data) - 1)
    return n, reference_adj_from_key(n, value >> pad)


def scanning_mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality search visit order (indices); ties by smallest index.

    Rescans every vertex for the heaviest unvisited one at each visit.
    """
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


# -- splits at cut vertices, one induced piece at a time -----------------------
#
# The reference for the block-cut tree walks: every piece is induced and its
# cut vertices searched again at each split, and the blocks at a cut vertex
# are the components of the graph less that vertex.  The cut vertices of each
# piece come from the library's cut_vertices on that piece alone, which the
# tests check against networkx and the definition.  The recursive splits are
# generators run on an explicit stack by run_flat.


def run_flat(call: Generator):
    """Value of the recursive generator ``call``, run on an explicit stack.

    A recursive function written as a generator yields each nested call (a
    generator of the same kind) and is sent back its value, so a recursion
    as deep as a long path costs heap, not Python stack frames.
    """
    stack = [call]
    value = None
    while stack:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(call)
            value = None
    return value


@dataclass(frozen=True)
class BlockDecomposition:
    cut_vertex: str
    blocks: tuple[tuple[str, ...], ...]


def blocks_at(g: Graph, v: str) -> BlockDecomposition:
    """Split ``g`` at cut vertex ``v``: one block per component of ``g - v``."""
    if not is_connected(g):
        raise DomainError("blocks_at needs a connected graph")
    comps = connected_components(g.without(v))
    if len(comps) < 2:
        raise DomainError(f"{v!r} is not a cut vertex")
    return BlockDecomposition(v, tuple(tuple(sorted(c + (v,))) for c in comps))


def _decompose(g: Graph, nodes, edges, anchor: Optional[str]) -> Generator:
    """Recursive split; its value is the index of a node containing ``anchor``.

    Splits at the smallest cut vertex while one exists; a piece with no cut
    vertex becomes a tree node, whose certificate is None if it is not Droms.
    """
    cuts = cut_vertices(g)
    if not cuts:
        nodes.append(DromsTreeNode(tuple(sorted(g.labels)), rebuilding_is_droms(g).certificate))
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


def tree_of_droms_decomposition(g: Graph) -> Optional[DromsTreeDecomposition]:
    """The glued decomposition of a connected chordal graph, split piece by piece;
    None if one of its blocks is not Droms."""
    nodes: list = []
    edges: list = []
    run_flat(_decompose(g, nodes, edges, None))
    if any(node.certificate is None for node in nodes):
        return None
    return DromsTreeDecomposition(tuple(nodes), tuple(edges))


def rebuilding_is_droms(g: Graph) -> DromsResult:
    """The Droms recursion on a new induced graph per component and per cone."""
    if g.n == 0:
        return DromsResult(True, certificate=DromsUnion(()))
    if g.n == 1:
        return DromsResult(True, certificate=DromsLeaf(g.labels[0]))
    comps = connected_components(g)
    if len(comps) > 1:
        children = []
        for comp in comps:
            sub = rebuilding_is_droms(g.induced(comp))
            if not sub.droms:
                return sub
            children.append(sub.certificate)
        return DromsResult(True, certificate=DromsUnion(tuple(children)))
    centrals = central_vertices(g)
    if not centrals:
        for pattern in ("P4", "C4"):
            hit = find_induced(g, pattern)
            if hit is not None:
                return DromsResult(False, witness=ForbiddenWitness(pattern, hit))
        raise AssertionError("connected non-cone graph without induced P4 or C4")
    sub = rebuilding_is_droms(g.without(centrals[0]))
    if not sub.droms:
        return sub
    return DromsResult(True, certificate=DromsCone(centrals[0], sub.certificate))


def rebuilding_ptolemaic_build(g: Graph) -> Optional[PtolemaicSequence]:
    """The leaf/twin build of a connected chordal graph on a new induced graph
    per step; None if the build stalls."""
    steps = []
    while g.n > 1:
        step = _scanning_removable_step(g)
        if step is None:
            return None
        steps.append(step)
        g = g.without(step.vertex)
    return PtolemaicSequence(g.labels[0], tuple(reversed(steps)))


def _scanning_removable_step(g: Graph) -> Optional[BuildStep]:
    """The first leaf, then twin, then false twin in label order, with its first
    partner, by scanning every vertex pair."""
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
        for j in order:
            if j != i and not (row >> j) & 1 and g.adj[j] == row:
                return BuildStep("false_twin", g.labels[i], g.labels[j])
    return None


def rebuilding_replay_droms(cert) -> Graph:
    """A cone/union tree's graph, built node by node from its children's graphs."""
    if isinstance(cert, DromsLeaf):
        return Graph([cert.label])
    if isinstance(cert, DromsUnion):
        parts = [rebuilding_replay_droms(c) for c in cert.children]
        return Graph([v for p in parts for v in p.labels], [e for p in parts for e in p.edges()])
    child = rebuilding_replay_droms(cert.child)
    return Graph(
        list(child.labels) + [cert.apex],
        child.edges() + [(v, cert.apex) for v in child.labels],
    )


def _derive_structure(g: Graph, depth: int = 0) -> Generator:
    """Strip a central vertex if there is one, else split at the smallest cut vertex."""
    centrals = central_vertices(g)
    if centrals:
        return ConeStrip(centrals[0])
    if depth == STRUCTURE_DEPTH_LIMIT:
        raise CapacityError(
            f"structure derivation may not nest more than {STRUCTURE_DEPTH_LIMIT} splits"
        )
    cut = cut_vertices(g)[0]
    parts = []
    for b in blocks_at(g, cut).blocks:
        parts.append((yield _derive_structure(g.induced(b), depth + 1)))
    return FreeSplit(cut, tuple(parts))


def structure_derivation(g: Graph):
    """The cone-strip and split log of the structure graph, split piece by piece."""
    return run_flat(_derive_structure(g))


def replay_structure(g: Graph, derivation) -> Graph:
    """Re-run a derivation log against ``g``; must reproduce the claimed graph."""
    if isinstance(derivation, ConeStrip):
        if derivation.apex not in central_vertices(g):
            raise DomainError(f"replay: {derivation.apex!r} is not central")
        return g.without(derivation.apex)
    if derivation.cut not in cut_vertices(g):
        raise DomainError(f"replay: {derivation.cut!r} is not a cut vertex")
    blocks = blocks_at(g, derivation.cut).blocks
    if len(blocks) != len(derivation.parts):
        raise DomainError("replay: block count mismatch")
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    for k, (block, part) in enumerate(zip(blocks, derivation.parts)):
        piece = replay_structure(g.induced(block), part)
        piece = piece.relabeled({v: f"{k}:{v}" for v in piece.labels})
        labels.extend(piece.labels)
        edges.extend(piece.edges())
    return Graph(labels, edges)


def maximal_cut_free_sets(g: Graph) -> set[frozenset]:
    """The blocks by their definition: the maximal vertex sets of at least two
    vertices that induce a connected graph with no cut vertex, found among all
    2^n subsets (so keep n small)."""
    n, adj = g.n, g.adj

    def connected(mask):
        if not mask:
            return False
        seen = frontier = mask & -mask
        while frontier:
            grow = 0
            for i in range(n):
                if frontier >> i & 1:
                    grow |= adj[i] & mask
            frontier = grow & ~seen
            seen |= frontier
        return seen == mask

    conn = [connected(m) for m in range(1 << n)]
    good = [
        m.bit_count() >= 2 and conn[m]
        and all(conn[m & ~(1 << i)] for i in range(n) if m >> i & 1)
        for m in range(1 << n)
    ]
    # larger[m]: some proper superset of m is good; filled from the full set down
    larger = [False] * (1 << n)
    for m in range((1 << n) - 1, -1, -1):
        larger[m] = any(
            good[m | 1 << i] or larger[m | 1 << i] for i in range(n) if not m >> i & 1
        )
    return {
        frozenset(g.labels[i] for i in range(n) if m >> i & 1)
        for m in range(1 << n)
        if good[m] and not larger[m]
    }
