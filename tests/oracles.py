"""Independent oracles for the test suite.

Everything here recomputes results by a different route than the library:
permutation-based isomorphism, labeled brute-force graph counting, Fraction
Gaussian elimination for homology, gcd-of-minors for invariant factors,
homology of the full complex with no core reduction, vertex domination read
off the faces, a from-scratch graph6 reader, generation by extending every
class and deduplicating through one set per order, and greedy collapse by
rescanning every face at each step.  Keep these free of bbraag
internals beyond the public Graph accessors.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from bbraag.graphs import Graph


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


def dominates(faces, u, v) -> bool:
    """Every face (a set of labels) containing v stays a face when u is added."""
    return all(f | {u} in faces for f in faces if v in f)


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
