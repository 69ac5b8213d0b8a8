"""Pure-Python canonical labeling for small graphs.

Individualization-refinement search: refine the ordered partition to an
equitable one, branch on the first non-singleton cell, and keep the minimal
packed upper-triangle key (graph6 bit order) over the explored leaves.
Automorphisms discovered at equal-key leaves prune sibling branches, which
tames symmetric inputs (complete graphs, cycles) without a full nauty.
Refinement splits only with the cells that are new since the last equitable
partition, as nauty does (McKay and Piperno, "Practical graph isomorphism,
II", J. Symb. Comput. 60, 2014).

`bbraag._canon_cy` is the compiled twin; both must return identical keys.
"""

from __future__ import annotations

BACKEND = "pure-python"


def canon_key(n: int, adj) -> int:
    """Minimal graph6 upper-triangle key of ``adj`` over all vertex relabelings.

    ``adj`` is a sequence of ``n`` neighbor bitmasks.  Two graphs get equal
    keys iff they are isomorphic.
    """
    return _search(n, adj)[0]


def canonical_search(n: int, adj) -> tuple[int, list[tuple[int, ...]]]:
    """The key :func:`canon_key` returns and automorphisms generating the group of ``adj``.

    Each automorphism is a tuple ``a`` with ``a[v]`` the image of vertex
    ``v``; none is the identity, and the list is empty when the group is
    trivial.  The search meets every automorphism as a leaf with the best
    key, either explored or inside a subtree pruned as the image of an
    explored one under the automorphisms already found, so the found ones
    generate the group.
    """
    return _search(n, adj)


def compare_key(n: int, adj, bound: int) -> int:
    """The sign (-1, 0 or 1) of ``canon_key(n, adj) - bound``.

    ``bound`` must be the canonical key of some graph on ``n`` vertices.  The
    search stops at its first leaf whose key is at most ``bound``: a smaller
    leaf bounds the canonical key from above, and an equal one is a labeling
    of the graph whose canonical key ``bound`` is, so ``adj`` is isomorphic to
    that graph.
    """
    try:
        key = _search(n, adj, bound)[0]
    except _Settled as settled:
        return settled.sign
    return (key > bound) - (key < bound)


class _Settled(Exception):
    """Raised at the leaf that settles a :func:`compare_key`."""

    def __init__(self, sign: int):
        self.sign = sign


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _search(n: int, adj, bound: int = -1) -> tuple[int, list[tuple[int, ...]]]:
    """The canonical key and the automorphisms found at equal-key leaves.

    A leaf whose key is at most ``bound`` raises :class:`_Settled`.
    """
    if n <= 1:
        return 0, []
    adj = tuple(adj)

    state = {"best": None, "perm": None}
    autos: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def refine(parts, fresh):
        """The equitable refinement of ``parts``, trying only the cells marked in ``fresh``.

        A cell that splits no cell of a partition splits none of its
        refinements, so a cell is tried once, when it is new.  The first
        fresh cell that splits is then the first cell of the partition that
        splits, and every split is the one a pass over all cells would make.
        A discrete partition is equitable, so refinement stops there, and a
        pass that splits nothing builds no new partition.
        """
        i = 0
        while i < len(parts) < n:
            if not fresh[i]:
                i += 1
                continue
            fresh[i] = False
            smask = 0
            for v in parts[i]:
                smask |= 1 << v
            new_parts = None
            for j, cell in enumerate(parts):
                if len(cell) > 1:
                    groups: dict[int, list[int]] = {}
                    for v in cell:
                        groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                    if len(groups) > 1:
                        if new_parts is None:
                            new_parts, new_fresh = parts[:j], fresh[:j]
                        for count in sorted(groups):
                            new_parts.append(tuple(groups[count]))
                            new_fresh.append(True)
                        continue
                if new_parts is not None:
                    new_parts.append(cell)
                    new_fresh.append(fresh[j])
            if new_parts is not None:
                parts, fresh, i = new_parts, new_fresh, 0
        return parts

    def leaf_key(perm):
        key = 0
        for j in range(1, n):
            row = adj[perm[j]]
            for i in range(j):
                key = (key << 1) | ((row >> perm[i]) & 1)
        return key

    def search(parts, fresh):
        parts = refine(parts, fresh)
        target = -1
        for idx, cell in enumerate(parts):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            perm = [cell[0] for cell in parts]
            key = leaf_key(perm)
            if key <= bound:
                raise _Settled(-1 if key < bound else 0)
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
        # Below this node only (v,) is new.  The target cell was a cell of an
        # equitable partition, so a count to the rest of it is the count to
        # the whole cell minus the count to v: the rest splits a cell only
        # where (v,) does, which is tried first.
        child_fresh = [False] * (len(parts) + 1)
        child_fresh[target] = True
        # Orbits of the automorphisms found so far that fix the prefix,
        # merged in as ``autos`` grows.
        orbits = list(range(n))
        merged = 0
        tried: list[int] = []
        for at, v in enumerate(cell):
            if tried:
                for a in autos[merged:]:
                    if all(a[p] == p for p in prefix):
                        for x in range(n):
                            rx, ry = _find(orbits, x), _find(orbits, a[x])
                            if rx != ry:
                                orbits[rx] = ry
                merged = len(autos)
                rv = _find(orbits, v)
                if any(_find(orbits, u) == rv for u in tried):
                    continue
            tried.append(v)
            child = head + [(v,), cell[:at] + cell[at + 1:]] + tail
            prefix.append(v)
            search(child, child_fresh[:])
            prefix.pop()

    search([tuple(range(n))], [True])
    return state["best"], autos
