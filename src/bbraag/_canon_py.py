"""Pure-Python canonical labeling for small graphs.

Individualization-refinement search: refine the ordered partition to an
equitable one, branch on the first non-singleton cell, and keep the minimal
packed upper-triangle key (graph6 bit order) over the explored leaves.
Automorphisms discovered at equal-key leaves prune sibling branches, which
tames symmetric inputs (complete graphs, cycles) without a full nauty.

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


def automorphism_generators(n: int, adj) -> list[tuple[int, ...]]:
    """Automorphisms of ``adj`` that generate its whole automorphism group.

    Each is a tuple ``a`` with ``a[v]`` the image of vertex ``v``; none is
    the identity, and the list is empty when the group is trivial.  The search
    meets every automorphism as a leaf with the best key, either explored or
    inside a subtree pruned as the image of an explored one under the
    automorphisms already found, so the found ones generate the group.
    """
    return _search(n, adj)[1]


def _search(n: int, adj) -> tuple[int, list[tuple[int, ...]]]:
    """The canonical key and the automorphisms found at equal-key leaves."""
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
