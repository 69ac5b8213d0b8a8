import random

import pytest

from bbraag import _canon_py, _g6, kernel
from bbraag.graphs import Graph, _bits, canonical_form
from bbraag.patterns import complete_graph, cycle_graph, path_graph, star_graph

from oracles import (
    brute_automorphisms,
    brute_isomorphic,
    labeled_graphs,
    reference_search,
    seen_set_canonical_reps,
    subset_orbits,
)


def random_graph(rng, n):
    edges = [
        (str(i), str(j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < rng.choice((0.2, 0.5, 0.8))
    ]
    return Graph([str(i) for i in range(n)], edges)


def shuffled_copy(rng, g):
    order = list(g.labels)
    rng.shuffle(order)
    mapping = {v: f"r{k}" for k, v in enumerate(order)}
    relabeled = g.relabeled(mapping)
    new_order = [mapping[v] for v in order]
    return Graph(new_order, relabeled.edges())


def test_relabeling_invariance():
    rng = random.Random(2024)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        assert canonical_form(g) == canonical_form(shuffled_copy(rng, g))


def test_distinct_for_nonisomorphic_examples():
    assert canonical_form(path_graph(4)) != canonical_form(
        Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
    )


def test_eleven_classes_on_four_vertices():
    keys = set()
    graphs = []
    for adj in labeled_graphs(4):
        g = Graph.from_masks([str(i) for i in range(4)], adj)
        graphs.append(g)
        keys.add(canonical_form(g))
    assert len(keys) == 11
    # equal canonical form must coincide with brute-force isomorphism
    rng = random.Random(3)
    sample = rng.sample(graphs, 16)
    for a in sample:
        for b in sample:
            assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)


def test_canonical_is_valid_graph6_of_isomorph():
    from bbraag.formats import parse_graph6

    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        rep = parse_graph6(canonical_form(g).decode("ascii"))
        assert brute_isomorphic(g, rep)


def test_symmetric_worst_cases():
    for g in (complete_graph(9), cycle_graph(9), complete_graph(4)):
        h = shuffled_copy(random.Random(1), g)
        assert canonical_form(g) == canonical_form(h)


@pytest.mark.parametrize(
    "name,module_name", [("pure-python", "bbraag._canon_py"), ("cython", "bbraag._canon_cy")]
)
def test_backends_match_reference(name, module_name):
    from bbraag import _canon_py

    module = dict(kernel.available_backends()).get(name)
    if module is None:
        pytest.skip(f"{module_name} is not built in this environment")

    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(0, 10)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        assert module.canon_key(n, tuple(adj)) == _canon_py.canon_key(n, tuple(adj))


@pytest.mark.parametrize("name", ["pure-python", "cython"])
def test_compare_key_sign(name):
    # compare_key(n, adj, bound) is the sign of canon_key(n, adj) - bound for
    # a bound that is a canonical key: the key itself, and the canonical keys
    # of the seeded graphs of the same order just below and just above it.
    # Any bound below the key is legal too, so key - 1 is tried as well.
    module = dict(kernel.available_backends()).get(name)
    if module is None:
        pytest.skip(f"the {name} kernel is not built in this environment")
    compare = kernel.backend_compare(module)
    rng = random.Random(41)
    by_order: dict[int, list[list[int]]] = {n: [] for n in range(11)}
    for _ in range(400):
        n = rng.randint(0, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        by_order[n].append(adj)
    for n in range(3, 11):
        by_order[n] += [list(complete_graph(n).adj), list(cycle_graph(n).adj)]
    signs = set()
    for n, graphs in by_order.items():
        keys = sorted({_canon_py.canon_key(n, adj) for adj in graphs})
        for adj in graphs:
            key = _canon_py.canon_key(n, adj)
            at = keys.index(key)
            bounds = [key, key - 1] + keys[max(at - 1, 0):at] + keys[at + 1:at + 2]
            for bound in bounds:
                sign = (key > bound) - (key < bound)
                assert compare(n, adj, bound) == sign, (n, adj, bound)
                signs.add(sign)
    assert signs == {-1, 0, 1}


def relabeled(rng, n, adj):
    p = list(range(n))
    rng.shuffle(p)
    out = [0] * n
    for i in range(n):
        out[p[i]] = sum(1 << p[j] for j in _bits(adj[i]))
    return out


def automorphism_cases():
    """Every connected graph on at most 6 vertices, randomly relabeled, plus K_m, C_m and stars."""
    rng = random.Random(5)
    reps = seen_set_canonical_reps(6, _canon_py.canon_key)
    for m in range(1, 7):
        for key in reps[m]:
            n, adj = _g6.decode(key)
            yield n, relabeled(rng, n, adj)
        yield m, complete_graph(m).adj
        yield m, star_graph(m - 1).adj
        if m >= 3:
            yield m, cycle_graph(m).adj


def test_automorphism_generators_against_brute_force():
    for n, adj in automorphism_cases():
        group = brute_automorphisms(n, adj)
        generators = _canon_py.canonical_search(n, adj)[1]
        assert set(generators) <= set(group) - {tuple(range(n))}
        assert subset_orbits(n, generators) == subset_orbits(n, group, closed=True), (n, adj)


def search_cases():
    """Every connected graph with v <= 7 three times relabeled, K_n and C_n for
    n <= 10, the empty and one-vertex graphs, and 300 seeded G(n, p)."""
    from bbraag.enumeration import _canonical_reps

    rng = random.Random(13)
    for m in range(1, 8):
        for key in _canonical_reps(m):
            n, adj = _g6.decode(key)
            for _ in range(3):
                yield n, relabeled(rng, n, adj)
    for m in range(0, 11):
        yield m, complete_graph(m).adj
        if m >= 3:
            yield m, cycle_graph(m).adj
    for _ in range(300):
        n = rng.randint(0, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        yield n, adj


def test_canonical_search_matches_frozen_reference():
    # Same key and the same automorphisms in the same order as the search
    # that tried every cell in every refinement pass.
    cases = 0
    for n, adj in search_cases():
        assert _canon_py.canonical_search(n, adj) == reference_search(n, adj), (n, adj)
        cases += 1
    assert cases == 3 * 996 + 11 + 8 + 300
