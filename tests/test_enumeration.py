import hashlib
import random

import pytest

import bbraag.enumeration as enumeration
from bbraag import _canon_py, _g6, kernel
from bbraag.errors import CapacityError, DomainError
from bbraag.graphs import Graph, canonical_form, clique_euler, clique_number, is_connected
from bbraag.invariants import Analysis
from bbraag.enumeration import (
    PREDICATES,
    _canonical_reps,
    _scan,
    _children as enumerate_children,
    _grow as enumerate_grow,
    _grow_seeded as enumerate_grow_seeded,
    connected_graph_count,
    connected_graphs,
    scan_dim_bound,
    scan_property,
)

from oracles import count_connected_classes, mask_connected, seen_set_canonical_reps


def test_counts_against_labeled_oracle():
    # brute-force classification of all labeled graphs, n <= 5
    for n in range(1, 6):
        assert connected_graph_count(n) == count_connected_classes(n)


def test_known_counts():
    assert [connected_graph_count(n) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


@pytest.fixture(scope="module")
def seen_set_reps():
    from bbraag import _canon_py

    return seen_set_canonical_reps(7, _canon_py.canon_key)


@pytest.mark.parametrize("name", ["pure-python", "cython"])
def test_generation_matches_seen_set_oracle(name, seen_set_reps, monkeypatch):
    module = dict(kernel.available_backends()).get(name)
    if module is None:
        pytest.skip(f"the {name} kernel is not built in this environment")
    monkeypatch.setattr(enumeration, "_reps_cache", {})
    monkeypatch.setattr(kernel, "canon_key", module.canon_key)
    monkeypatch.setattr(kernel, "compare_key", kernel.backend_compare(module))
    for n in range(1, 8):
        assert _canonical_reps(n) == seen_set_reps[n], n


def assert_canonical_and_connected(n, keys):
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    for key in keys:
        order, adj = _g6.decode(key)
        assert order == n
        assert _g6.encode(n, kernel.canon_key(n, adj)) == key
        assert mask_connected(n, adj), key


def count_searches(monkeypatch):
    """Count the calls of every search entry point, kernel.canon_key, the rival
    comparison kernel.compare_key and the parent search
    _canon_py.canonical_search, in one counter."""
    calls = [0]

    def counting(real):
        def wrapper(*args):
            calls[0] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(kernel, "canon_key", counting(kernel.canon_key))
    monkeypatch.setattr(kernel, "compare_key", counting(kernel.compare_key))
    monkeypatch.setattr(_canon_py, "canonical_search", counting(_canon_py.canonical_search))
    return calls


def test_generation_kernel_budget_v8(monkeypatch):
    # Canonical deletion for n <= 8: 996 parent searches, 12,118 keys of
    # children and 1,769 rival comparisons; ranking the rivals by their
    # neighbour-degree sums before any comparison leaves 14,883 searches.
    enumeration._reps_cache.clear()
    calls = count_searches(monkeypatch)
    reps = {n: _canonical_reps(n) for n in range(1, 9)}
    assert calls[0] <= 14_883
    monkeypatch.undo()
    assert [len(reps[n]) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11_117]
    for n, keys in reps.items():
        assert_canonical_and_connected(n, keys)


# sha256 of b"\n".join(_canonical_reps(n)), from the generator before the
# one-search-per-parent walk.
REPS_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "bf158ea8c37a3ec7a9b1386892d1a29fd3bf86878fb29262e467775aba813399",
    5: "5de92424af99346fc74681d00325ca422296d37d362efa7b7c982b2dbfbdfde3",
    6: "866bd05423740958859b20b1a746819e1bb517ade79aca24b6690a9de8576eae",
    7: "164f509aa84aeb89ed6c6009c5349e8173aa2d45af1ba3dcc3205a5b9c3ddf88",
    8: "9c399dc9ca82ca18c2f0d8ccf4268ccaa2dacd7d301c21f4364d37e0b727ad6f",
    9: "06cf76d2b3df710e67a3398b7b4b5695b4e62b85572bb0a77dcf4428e5713258",
}


def reps_sha256(n):
    return hashlib.sha256(b"\n".join(_canonical_reps(n))).hexdigest()


def test_generation_output_pinned():
    for n in range(1, 9):
        assert reps_sha256(n) == REPS_SHA256[n], n


def test_children_are_one_per_class_of_the_next_order():
    # Untied children come without a key and must still be the only one of
    # their class; a tied child's key is its canonical key.
    for n in range(1, 8):
        keys = []
        for parent in _canonical_reps(n):
            for grown, key in enumerate_children(_g6.decode(parent)[1]):
                canonical = _g6.encode(n + 1, kernel.canon_key(n + 1, grown))
                assert key in (None, canonical)
                keys.append(canonical)
        assert len(set(keys)) == len(keys), n + 1
        assert sorted(keys) == _canonical_reps(n + 1), n + 1


def test_scan_kernel_budget_v8(monkeypatch):
    # Each class below the top order is searched once, as a parent (996).
    # A rival is compared with the parent only when its neighbour-degree sums
    # tie (1,783 comparisons, where keying every rival made 3,820), and only
    # the tied children whose invariants meet are keyed (22): 2,801 searches.
    monkeypatch.setattr(enumeration, "_reps_cache", {})
    calls = count_searches(monkeypatch)
    rep = scan_property("acyclic_dim_bound", 8)
    assert (rep.examined, rep.applicable, rep.failed) == (12_113, 4_294, 0)
    assert calls[0] <= 2_801


def held_orders(top):
    """The labeled classes of orders 1 to top - 1, built as a scan holds them."""
    levels = [[b"\x00"]]
    for _ in range(2, top):
        levels.append([bytes(grown) for grown, _ in enumerate_grow(levels[-1])])
    return levels


def seeded_children(top):
    """(order, adjacency masks, seeded Euler characteristic, seeded clique number)
    of every streamed child with 2 <= order <= top."""
    for n, parents in enumerate(held_orders(top), start=2):
        for grown, euler, number in enumerate_grow_seeded(parents):
            yield n, grown, euler, number


def test_seeded_children_match_whole_graph_walks():
    # chi(child) = chi(parent) + 1 - chi(Cl(S)) and omega(child) = max(omega(parent),
    # 1 + omega(S)), against the walk and the branch and bound on the whole child
    examined = 0
    for n, grown, euler, number in seeded_children(8):
        assert euler == clique_euler(grown, (1 << n) - 1), grown
        assert number == clique_number(Graph.numbered(grown)), grown
        examined += 1
    assert examined == sum(connected_graph_count(n) for n in range(2, 9))


def assert_seeded_acyclic_agrees(top, bottom=2):
    for n, grown, euler, number in seeded_children(top):
        if n < bottom:
            continue
        g = Graph.numbered(grown)
        seeded, unseeded = Analysis(g, euler, number), Analysis(g)
        for ring in ("Z", "Q", "Fp:2", "Fp:3"):
            assert seeded.acyclic(ring) == unseeded.acyclic(ring), (grown, ring)
        assert seeded.dim == unseeded.dim, grown


def test_seeded_acyclic_agrees_with_unseeded_v7():
    assert_seeded_acyclic_agrees(7)


@pytest.mark.slow
def test_seeded_acyclic_agrees_with_unseeded_v8():
    assert_seeded_acyclic_agrees(8, bottom=8)


def count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_dim_bound_scan_predicate_budget_v8(monkeypatch):
    # 7,280 of the 11,117 streamed graphs have a seeded Euler characteristic
    # other than 1 and are never dismantled, and every streamed graph's
    # dimension is its seeded clique number minus one; the 996 held graphs of
    # the lower orders are unseeded.  Unseeded, the scan made 12,113
    # dismantlings and 4,294 clique numbers.
    import bbraag.invariants as inv

    calls = count_calls(monkeypatch, inv, ("dismantle", "clique_number"))
    rep = scan_property("acyclic_dim_bound", 8)
    assert (rep.examined, rep.applicable, rep.failed) == (12_113, 4_294, 0)
    assert calls["dismantle"] <= 4_833
    assert calls["clique_number"] <= 496


def test_turan_scan_clique_number_budget_v8(monkeypatch):
    # only the 996 held graphs compute a clique number (12,113 unseeded)
    import bbraag.invariants as inv

    calls = count_calls(monkeypatch, inv, ("clique_number",))
    rep = scan_property("turan_nonneg", 8)
    assert (rep.examined, rep.applicable, rep.failed) == (12_113, 12_113, 0)
    assert calls["clique_number"] <= 996


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_seed_walks_only_for_predicates_that_read_them(name, monkeypatch):
    # A seeded scan walks each of the 21 parents of order 5 and each of the
    # 112 streamed children of order 6 once; the tree-of-Droms predicates read
    # neither seed and walk none.  Seeding every predicate changes no answer.
    calls = count_calls(monkeypatch, enumeration, ("clique_euler_number",))
    rep = scan_property(name, 6)
    if name in ("tree_of_droms_equivalence", "hereditary_tree_of_droms"):
        assert calls["clique_euler_number"] == 0
    else:
        assert calls["clique_euler_number"] == 21 + 112
    monkeypatch.setattr(enumeration, "SEEDED", frozenset(PREDICATES))
    assert scan_property(name, 6).to_json() == rep.to_json()


def test_half_sums_map_every_subset():
    # A subset's image under a permutation, and its sum of degrees, from two
    # tables of at most 2^ceil(m/2) entries.
    rng = random.Random(8)
    for m in range(1, 10):
        perm = list(range(m))
        rng.shuffle(perm)
        degrees = [rng.randrange(m) for _ in range(m)]
        split = (m + 1) // 2
        for values in ([1 << p for p in perm], degrees):
            low, high = enumeration._half_sums(values, split)
            assert len(low) == 1 << split and len(high) == 1 << (m - split)
            for t in range(1 << m):
                total = low[t & (1 << split) - 1] + high[t >> split]
                assert total == sum(values[i] for i in range(m) if t >> i & 1), (values, t)


def test_no_rival_test_for_a_twin_of_v(monkeypatch):
    # Deleting a twin w of the new vertex v leaves the parent itself, so its
    # key is known; every rival test is one call of _delete.
    deleted = []
    real = enumeration._delete

    def recording(adj, w):
        deleted.append((adj, w))
        return real(adj, w)

    monkeypatch.setattr(enumeration, "_delete", recording)
    for n in range(1, 7):
        for key in _canonical_reps(n):
            list(enumerate_children(_g6.decode(key)[1]))
    twins = [
        (adj, w) for adj, w in deleted
        if adj[w] & ~(1 << (len(adj) - 1)) == adj[-1] & ~(1 << w)
    ]
    assert len(deleted) > 100 and twins == []


@pytest.mark.slow
def test_nine_vertex_classes():
    keys = _canonical_reps(9)
    assert len(keys) == 261_080  # OEIS A001349
    assert_canonical_and_connected(9, keys)
    assert reps_sha256(9) == REPS_SHA256[9]


def test_capacity_bounds():
    with pytest.raises(CapacityError):
        connected_graph_count(10)
    with pytest.raises(CapacityError):
        list(connected_graphs(0))
    with pytest.raises(CapacityError):
        scan_property("turan_nonneg", 12)


def test_capacity_cannot_be_raised(monkeypatch):
    import bbraag.enumeration

    def no_generation(n):
        raise AssertionError("graphs generated before the capacity was checked")

    monkeypatch.setattr(bbraag.enumeration, "_canonical_reps", no_generation)
    monkeypatch.setattr(bbraag.enumeration, "_children", no_generation)
    with pytest.raises(CapacityError):
        connected_graph_count(10)
    with pytest.raises(CapacityError):
        list(connected_graphs(10))
    with pytest.raises(CapacityError):
        scan_dim_bound(10)
    with pytest.raises(CapacityError):
        scan_property("turan_nonneg", 10)


def test_stream_graphs_connected_and_distinct():
    seen = set()
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert g.n == n
            assert is_connected(g)
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)


def test_stream_order_deterministic():
    first = [canonical_form(g) for g in connected_graphs(6)]
    second = [canonical_form(g) for g in connected_graphs(6)]
    assert first == second == sorted(first)


def test_unknown_predicate():
    with pytest.raises(DomainError):
        scan_property("nope", 4)


def test_scan_report_invariants():
    rep = scan_property("chordal_implies_acyclic", 6)
    assert rep.examined == sum(connected_graph_count(n) for n in range(1, 7))
    assert rep.examined == rep.applicable + rep.skipped
    assert rep.failed == rep.applicable - rep.passed == len(rep.failing)
    assert rep.failed == 0


def test_scan_order_independence():
    # a permuted processing order must merge to the identical report
    items = [_g6.decode(key)[1] for n in range(1, 6) for key in _canonical_reps(n)]
    rng = random.Random(5)
    shuffled = items[:]
    rng.shuffle(shuffled)
    base = _scan(("turan_nonneg", "Z", False, items))
    cut = len(shuffled) // 3
    parts = [
        _scan(("turan_nonneg", "Z", False, shuffled[:cut])),
        _scan(("turan_nonneg", "Z", False, shuffled[cut:])),
    ]
    merged = tuple(sum(p[i] for p in parts) for i in range(3))
    assert merged == base[:3]
    assert sorted(x for p in parts for x in p[3]) == sorted(base[3])


def test_scan_workers_match_sequential():
    for v in range(1, 8):
        assert scan_dim_bound(v) == scan_dim_bound(v, workers=2), v


def reference_scan(name, max_v, ring="Z"):
    """Every class through _scan from its canonical key, in one job."""
    items = [_g6.decode(key)[1] for n in range(1, max_v + 1) for key in _canonical_reps(n)]
    examined, applicable, passed, failing = _scan((name, ring, False, items))
    return enumeration.ScanReport(
        name, ring, max_v, examined, applicable, passed, tuple(sorted(failing))
    )


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_streamed_scan_matches_reference(name):
    want = reference_scan(name, 7)
    for workers in (1, 2):
        assert scan_property(name, 7, workers=workers) == want, workers


def test_streamed_scan_fails_the_same_graphs(monkeypatch):
    # An isomorphism-invariant predicate that fails on about a third of the
    # graphs: the streamed top order must report each failing class by its
    # canonical key, in sorted order.
    def picky(a, ring):
        g = a.graph
        return g.edge_count % 4 != 1, sum(m.bit_count() ** 2 for m in g.adj) % 3 != 0

    monkeypatch.setitem(PREDICATES, "picky", picky)
    want = reference_scan("picky", 7)
    assert 0.25 < want.failed / want.examined < 0.4
    assert sum(_g6.decode(k.encode())[0] == 7 for k in want.failing) > 200
    for workers in (1, 2):
        assert scan_property("picky", 7, workers=workers) == want, workers


def test_scan_workers_bounded(monkeypatch):
    import multiprocessing

    import bbraag.enumeration as enumeration

    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    assert scan_dim_bound(4, workers=10**6) == scan_dim_bound(4)
    assert started == [3]
    for bad in (0, -2):
        with pytest.raises(DomainError):
            scan_dim_bound(4, workers=bad)
    assert started == [3]


def test_dim_bound_small():
    rep = scan_dim_bound(3)
    # K1, K2, P3, K3 all have contractible flag complexes
    assert rep.examined == 4
    assert rep.applicable == 4
    assert rep.failed == 0
    rep1 = scan_dim_bound(1)
    assert rep1.examined == rep1.applicable == rep1.passed == 1


def test_dim_bound_per_field_flag():
    z = scan_dim_bound(5, ring="Z")
    q = scan_dim_bound(5, ring="Q")
    f2 = scan_dim_bound(5, ring="Fp:2")
    assert z.failed == q.failed == f2.failed == 0
    # at this size no torsion exists, so the filters agree
    assert z.applicable == q.applicable == f2.applicable


def test_all_predicates_registered():
    assert set(PREDICATES) == {
        "acyclic_dim_bound",
        "turan_nonneg",
        "chordal_implies_acyclic",
        "tree_of_droms_equivalence",
        "omega_identity",
        "hilbert_consistency",
        "hereditary_tree_of_droms",
    }


def test_orbit_count_cross_check_n6():
    """Class list at n=6 validated by counting labeled graphs through orbits.

    Sum over representatives of 6!/|Aut| must equal the number of labeled
    connected graphs on 6 vertices, which is counted directly.
    """
    from itertools import permutations
    from math import factorial

    from oracles import labeled_graphs, mask_connected

    n = 6
    labeled = sum(1 for adj in labeled_graphs(n) if mask_connected(n, adj))
    total = 0
    for g in connected_graphs(n):
        adj = g.adj
        aut = 0
        for p in permutations(range(n)):
            if all(
                ((adj[i] >> j) & 1) == ((adj[p[i]] >> p[j]) & 1)
                for i in range(n)
                for j in range(i + 1, n)
            ):
                aut += 1
        total += factorial(n) // aut
    assert total == labeled


def test_every_predicate_runs_clean_small():
    # One vertex has no parent to stream from: its scan reads K1's key.
    for name in sorted(PREDICATES):
        for max_v, examined in ((1, 1), (4, 10)):
            rep = scan_property(name, max_v)
            assert rep.examined == examined
            assert rep.failed == 0, name


def test_chordal_acyclic_scan_v7():
    rep = scan_property("chordal_implies_acyclic", 7)
    assert rep.applicable == 354  # connected chordal graphs with <= 7 vertices
    assert rep.failed == 0


def test_block_definition_agrees_with_tree_of_droms_v7():
    """The block-wise verdict equals the pattern route: connected, chordal, no gem, no hbar."""
    from bbraag.recognition import find_induced, is_chordal, is_tree_of_droms

    members = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            verdict = is_tree_of_droms(g).tree_of_droms
            by_patterns = is_chordal(g).chordal and not (
                find_induced(g, "GEM") or find_induced(g, "HBAR")
            )
            assert by_patterns == verdict, g
            members += verdict
    assert members == 233


def test_members_skip_gem_and_hbar_search(monkeypatch):
    """The certificate decides membership; the pattern search only explains a "no"."""
    import bbraag.recognition as recognition
    from bbraag.patterns import complete_graph

    real_find = recognition.find_induced
    searched = []

    def recording_find(g, pattern):
        if pattern in ("GEM", "HBAR"):
            searched.append(pattern)
        return real_find(g, pattern)

    monkeypatch.setattr(recognition, "find_induced", recording_find)
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)] + [complete_graph(30)]
    verdicts = set()
    for g in graphs:
        for recognize, member in (
            (recognition.is_ptolemaic, "ptolemaic"),
            (recognition.is_tree_of_droms, "tree_of_droms"),
        ):
            searched.clear()
            res = recognize(g)
            verdict = getattr(res, member)
            verdicts.add((member, verdict, bool(searched)))
            assert not (verdict and searched), (member, g)
    # the hook sees the searches: non-members that are chordal reach them
    assert {("ptolemaic", False, True), ("tree_of_droms", False, True)} <= verdicts


def test_scan_ring_normalized():
    assert scan_property("turan_nonneg", 3, ring=" Z").ring == "Z"
    assert scan_property("acyclic_dim_bound", 3, ring="Fp:02").ring == "Fp:2"


def test_dim_bound_scan_builds_faces_only_when_euler_is_inconclusive(monkeypatch):
    """The scan builds flag complexes only for graphs whose core has several
    vertices and Euler characteristic 1.  Scanned graphs carry the labels of
    the generation walk, so the classes are compared by canonical form."""
    import bbraag.invariants as inv
    from bbraag.homology import flag_complex

    want = []
    for n in range(1, 8):
        for g in connected_graphs(n):
            c = flag_complex(g)
            if c.core.face_count(0) > 1 and c.euler_characteristic() == 1:
                want.append(canonical_form(g))
    built = []
    real = inv.flag_complex

    def recording(g, *rest):
        built.append(canonical_form(g))
        return real(g, *rest)

    monkeypatch.setattr(inv, "flag_complex", recording)
    rep = scan_property("acyclic_dim_bound", 7)
    assert (rep.examined, rep.applicable, rep.failed) == (996, 496, 0)
    assert want and sorted(built) == sorted(want)


def test_hereditary_scan_v7():
    rep = scan_property("hereditary_tree_of_droms", 7)
    assert rep.applicable == 233  # trees of Droms graphs with <= 7 vertices
    assert rep.failed == 0
