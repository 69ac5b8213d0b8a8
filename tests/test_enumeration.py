import random

import pytest

import bbraag.enumeration as enumeration
from bbraag import _g6, kernel
from bbraag.errors import CapacityError, DomainError
from bbraag.graphs import canonical_form, is_connected
from bbraag.enumeration import (
    PREDICATES,
    _scan_chunk,
    _canonical_reps,
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


def test_generation_kernel_budget_v8(monkeypatch):
    # Extending every class over every neighbourhood takes 116,146 calls for n <= 8.
    calls = 0
    real = kernel.canon_key

    def counting(n, adj):
        nonlocal calls
        calls += 1
        return real(n, adj)

    enumeration._reps_cache.clear()
    monkeypatch.setattr(kernel, "canon_key", counting)
    reps = {n: _canonical_reps(n) for n in range(1, 9)}
    assert calls <= 30_000
    monkeypatch.undo()
    assert [len(reps[n]) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11_117]
    for n, keys in reps.items():
        assert_canonical_and_connected(n, keys)


@pytest.mark.slow
def test_nine_vertex_classes():
    keys = _canonical_reps(9)
    assert len(keys) == 261_080  # OEIS A001349
    assert_canonical_and_connected(9, keys)


def test_capacity_bounds():
    with pytest.raises(CapacityError):
        connected_graph_count(10)
    with pytest.raises(CapacityError):
        list(connected_graphs(0))
    with pytest.raises(CapacityError):
        scan_property("turan_nonneg", 12)


def test_capacity_cannot_be_raised(monkeypatch):
    import bbraag.enumeration

    assert connected_graph_count(4, capacity=4) == 6

    def no_generation(n):
        raise AssertionError("graphs generated before the capacity was checked")

    monkeypatch.setattr(bbraag.enumeration, "_canonical_reps", no_generation)
    with pytest.raises(CapacityError):
        connected_graph_count(10, capacity=10)
    with pytest.raises(CapacityError):
        list(connected_graphs(3, capacity=12))
    with pytest.raises(CapacityError):
        scan_dim_bound(3, capacity=10)
    with pytest.raises(CapacityError):
        scan_property("turan_nonneg", 5, capacity=4)


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
    keys = []
    for n in range(1, 6):
        keys.extend(_canonical_reps(n))
    rng = random.Random(5)
    shuffled = keys[:]
    rng.shuffle(shuffled)
    base = _scan_chunk(("turan_nonneg", "Z", keys))
    cut = len(shuffled) // 3
    parts = [
        _scan_chunk(("turan_nonneg", "Z", shuffled[:cut])),
        _scan_chunk(("turan_nonneg", "Z", shuffled[cut:])),
    ]
    merged = tuple(sum(p[i] for p in parts) for i in range(3))
    assert merged == base[:3]
    assert sorted(x for p in parts for x in p[3]) == sorted(base[3])


def test_scan_workers_match_sequential():
    seq = scan_dim_bound(5)
    par = scan_dim_bound(5, workers=2)
    assert seq == par


def test_scan_workers_bounded(monkeypatch):
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
    monkeypatch.setattr(enumeration.multiprocessing, "Pool", RecordingPool)
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
    for name in sorted(PREDICATES):
        rep = scan_property(name, 4)
        assert rep.examined == 10
        assert rep.failed == 0, name


def test_chordal_acyclic_scan_v7():
    rep = scan_property("chordal_implies_acyclic", 7)
    assert rep.applicable == 354  # connected chordal graphs with <= 7 vertices
    assert rep.failed == 0


def test_block_definition_agrees_with_tree_of_droms_v7():
    from bbraag.enumeration import _every_block_droms
    from bbraag.recognition import is_tree_of_droms

    members = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            verdict = is_tree_of_droms(g).tree_of_droms
            assert _every_block_droms(g) == verdict, g
            members += verdict
    assert members == 233


def test_block_definition_skips_pattern_tests(monkeypatch):
    import bbraag.enumeration as enumeration
    import bbraag.recognition as recognition

    real_find = recognition.find_induced

    def no_chordality(g):
        raise AssertionError("is_chordal called")

    def droms_patterns_only(g, pattern):
        if pattern in ("GEM", "HBAR"):
            raise AssertionError(f"{pattern} search called")
        return real_find(g, pattern)

    for module in (recognition, enumeration):
        monkeypatch.setattr(module, "is_chordal", no_chordality, raising=False)
        monkeypatch.setattr(module, "find_induced", droms_patterns_only, raising=False)
    verdicts = {enumeration._every_block_droms(g) for n in range(1, 7) for g in connected_graphs(n)}
    assert verdicts == {True, False}


def test_scan_ring_normalized():
    assert scan_property("turan_nonneg", 3, ring=" Z").ring == "Z"
    assert scan_property("acyclic_dim_bound", 3, ring="Fp:02").ring == "Fp:2"


def test_hereditary_scan_v7():
    rep = scan_property("hereditary_tree_of_droms", 7)
    assert rep.applicable == 233  # trees of Droms graphs with <= 7 vertices
    assert rep.failed == 0
