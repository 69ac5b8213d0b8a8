"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every check is exact (integer or rational arithmetic); there are no
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines as they complete.
"""

import random
from itertools import combinations

from bbraag.graphs import Graph, canonical_form, clique_number, is_connected
from bbraag.formats import format_graph6, parse_graph6
from bbraag.homology import (
    boundary_matrix,
    flag_complex,
    reduced_homology,
    smith_normal_form,
)
from bbraag.invariants import (
    _omega_raw,
    bb_free,
    bb_structure_graph,
    invariant_report,
    koszul_hilbert_check,
    omega_identity_check,
)
from bbraag.patterns import gem_graph, overlapping_gems_graph, path_graph
from bbraag.recognition import (
    find_induced,
    is_chordal,
    is_tree_of_droms,
    replay_tree_of_droms,
)
from bbraag.enumeration import connected_graphs, scan_dim_bound

from oracles import chi_quotient_dims, hilbert_product, rational_reduced_betti


def _verdict(num: int, description: str, violations: list):
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {description}")
    assert not violations, violations[:10]


def test_acceptance_01_dimension_bound_scan_v8():
    report = scan_dim_bound(8, ring="Z")
    violations = []
    if report.examined != 12113:
        violations.append(f"examined {report.examined} != 12113 connected graphs")
    violations.extend(report.failing)
    _verdict(
        1,
        f"dimension-bound inequality holds for all {report.applicable} acyclic "
        f"flag complexes among {report.examined} connected graphs with v <= 8",
        violations,
    )


def test_acceptance_02_fixtures():
    violations = []
    gem = gem_graph()
    res = is_tree_of_droms(gem)
    if res.tree_of_droms or res.witness.pattern != "GEM" or set(res.witness.vertices) != set(gem.labels):
        violations.append(f"gem verdict wrong: {res}")
    hbar = overlapping_gems_graph()
    res = is_tree_of_droms(hbar)
    if res.tree_of_droms or res.witness.pattern != "HBAR" or set(res.witness.vertices) != set(hbar.labels):
        violations.append(f"overlapping-gems verdict wrong: {res}")
    if not reduced_homology(flag_complex(hbar), "Z").trivial():
        violations.append("flag complex of the overlapping-gems graph is not Z-acyclic")
    structure = bb_structure_graph(gem).graph
    if structure != path_graph(4, "abcd"):
        violations.append(f"structure graph of the gem is not its P4: {structure.edges()}")
    _verdict(2, "gem and overlapping-gems fixtures (verdicts, homology, structure)", violations)


def test_acceptance_03_tree_of_droms_verdict_equality_v7():
    violations = []
    total = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            total += 1
            by_patterns = (
                is_chordal(g).chordal
                and find_induced(g, "GEM") is None
                and find_induced(g, "HBAR") is None
            )
            res = is_tree_of_droms(g)
            if res.tree_of_droms != by_patterns:
                violations.append(format_graph6(g))
            elif res.tree_of_droms and replay_tree_of_droms(res.decomposition) != g:
                violations.append(f"replay mismatch {format_graph6(g)}")
    _verdict(
        3,
        f"forbidden-pattern class == constructive tree-of-Droms verdict with "
        f"replayable decomposition on all {total} connected graphs v <= 7",
        violations,
    )


def test_acceptance_04_fp_type_vs_rational_oracle_v7():
    from bbraag.invariants import fp_type

    violations = []
    total = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            total += 1
            betti = rational_reduced_betti(flag_complex(g))
            oracle = next((i for i, b in enumerate(betti) if b), None)
            if fp_type(g, "Q") != oracle:
                violations.append(format_graph6(g))
    _verdict(
        4,
        f"FP-type over Q matches the straight Gaussian-elimination oracle on all "
        f"{total} connected graphs v <= 7",
        violations,
    )


def test_acceptance_05_trees_free_of_rank_v_minus_1():
    violations = []
    trees = 0
    nontrees = 0
    for n in range(1, 9):
        for g in connected_graphs(n):
            free = bb_free(g)
            if g.edge_count == g.n - 1:
                trees += 1
                if not (free.free and free.rank == g.n - 1):
                    violations.append(f"tree not reported free: {format_graph6(g)}")
                    continue
                s = bb_structure_graph(g).graph
                if s.n != g.n - 1 or s.edge_count != 0:
                    violations.append(f"tree structure not isolated vertices: {format_graph6(g)}")
            else:
                nontrees += 1
                if free.free:
                    violations.append(f"non-tree reported free: {format_graph6(g)}")
    _verdict(
        5,
        f"all {trees} trees v <= 8 free of rank v-1 with v-1 isolated structure "
        f"vertices; all {nontrees} connected non-trees not free",
        violations,
    )


def test_acceptance_06_omega_identity_chordal_v7():
    violations = []
    total = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            if not is_chordal(g).chordal:
                continue
            total += 1
            res = omega_identity_check(g, "Q")
            if not (res.applicable and res.passed):
                violations.append(format_graph6(g))
    gem = omega_identity_check(gem_graph(), "Q")
    if (gem.lhs, gem.rhs) != (12, 12):
        violations.append(f"gem instance evaluates {gem.lhs} = {gem.rhs}, expected 12 = 12")
    _verdict(
        6,
        f"omega identity holds exactly on all {total} connected chordal graphs "
        f"v <= 7 (gem instance 12 = 12)",
        violations,
    )


def _graph_stats_all_graphs_up_to(max_v):
    """(v, e, clique number) for every graph class with <= max_v vertices,
    disconnected ones included, composed from connected representatives."""
    parts = []
    for n in range(1, max_v + 1):
        for g in connected_graphs(n):
            parts.append((n, g.edge_count, clique_number(g)))
    stats = []

    def extend(start, v, e, cd):
        for k in range(start, len(parts)):
            pv, pe, pcd = parts[k]
            if v + pv > max_v:
                continue
            stats.append((v + pv, e + pe, max(cd, pcd)))
            extend(k, v + pv, e + pe, max(cd, pcd))

    extend(0, 0, 0, 0)
    return stats


def test_acceptance_07_turan_nonnegative_v8():
    violations = []
    stats = _graph_stats_all_graphs_up_to(8)
    for v, e, cd in stats:
        if _omega_raw(v, e, cd) < 0:
            violations.append((v, e, cd))
    _verdict(
        7,
        f"omega of the RAAG object is nonnegative for all {len(stats)} graph "
        f"classes with v <= 8 (disconnected included)",
        violations,
    )


def test_acceptance_08_hilbert_consistency_chordal_v6():
    violations = []
    total = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            if not is_chordal(g).chordal:
                continue
            total += 1
            res = koszul_hilbert_check(g, 12, "Q")
            # the identity again with h_A from the chi-oracle, not the Betti numbers
            product = hilbert_product(chi_quotient_dims(g, "Q"), res.enveloping_series)
            if not (res.applicable and res.passed and product == [1] + [0] * 12):
                violations.append(format_graph6(g))
    _verdict(
        8,
        f"Hilbert-series identity to degree 12 on all {total} connected chordal "
        f"graphs v <= 6",
        violations,
    )


def test_acceptance_09_coherence_equals_chordality_v7():
    violations = []
    total = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            total += 1
            rep = invariant_report(g, rings=("Q",), degree_bound=2)
            if rep.coherent.coherent != is_chordal(g).chordal:
                violations.append(format_graph6(g))
    _verdict(
        9,
        f"coherence verdict equals chordality in the assembled report for all "
        f"{total} connected graphs v <= 7",
        violations,
    )


def test_acceptance_10_property_suites():
    violations = []
    rng = random.Random(2026)

    # SNF divisibility chains on random integer matrices
    for _ in range(200):
        m = rng.randint(1, 5)
        k = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)]
        factors = smith_normal_form(mat).factors
        for a, b in zip(factors, factors[1:]):
            if b % a:
                violations.append(("divisibility", mat, factors))

    # boundary-squared vanishes on every enumerated complex v <= 6
    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            for d in range(1, c.dim + 1):
                outer = boundary_matrix(c, d - 1)
                inner = boundary_matrix(c, d)
                for j in range(len(inner[0])):
                    for i in range(len(outer)):
                        if sum(outer[i][k] * inner[k][j] for k in range(len(inner))):
                            violations.append(("d_squared", format_graph6(g), d))

    # Euler characteristic balances the rational Betti numbers, v <= 6
    for n in range(1, 7):
        for g in connected_graphs(n):
            c = flag_complex(g)
            h = reduced_homology(c, "Q")
            alt = sum((-1) ** i * h.free_rank(i) for i in range(c.dim + 1))
            if c.euler_characteristic() - 1 != alt:
                violations.append(("euler", format_graph6(g)))

    # canonical form invariant under 1,000 random relabelings
    for _ in range(1000):
        n = rng.randint(1, 9)
        edges = [
            (str(i), str(j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < rng.choice((0.15, 0.5, 0.85))
        ]
        g = Graph([str(i) for i in range(n)], edges)
        order = list(range(n))
        rng.shuffle(order)
        mapping = {str(v): f"x{k}" for k, v in enumerate(order)}
        h = Graph([mapping[str(v)] for v in order], g.relabeled(mapping).edges())
        if canonical_form(g) != canonical_form(h):
            violations.append(("canonical", g.edges()))

    _verdict(
        10,
        "property suites: SNF divisibility, boundary-squared zero, Euler "
        "balance, canonical-form invariance under 1000 relabelings",
        violations,
    )
