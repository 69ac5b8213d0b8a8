"""Seeded inputs and independent output checks for the benchmark workloads.

Everything here runs in the benchmark's parent process and never imports
bbraag: the inputs are plain (labels, edges) lists and the checks recompute
what they need (clique counts) on their own.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

REPORT_RINGS = ("Z", "Q", "Fp:2")
DENSE_RINGS = ("Z", "Q", "Fp:2", "Fp:3")

SCAN_ARGV = ("scan", "acyclic_dim_bound", "--max-v", "8", "--ring", "Z",
             "--format", "json", "--workers", "1")
# Counts of the v <= 8 acyclic_dim_bound scan; they are the same on every seed.
SCAN_EXPECTED = {"examined": 12113, "applicable": 4294, "failed": 0, "failing": []}


def _labels(rng: random.Random, n: int) -> list[str]:
    """n distinct opaque labels in random order."""
    out: list[str] = []
    while len(out) < n:
        label = f"{rng.getrandbits(24):06x}"
        if label not in out:
            out.append(label)
    return out


def _gnm(rng: random.Random, name: str, n: int, percent: int) -> dict:
    """Uniform graph on n opaque labels with round(percent% of all pairs) edges."""
    labels = _labels(rng, n)
    pairs = list(combinations(range(n), 2))
    m = (len(pairs) * percent + 50) // 100
    edges = sorted(rng.sample(pairs, m))
    return {"name": name, "labels": labels, "edges": [[labels[a], labels[b]] for a, b in edges]}


def _fixed(name: str, n: int, adjacent) -> dict:
    labels = [f"{name}.{i}" for i in range(n)]
    edges = [[labels[a], labels[b]] for a, b in combinations(range(n), 2) if adjacent(a, b)]
    return {"name": name, "labels": labels, "edges": edges}


def report_inputs(seed: int, per_cell: int = 48) -> list[dict]:
    """per_cell graphs for each v in 4..10 and density in {30, 50, 70}%, shuffled.

    A fixed count per (v, density) cell keeps the mix, and so the cost of a
    pass, the same from seed to seed; sparse small cells are mostly
    disconnected.
    """
    rng = random.Random(f"report-mix/{seed}")
    graphs = [
        _gnm(rng, f"G({v},{pct}%)#{k}", v, pct)
        for v in range(4, 11)
        for pct in (30, 50, 70)
        for k in range(per_cell)
    ]
    rng.shuffle(graphs)
    return graphs


# Seed-independent complexes, with what the check knows about them.
def dense_fixed() -> list[dict]:
    return [
        _fixed("K9", 9, lambda a, b: True),
        _fixed("K10", 10, lambda a, b: True),
        # K_{2,2,2,2,2}: the boundary of the 5-dimensional cross-polytope, S^4.
        _fixed("cross5", 10, lambda a, b: b - a != 5),
        _fixed("coC10", 10, lambda a, b: b - a not in (1, 9)),
        _fixed("coC11", 11, lambda a, b: b - a not in (1, 10)),
    ]


def _typical(rng: random.Random, name: str, n: int, percent: int, draws: int = 9) -> dict:
    """Of ``draws`` uniform graphs of the cell, the one with the median clique count.

    Homology cost grows steeply with the number of faces, so one plain draw
    per slot would let the seed decide which complex is the median request.
    """
    graphs = [_gnm(rng, name, n, percent) for _ in range(draws)]
    return sorted(graphs, key=lambda g: sum(face_counts(g)))[draws // 2]


def dense_inputs(seed: int, per_cell: int = 3) -> list[dict]:
    """per_cell typical graphs for each v in {11, 12} and density in {70, 80}%, then the fixed set."""
    rng = random.Random(f"homology-dense/{seed}")
    graphs = [
        _typical(rng, f"G({v},{pct}%)#{k}", v, pct)
        for v in (11, 12)
        for pct in (70, 80)
        for k in range(per_cell)
    ]
    return graphs + dense_fixed()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- checks -------------------------------------------------------------------------------


def face_counts(graph: dict) -> list[int]:
    """Number of cliques of each size 1, 2, ... by plain extension, for the Euler check."""
    index = {v: i for i, v in enumerate(graph["labels"])}
    n = len(index)
    adj = [0] * n
    for a, b in graph["edges"]:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    counts: list[int] = []

    def extend(size: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            if len(counts) < size:
                counts.append(0)
            counts[size - 1] += 1
            extend(size + 1, candidates & adj[v])

    extend(1, (1 << n) - 1)
    return counts


def homology_problems(graph: dict, groups: dict) -> list[str]:
    """Ring-independent checks of reduced homology groups {ring: [[free, torsion], ...]}.

    * the reduced Euler characteristic of the clique counts equals the
      alternating sum of the Q Betti numbers;
    * the Z free ranks equal the Q ranks;
    * every F_p Betti number follows from Z by universal coefficients:
      b_i(F_p) = b_i(Q) + #(p-divisible torsion of H_i) + #(... of H_{i-1}).
    """
    problems = []
    faces = face_counts(graph)
    euler = -1 + sum((-1) ** d * f for d, f in enumerate(faces))
    q = [free for free, _ in groups["Q"]]
    if sum((-1) ** i * b for i, b in enumerate(q)) != euler:
        problems.append(f"Euler characteristic {euler} != alternating Q Betti sum of {q}")
    z = groups.get("Z")
    if z is not None:
        if [free for free, _ in z] != q:
            problems.append(f"Z free ranks {[f for f, _ in z]} != Q ranks {q}")
        for ring, hom in groups.items():
            if not ring.startswith("Fp:"):
                continue
            p = int(ring[3:])
            tors = [sum(1 for t in torsion if t % p == 0) for _, torsion in z]
            want = [q[i] + tors[i] + (tors[i - 1] if i else 0) for i in range(len(q))]
            got = [free for free, _ in hom]
            if got != want:
                problems.append(f"{ring} Betti {got} != universal-coefficient value {want}")
    return problems


def dense_problems(graph: dict, groups: dict, collapsible: bool, pinned: dict | None) -> list[str]:
    """Checks of one homology-dense request: the generic checks, known answers, pinned groups."""
    name = graph["name"]
    problems = homology_problems(graph, groups)
    if name in ("K9", "K10"):
        for ring, hom in groups.items():
            if any(free or torsion for free, torsion in hom):
                problems.append(f"{name} not acyclic over {ring}: {hom}")
        if not collapsible:
            problems.append(f"{name} did not collapse")
    elif name == "cross5":
        sphere = [[0, []]] * 4 + [[1, []]]
        for ring, hom in groups.items():
            if hom != sphere:
                problems.append(f"{name} over {ring} is {hom}, expected S^4")
    if pinned is not None and pinned != groups:
        problems.append(f"{name} groups {groups} != pinned {pinned}")
    return problems


def scan_problems(exit_code: int, output: str, expected: dict) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        scan = json.loads(output)["scan"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable scan output: {exc!r}"]
    return [
        f"{key} = {scan.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if scan.get(key) != want
    ]
