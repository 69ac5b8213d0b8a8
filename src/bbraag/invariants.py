"""Algebraic verdicts and numbers attached to a graph's RAAG and Bestvina-Brady
objects.

Everything here reads off the graph and its flag complex: homological
finiteness (FP-type per ring), coherence, freeness and abelianness of the
Bestvina-Brady object, the locally-RAAG verdict, a defining graph for the
Bestvina-Brady object when the structure theory applies, the omega invariant
with its identity and the related inequalities, and the graded cohomology
dimensions with the Koszul Hilbert-series consistency check.  All arithmetic
is exact integers; nothing here touches floating point.

Each per-graph function accepts a Graph or an :class:`Analysis`; functions
handed the same Analysis share its connectivity, flag complex, chordality,
homology, acyclicity and verdicts.  The report and the scans evaluate one
inequality table, :data:`INEQUALITIES`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Union

from ._record import cached
from .errors import CapacityError, DomainError, NotSupportedError
from .formats import Result, format_graph6, graph_json
from .graphs import (
    BlockCutTree,
    Dismantling,
    Graph,
    _bits,
    block_cut_tree,
    central_vertices,
    clique_euler,
    clique_number,
    dismantle,
    is_connected,
)
from .homology import (
    CollapseResult,
    HomologyGroups,
    SimplicialComplex,
    collapse_to_point,
    flag_complex,
    normalize_ring,
    reduced_homology,
)
from .recognition import (
    ChordalityResult,
    ForbiddenWitness,
    TreeOfDromsResult,
    is_chordal,
    is_tree_of_droms,
)

# -- shared per-graph context ----------------------------------------------------


class Analysis:
    """What one call derives from one graph, each part computed at most once.

    The library builds one per call and keeps none between calls.  Never look
    one up by Graph: face indices follow the vertex order, which Graph
    equality ignores.

    Acyclicity is decided on the dismantled graph (``core``), whose flag
    complex is the strong-collapse core of the full one: most graphs are
    settled by the core's size or its clique Euler characteristic before any
    face is built.  The flag complex, when it is built, reduces to that core.

    A caller that already knows the graph's Euler characteristic ``euler``
    or its clique number ``clique_size`` may hand them in, as a scan does
    from a child's parent; they must be the graph's own.  The seeded Euler
    characteristic settles most graphs before the graph is dismantled, and
    the seeded clique number is ``dim`` plus one.
    """

    def __init__(self, g: Graph, euler: Optional[int] = None, clique_size: Optional[int] = None):
        self.graph = g
        self._homology: dict[str, HomologyGroups] = {}
        self._euler = euler
        if clique_size is not None:
            self.dim = clique_size - 1

    @cached
    def complex(self) -> SimplicialComplex:
        """The flag complex, handed ``core`` so the graph is dismantled once."""
        return flag_complex(self.graph, self.core)

    @cached
    def core(self) -> Dismantling:
        return dismantle(self.graph)

    @cached
    def dim(self) -> int:
        """Dimension of the flag complex: the clique number minus one."""
        return clique_number(self.graph) - 1

    @cached
    def collapse(self) -> CollapseResult:
        return collapse_to_point(self.complex)

    @cached
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached
    def block_cut_tree(self) -> BlockCutTree:
        return block_cut_tree(self.graph)

    @cached
    def chordality(self) -> ChordalityResult:
        return is_chordal(self.graph)

    @cached
    def tree_of_droms(self) -> TreeOfDromsResult:
        """Handed the chordality, and the block-cut tree whenever the decomposition reads it."""
        tree = self.block_cut_tree if self.chordality.chordal and self.connected else None
        return is_tree_of_droms(self.graph, self.chordality, tree)

    def homology(self, ring: str) -> HomologyGroups:
        """Cached under the tag as given and its normal form, so a repeated tag is not parsed again."""
        hom = self._homology.get(ring)
        if hom is None:
            tag = normalize_ring(ring)
            if tag not in self._homology:
                self._homology[tag] = reduced_homology(self.complex, tag)
            hom = self._homology[ring] = self._homology[tag]
        return hom

    def acyclic(self, ring: str) -> bool:
        """Whether the reduced homology vanishes over the ring, decided on the core.

        The Euler characteristic is a homotopy invariant, and an acyclic
        complex has Euler characteristic 1.  So a seeded one other than 1
        settles the answer first, before the graph is dismantled.  Then a
        one-vertex core is contractible.  Without a seed the Euler
        characteristic of the core's cliques is tested next, and only a
        complex that passes both reaches homology.  The empty graph (Euler
        characteristic 0) is not acyclic.
        """
        if self._euler is not None and self._euler != 1:
            return False
        if self.core.alive.bit_count() == 1:
            return True
        if self._euler is None and self._core_euler != 1:
            return False
        return self.homology(ring).trivial()

    @cached
    def _core_euler(self) -> int:
        return clique_euler(self.graph.adj, self.core.alive)


GraphOrAnalysis = Union[Graph, Analysis]


def _analysis(g: GraphOrAnalysis) -> Analysis:
    return g if isinstance(g, Analysis) else Analysis(g)


# -- FP-type ---------------------------------------------------------------------


def fp_type(g: GraphOrAnalysis, ring: str = "Q") -> Optional[int]:
    """Largest n such that the flag complex is (n-1)-acyclic over the ring.

    ``None`` means FP_infinity (all reduced homology vanishes).  n = 0 means
    the Bestvina-Brady object is not even finitely generated (g disconnected).
    """
    hom = _analysis(g).homology(ring)
    for i, (free, torsion) in enumerate(hom.groups):
        if free or torsion:
            return i
    return None


def finitely_presented_lie(g: GraphOrAnalysis, ring: str) -> bool:
    """Exact over a field: FP_2 and finite presentation coincide for the Lie object."""
    fp = fp_type(g, ring)
    return fp is None or fp >= 2


def finitely_presented_group(g: GraphOrAnalysis) -> str:
    """Three-valued: YES via collapsibility, NO via nonzero integral H_1, else UNKNOWN.

    A one-vertex core is a strong collapse to a point, which is a sequence of
    elementary collapses.  A collapsible complex is contractible, hence
    Z-acyclic, so the greedy :func:`~bbraag.homology.collapse_to_point` is
    tried only when the integral homology vanishes; otherwise the answer is
    UNKNOWN without it.

    Simple connectivity of the flag complex is what finite presentation of the
    group needs, and that is not decided here in general.
    """
    a = _analysis(g)
    hom = a.homology("Z")
    if hom.free_rank(1) or hom.torsion(1):
        return "NO"
    if a.core.alive.bit_count() == 1 or hom.trivial() and a.collapse.collapsible:
        return "YES"
    return "UNKNOWN"


# -- coherence / freeness / abelianness ----------------------------------------------


class CoherenceResult(Result):
    coherent: bool
    chordality: ChordalityResult

    def to_json(self):
        out = {"coherent": self.coherent}
        if self.chordality.witness is not None:
            out["witness"] = self.chordality.witness.to_json()
        return out


def coherence(g: GraphOrAnalysis) -> CoherenceResult:
    """The Bestvina-Brady object is coherent exactly when the graph is chordal."""
    res = _analysis(g).chordality
    return CoherenceResult(res.chordal, res)


class BBFreeResult(Result):
    free: bool
    rank: Optional[int]
    reason: str


def bb_free(g: GraphOrAnalysis) -> BBFreeResult:
    """Free of rank v-1 exactly for trees."""
    a = _analysis(g)
    g = a.graph
    if not a.connected:
        return BBFreeResult(False, None, "disconnected: not finitely generated")
    if g.edge_count == g.n - 1:
        return BBFreeResult(True, g.n - 1, "tree")
    if a.dim >= 2:
        return BBFreeResult(False, None, "contains a triangle: cohomological dimension >= 2")
    return BBFreeResult(False, None, "contains an induced cycle: not finitely presented subobject")


class BBAbelianResult(Result):
    abelian: bool
    rank: Optional[int]


def bb_abelian(g: GraphOrAnalysis) -> BBAbelianResult:
    """Abelian of rank v-1 exactly for complete graphs; needs g connected."""
    a = _analysis(g)
    g = a.graph
    if not a.connected:
        raise DomainError("bb_abelian needs a connected graph")
    if g.edge_count == g.n * (g.n - 1) // 2:
        return BBAbelianResult(True, g.n - 1)
    return BBAbelianResult(False, None)


class SubgroupsRaagResult(Result):
    """Whether every subgroup of the Bestvina-Brady group is again a RAAG."""

    holds: bool
    decomposition: Optional[object]
    witness: Optional[ForbiddenWitness]
    explanation: str

    def to_json(self):
        out = {"holds": self.holds, "explanation": self.explanation}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.to_json()
        return out


def subgroups_raag(g: GraphOrAnalysis) -> SubgroupsRaagResult:
    a = _analysis(g)
    if not a.connected:
        raise DomainError("subgroups_raag needs a connected graph")
    res = a.tree_of_droms
    if res.tree_of_droms:
        text = (
            "tree of Droms graphs: every subgroup of the Bestvina-Brady group is a "
            "RAAG, the Bestvina-Brady object is Bloch-Kato and locally Droms"
        )
        return SubgroupsRaagResult(True, res.decomposition, None, text)
    text = (
        f"obstruction {res.witness.pattern} on {list(res.witness.vertices)}: some "
        "subgroup of the Bestvina-Brady group is not a RAAG"
    )
    return SubgroupsRaagResult(False, None, res.witness, text)


# -- structure graph -------------------------------------------------------------------

# Deepest nesting of splits in a structure derivation; deriving it takes one
# stack frame per split and rendering its JSON two (P_500 nests 400).
STRUCTURE_DEPTH_LIMIT = 400


class ConeStrip(Result):
    apex: str

    def to_json(self):
        return {"op": "cone_strip", "apex": self.apex}


class FreeSplit(Result):
    cut: str
    parts: tuple["Derivation", ...]

    def to_json(self):
        return {"op": "split", "cut": self.cut, "parts": [p.to_json() for p in self.parts]}


Derivation = Union[ConeStrip, FreeSplit]


class StructureGraph(Result):
    """Defining graph of a RAAG isomorphic to the Bestvina-Brady object."""

    graph: Graph
    derivation: Derivation

    def to_json(self):
        out = graph_json(self.graph, format_graph6(self.graph))
        out["derivation"] = self.derivation.to_json()
        return out


def bb_structure_graph(g: GraphOrAnalysis) -> StructureGraph:
    """Cone strips and free-product splits down to a RAAG defining graph.

    A cone over any graph H has Bestvina-Brady object the RAAG on H, so a
    central vertex resolves the graph in one step.  At a cut vertex of a tree
    of Droms graphs the object splits as a free product over the blocks; the
    split renames block vertices with an index prefix because blocks share the
    cut vertex.  Anything else is refused rather than guessed.  Blocks of a
    tree of Droms graphs are again trees of Droms graphs, so the verdict is
    checked once, at the top, and the graph is built by replaying the log.
    """
    a = _analysis(g)
    g = a.graph
    if not a.connected:
        raise DomainError("bb_structure_graph needs a nonempty connected graph")
    if not central_vertices(g) and not a.tree_of_droms.tree_of_droms:
        witness = a.tree_of_droms.witness
        raise NotSupportedError(
            "no central vertex and not a tree of Droms graphs "
            f"(obstruction {witness.pattern} on {list(witness.vertices)})"
        )
    tree = a.block_cut_tree
    derivation = _derive_structure(tree, tree.whole, tree.cuts)
    return StructureGraph(replay_structure(a, derivation), derivation)


def _derive_structure(tree: BlockCutTree, piece: int, cuts: int, depth: int = 0) -> Derivation:
    """Strip a central vertex if there is one, else split at the smallest cut vertex.

    ``piece`` is a mask of ``tree`` and ``cuts`` its cut vertices.  This and
    the JSON rendering of the log recurse once per nested split, so a split
    nested deeper than :data:`STRUCTURE_DEPTH_LIMIT` raises CapacityError.
    """
    # a central vertex of a piece with cut vertices is its one cut vertex
    for r in _bits(0 if cuts & (cuts - 1) else cuts or piece):
        if piece & ~tree.adj[r] == 1 << r:
            return ConeStrip(tree.labels[r])
    if depth == STRUCTURE_DEPTH_LIMIT:
        raise CapacityError(
            f"structure derivation may not nest more than {STRUCTURE_DEPTH_LIMIT} splits"
        )
    v = cuts & -cuts
    parts = []
    for part in tree.parts(piece, v.bit_length() - 1):
        parts.append(_derive_structure(tree, part, cuts & part & ~v, depth + 1))
    return FreeSplit(tree.labels[v.bit_length() - 1], tuple(parts))


def replay_structure(g: GraphOrAnalysis, derivation: Derivation) -> Graph:
    """Re-run a derivation log against ``g``; must reproduce the claimed graph."""
    a = _analysis(g)
    tree = a.block_cut_tree
    labels, edges = [], []
    todo = [(tree.whole, tree.cuts, derivation, "")]  # (piece, its cut vertices, log, prefix)
    while todo:
        piece, cuts, step, prefix = todo.pop()
        if isinstance(step, ConeStrip):
            r = tree.rank.get(step.apex, -1)
            if r < 0 or piece & ~tree.adj[r] != 1 << r:
                raise DomainError(f"replay: {step.apex!r} is not central")
            piece = a.graph.induced(tree.names(piece ^ 1 << r))
            labels.extend(prefix + v for v in piece.labels)
            edges.extend((prefix + x, prefix + y) for x, y in piece.edges())
            continue
        r = tree.rank.get(step.cut, -1)
        if r < 0 or not cuts >> r & 1:
            raise DomainError(f"replay: {step.cut!r} is not a cut vertex")
        parts = tree.parts(piece, r)
        if len(parts) != len(step.parts):
            raise DomainError("replay: block count mismatch")
        for k in reversed(range(len(parts))):
            todo.append((parts[k], cuts & parts[k] & ~(1 << r), step.parts[k], f"{prefix}{k}:"))
    return Graph(labels, edges)


# -- omega invariant and inequalities ---------------------------------------------------


def omega(b1: int, b2: int, cd: int) -> int:
    """(cd - 1) * b1^2 - 2 * cd * b2, the low-degree Betti invariant."""
    if cd < 1:
        raise DomainError("omega needs cohomological dimension >= 1")
    return _omega_raw(b1, b2, cd)


def _omega_raw(b1: int, b2: int, cd: int) -> int:
    return (cd - 1) * b1 * b1 - 2 * cd * b2


class OmegaIdentityResult(Result):
    applicable: bool
    reason: str
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    passed: Optional[bool] = None


def omega_identity_check(g: GraphOrAnalysis, ring: str = "Q") -> OmegaIdentityResult:
    """Exactly compare (n+1) * omega(BB) against n * omega(RAAG) - (b1 - n - 1)^2.

    Needs g connected with 1-acyclic flag complex over the ring, so that the
    Bestvina-Brady Betti numbers b1 = v - 1 and b2 = e - v + 1 are defined;
    n is the flag-complex dimension.  The omega value of the Bestvina-Brady
    object is evaluated by the raw formula so the degenerate edgeless case
    (n = 0) is still checked.
    """
    a = _analysis(g)
    if not a.connected:
        return OmegaIdentityResult(False, "graph not connected")
    hom = a.homology(ring)
    if hom.free_rank(1) or hom.torsion(1):
        return OmegaIdentityResult(False, f"flag complex not 1-acyclic over {ring}")
    v, e = a.graph.n, a.graph.edge_count
    n = a.dim
    lhs = (n + 1) * _omega_raw(v - 1, e - v + 1, n)
    rhs = n * _omega_raw(v, e, n + 1) - (v - n - 1) ** 2
    return OmegaIdentityResult(True, "", lhs, rhs, lhs == rhs)


class InequalityOutcome(Result):
    name: str
    applicable: bool
    reason: str = ""
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    passed: Optional[bool] = None
    note: str = ""


DROMS_TREE_BOUND_NOTE = (
    "known to fail with equality margin on complete graphs; "
    "see acyclic_dim_bound for the tight form"
)


@lru_cache(maxsize=64)
def _skipped(name: str, reason: str) -> InequalityOutcome:
    """The outcome of a check that does not apply; frozen, so one is shared."""
    return InequalityOutcome(name, False, reason=reason)


def _holds(name: str, lhs: int, rhs: int, note: str = "") -> InequalityOutcome:
    passed = lhs >= rhs
    return InequalityOutcome(name, True, "", lhs, rhs, passed, "" if passed else note)


def _turan_nonneg(a: Analysis, ring: str) -> InequalityOutcome:
    """omega(RAAG) >= 0, with cd(RAAG) the clique number."""
    g = a.graph
    if not g.n:
        return _skipped("turan_nonneg", "empty graph")
    return _holds("turan_nonneg", _omega_raw(g.n, g.edge_count, a.dim + 1), 0)


def _acyclic_dim_bound(a: Analysis, ring: str) -> InequalityOutcome:
    """n(v^2 - 2e - 1) >= (v - 1)^2 on an acyclic n-dimensional flag complex."""
    v = a.graph.n
    if not (v and a.acyclic(ring)):
        reason = f"flag complex not acyclic over {ring}"
        return _skipped("acyclic_dim_bound", reason)
    e = a.graph.edge_count
    return _holds("acyclic_dim_bound", a.dim * (v * v - 2 * e - 1), (v - 1) ** 2)


def _droms_tree_bound(a: Analysis, ring: str) -> InequalityOutcome:
    v, e = a.graph.n, a.graph.edge_count
    if not a.tree_of_droms.tree_of_droms:
        return _skipped("droms_tree_bound", "not a tree of Droms graphs")
    lhs = a.dim * (v * v - 2 * e - 2)
    return _holds("droms_tree_bound", lhs, (v - 1) ** 2, DROMS_TREE_BOUND_NOTE)


def _two_dim_edge_bound(a: Analysis, ring: str) -> InequalityOutcome:
    v, e = a.graph.n, a.graph.edge_count
    if not (v and a.dim == 2 and a.acyclic(ring)):
        reason = "needs an acyclic 2-dimensional flag complex"
        return _skipped("two_dim_edge_bound", reason)
    return _holds("two_dim_edge_bound", (v + 1) ** 2, 4 * (e + 1))


# name -> check; each is exact, or skipped with a reason when it does not apply.
INEQUALITIES: dict[str, Callable[[Analysis, str], InequalityOutcome]] = {
    "turan_nonneg": _turan_nonneg,
    "acyclic_dim_bound": _acyclic_dim_bound,
    "droms_tree_bound": _droms_tree_bound,
    "two_dim_edge_bound": _two_dim_edge_bound,
}


def inequality_checks(g: GraphOrAnalysis, ring: str = "Z") -> dict[str, InequalityOutcome]:
    """The named integer inequalities, each evaluated exactly or skipped with reason."""
    a = _analysis(g)
    return {name: check(a, ring) for name, check in INEQUALITIES.items()}


# -- graded cohomology of the Bestvina-Brady object ---------------------------------------


class CohomologyQuotient(Result):
    """Graded dimensions of the exterior face algebra modulo the length character.

    Degree-i basis: the i-cliques; the quotient divides out the ideal generated
    by the sum of all vertices, and :func:`bb_cohomology_dimensions` reads the
    dimensions off the Betti numbers.  When the flag complex is acyclic over the
    field these are the cohomology dimensions of the Bestvina-Brady object and
    the algebra is Koszul; otherwise they are reported as plain linear algebra.
    """

    ring: str
    dims: tuple[int, ...]
    koszul: Optional[bool]


def bb_cohomology_dimensions(g: GraphOrAnalysis, ring: str = "Q") -> CohomologyQuotient:
    """dim of each graded piece, read off the face counts and reduced Betti numbers.

    Multiplication by the vertex sum from degree d to d + 1 is the transpose of
    the augmented boundary r_d from d-faces to (d-1)-faces, signs included (the
    Aomoto complex of the exterior face ring; Papadima-Suciu 2007).  So over a
    field the piece is f_d - rank r_d, with f_d the d-face count, rank r_0 = 1
    and rank r_{d+1} = f_d - rank r_d - b_d for the reduced Betti number b_d.
    """
    tag = normalize_ring(ring)
    if tag == "Z":
        raise DomainError("bb_cohomology_dimensions needs a field (Q or Fp:<p>)")
    a = _analysis(g)
    hom = a.homology(tag)
    dims, rank = [1], 1
    for d, faces in enumerate(a.complex.faces):
        dims.append(len(faces) - rank)
        rank = len(faces) - rank - hom.free_rank(d)
    return CohomologyQuotient(tag, tuple(dims), True if a.acyclic(tag) else None)


# -- Koszul Hilbert-series consistency -----------------------------------------------------

# Largest Hilbert-series truncation degree; the series products are quadratic in it.
HILBERT_DEGREE_LIMIT = 1_000


class HilbertCheckResult(Result):
    applicable: bool
    reason: str
    degree_bound: int
    product: tuple[int, ...] = ()
    quotient_series: tuple[int, ...] = ()
    enveloping_series: tuple[int, ...] = ()
    passed: Optional[bool] = None


def koszul_hilbert_check(
    g: GraphOrAnalysis, degree_bound: int = 12, ring: str = "Q"
) -> HilbertCheckResult:
    """Verify h_A(-t) * h_U(t) = 1 coefficientwise up to the degree bound.

    h_U(t) = (1 - t) / C(-t) with C the clique polynomial: the enveloping
    algebra of the RAAG Lie object has Hilbert series 1/C(-t), and splitting
    off the length character divides by 1/(1 - t).  h_A comes from
    :func:`bb_cohomology_dimensions`.  Needs a connected graph whose flag
    complex is acyclic over the field, which is what makes the Bestvina-Brady
    object Koszul and the identity exact; with h_A read off the Betti numbers
    it then follows from the face counts, so the tests recheck it against an
    independent rank.  Bounds above :data:`HILBERT_DEGREE_LIMIT` raise CapacityError.
    """
    if degree_bound < 2:
        raise DomainError("degree bound must be at least 2")
    if degree_bound > HILBERT_DEGREE_LIMIT:
        raise CapacityError(f"degree bound may not exceed {HILBERT_DEGREE_LIMIT}")
    tag = normalize_ring(ring)
    if tag == "Z":
        raise DomainError("koszul_hilbert_check needs a field")
    a = _analysis(g)
    if not a.connected:
        return HilbertCheckResult(False, "graph not connected", degree_bound)
    if not a.acyclic(tag):
        return HilbertCheckResult(
            False, f"flag complex not acyclic over {tag}", degree_bound
        )
    n = degree_bound
    counts = [1] + [len(fs) for fs in a.complex.faces]
    dseries = [(-1) ** k * counts[k] if k < len(counts) else 0 for k in range(n + 1)]
    inv = [0] * (n + 1)
    inv[0] = 1
    for k in range(1, n + 1):
        inv[k] = -sum(dseries[j] * inv[k - j] for j in range(1, k + 1))
    h_u = [inv[k] - (inv[k - 1] if k else 0) for k in range(n + 1)]
    dims = bb_cohomology_dimensions(a, tag).dims
    h_a = [dims[k] if k < len(dims) else 0 for k in range(n + 1)]
    product = [
        sum((-1) ** j * h_a[j] * h_u[k - j] for j in range(k + 1)) for k in range(n + 1)
    ]
    passed = product[0] == 1 and all(x == 0 for x in product[1:])
    return HilbertCheckResult(
        True, "", degree_bound, tuple(product), tuple(h_a), tuple(h_u), passed
    )


# -- full report ------------------------------------------------------------------------


class RingReport(Result):
    ring: str
    fp_type: Optional[int]
    b2_bb: Optional[int]
    omega_bb: Optional[int]
    finitely_presented_lie: bool
    homology: HomologyGroups

    def to_json(self):
        out = super().to_json()
        if self.fp_type is None:
            out["fp_type"] = "infinity"
        return out


class InvariantReport(Result):
    graph6: str
    v: int
    e: int
    connected: bool
    flag_dim: int
    cd_raag: int
    b1_raag: int
    b2_raag: int
    b1_bb: Optional[int]
    omega_raag: Optional[int]
    rings: tuple[RingReport, ...]
    coherent: CoherenceResult
    bb_free: BBFreeResult
    bb_abelian: Optional[BBAbelianResult]
    subgroups_raag: Optional[SubgroupsRaagResult]
    finitely_presented_group: str
    structure: Optional[StructureGraph]
    structure_error: str
    omega_identity: OmegaIdentityResult
    inequalities: dict[str, InequalityOutcome]
    hilbert: Optional[HilbertCheckResult] = None
    cohomology: Optional[CohomologyQuotient] = None

    def to_json(self):
        out = super().to_json()
        if self.b1_bb is None:
            out["b1_bb"] = "not finitely generated"
        return out


def invariant_report(
    g: GraphOrAnalysis, rings: tuple[str, ...] = ("Z", "Q"), degree_bound: int = 12
) -> InvariantReport:
    """Assemble every verdict and number for one graph, deterministically."""
    a = _analysis(g)
    g = a.graph
    tags = list(dict.fromkeys(normalize_ring(ring) for ring in rings))
    field_tag = next((t for t in tags if t != "Z"), "Q")
    # first, so that a degree bound out of range stops the report before other work
    hilbert = koszul_hilbert_check(a, degree_bound, field_tag)
    connected = a.connected
    v, e = g.n, g.edge_count
    cd = a.dim + 1
    ring_reports = []
    for tag in tags:
        hom = a.homology(tag)
        one_acyclic = connected and not (hom.free_rank(1) or hom.torsion(1))
        b2_bb = e - v + 1 if one_acyclic else None
        omega_bb = _omega_raw(v - 1, b2_bb, a.dim) if b2_bb is not None else None
        ring_reports.append(
            RingReport(
                tag, fp_type(a, tag), b2_bb, omega_bb, finitely_presented_lie(a, tag), hom
            )
        )
    structure = None
    structure_error = ""
    if connected:
        try:
            structure = bb_structure_graph(a)
        except NotSupportedError as exc:
            structure_error = str(exc)
    else:
        structure_error = "graph not connected"
    return InvariantReport(
        graph6=format_graph6(g),
        v=v,
        e=e,
        connected=connected,
        flag_dim=a.dim,
        cd_raag=cd,
        b1_raag=v,
        b2_raag=e,
        b1_bb=v - 1 if connected else None,
        omega_raag=_omega_raw(v, e, cd) if v else None,
        rings=tuple(ring_reports),
        coherent=coherence(a),
        bb_free=bb_free(a),
        bb_abelian=bb_abelian(a) if connected else None,
        subgroups_raag=subgroups_raag(a) if connected else None,
        finitely_presented_group=finitely_presented_group(a),
        structure=structure,
        structure_error=structure_error,
        omega_identity=omega_identity_check(a, field_tag),
        inequalities=inequality_checks(a),
        hilbert=hilbert,
        cohomology=bb_cohomology_dimensions(a, field_tag),
    )
