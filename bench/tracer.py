"""In-memory span tracer for the traced benchmark pass.

The tracer wraps public functions of the bbraag layers from outside the
package: each wrapper records one span (name, start, end, parent span,
request id) around the call.  Spans stay in compact arrays until the pass
ends; :meth:`Tracer.layer_metrics` derives busy and self times and the
per-layer counts from them, and :meth:`Tracer.write` dumps them as JSON.

Timed (untraced) passes never install the wrappers, so end-to-end numbers
carry no tracing cost.
"""

from __future__ import annotations

import json
import sys
import time
from array import array


def _ring_arg(args, kwargs) -> str:
    ring = args[1] if len(args) > 1 else kwargs.get("ring", "")
    return str(ring).strip()


def _reduced_name(args, kwargs) -> str:
    ring = _ring_arg(args, kwargs)
    return "homology.reduced." + ("Fp" if ring.startswith("Fp") else ring)


def _is_acyclic_name(args, kwargs) -> str:
    return "homology.full_z" if _ring_arg(args, kwargs) == "Z" else "homology.is_acyclic"


# (module, attribute, span name).  A span name is either a string or a
# function of the call's (args, kwargs) that returns one.  The wrapper replaces
# the attribute in every loaded bbraag module that holds the original, so
# calls through a from-import and calls inside the defining module are both
# traced.  A hooked name that no longer exists raises AttributeError.
HOOKS = [
    ("bbraag.kernel", "canon_key", "kernel.canon_key"),
    # Generation has no public entry point that scans use; the cached
    # per-order generator is the one place every generated class passes.
    ("bbraag.enumeration", "_canonical_reps", "enumeration.generate"),
    ("bbraag.graphs", "clique_masks", "graphs.clique_masks"),
    ("bbraag.homology", "flag_complex", "homology.flag_complex"),
    ("bbraag.homology", "reduced_homology", _reduced_name),
    ("bbraag.homology", "smith_normal_form", "homology.snf"),
    ("bbraag.homology", "rank_over_field", "homology.rank_field"),
    ("bbraag.homology", "acyclic_over_z_fast", "homology.acyclic_fast"),
    ("bbraag.homology", "is_acyclic", _is_acyclic_name),
    ("bbraag.homology", "collapse_to_point", "homology.collapse"),
    ("bbraag.recognition", "is_chordal", "recognition.is_chordal"),
    ("bbraag.recognition", "is_droms", "recognition.is_droms"),
    ("bbraag.recognition", "is_ptolemaic", "recognition.is_ptolemaic"),
    ("bbraag.recognition", "is_tree_of_droms", "recognition.is_tree_of_droms"),
    ("bbraag.recognition", "find_induced", "recognition.find_induced"),
    ("bbraag.recognition", "find_cut_or_central", "recognition.find_cut_or_central"),
    ("bbraag.invariants", "invariant_report", "invariants.report"),
    ("bbraag.invariants", "bb_cohomology_dimensions", "invariants.cohomology"),
    ("bbraag.invariants", "koszul_hilbert_check", "invariants.hilbert"),
]

# name -> unit, in the order BENCHMARK.json lists the per-layer metrics.
LAYER_UNITS = {
    "kernel.canon_key.calls": "count",
    "kernel.canon_key.busy_s": "s",
    "enumeration.generate.busy_s": "s",
    "enumeration.generate.self_s": "s",
    "enumeration.generate.kept_ratio": "ratio",
    "enumeration.predicate.busy_s": "s",
    "homology.flag_complex.calls": "count",
    "homology.flag_complex.busy_s": "s",
    "homology.acyclic_fast.busy_s": "s",
    "homology.collapse.calls": "count",
    "homology.collapse.success_ratio": "ratio",
    "homology.full_z.calls": "count",
    "homology.reduced.Z.busy_s": "s",
    "homology.reduced.Q.busy_s": "s",
    "homology.reduced.Fp.busy_s": "s",
    "homology.snf.busy_s": "s",
    "homology.rank_field.busy_s": "s",
    "invariants.report.self_s": "s",
    "invariants.flag_complex_per_report": "calls/report",
    "invariants.homology_per_report": "calls/report",
    "invariants.tree_of_droms_per_report": "calls/report",
    "invariants.cohomology.busy_s": "s",
    "invariants.hilbert.busy_s": "s",
    "recognition.calls": "count",
    "recognition.busy_s": "s",
    "graphs.clique_masks.calls": "count",
    "graphs.clique_masks.busy_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans of one traced pass, kept in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.request = -1
        self.reset()

    def reset(self) -> None:
        """Forget all spans and outcome counts; called before each traced pass."""
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.collapse_ok = 0
        self.kept: dict[int, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        """Return ``fn`` recording one span per call under ``name``."""
        fixed = self._id(name) if isinstance(name, str) else None
        on_result = _OUTCOMES.get(name if isinstance(name, str) else "")
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.req.append(self.request)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every hook in every loaded bbraag module, and each scan predicate."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("bbraag") and m]
        for module_name, attr, name in HOOKS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        predicates = sys.modules["bbraag.enumeration"].PREDICATES
        for key, fn in predicates.items():
            predicates[key] = self.wrap(fn, "enumeration.predicate")

    def layer_metrics(self, import_s: float) -> dict[str, float]:
        """Per-layer values of this pass; ``import_s`` is the worker's bbraag import time."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i in range(n):
            key = names[self.name[i]]
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + dur[i] - child[i]

        def outermost(prefix: str) -> tuple[list[bool], int]:
            """Spans inside a ``prefix`` span, and the summed time of the outermost ones."""
            inside = [False] * n
            busy = 0
            for i in range(n):
                p = self.parent[i]
                outer = p >= 0 and inside[p]
                own = names[self.name[i]].startswith(prefix)
                inside[i] = outer or own
                if own and not outer:
                    busy += dur[i]
            return inside, busy

        def busy(prefix: str) -> float:
            return outermost(prefix)[1] / 1e9

        in_report, _ = outermost("invariants.report")
        per_report: dict[str, int] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and in_report[p]:
                key = names[self.name[i]]
                per_report[key] = per_report.get(key, 0) + 1
        reports = calls.get("invariants.report", 0)
        homology_calls = sum(
            v for k, v in per_report.items() if k.startswith("homology.reduced.")
        )

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        canon_calls = calls.get("kernel.canon_key", 0)
        collapse_calls = calls.get("homology.collapse", 0)
        recognition_calls = sum(v for k, v in calls.items() if k.startswith("recognition."))
        return {
            "kernel.canon_key.calls": canon_calls,
            "kernel.canon_key.busy_s": busy("kernel.canon_key"),
            "enumeration.generate.busy_s": busy("enumeration.generate"),
            "enumeration.generate.self_s": self_ns.get("enumeration.generate", 0) / 1e9,
            "enumeration.generate.kept_ratio": ratio(sum(self.kept.values()), canon_calls),
            "enumeration.predicate.busy_s": busy("enumeration.predicate"),
            "homology.flag_complex.calls": calls.get("homology.flag_complex", 0),
            "homology.flag_complex.busy_s": busy("homology.flag_complex"),
            "homology.acyclic_fast.busy_s": busy("homology.acyclic_fast"),
            "homology.collapse.calls": collapse_calls,
            "homology.collapse.success_ratio": ratio(self.collapse_ok, collapse_calls),
            "homology.full_z.calls": calls.get("homology.full_z", 0),
            "homology.reduced.Z.busy_s": busy("homology.reduced.Z"),
            "homology.reduced.Q.busy_s": busy("homology.reduced.Q"),
            "homology.reduced.Fp.busy_s": busy("homology.reduced.Fp"),
            "homology.snf.busy_s": busy("homology.snf"),
            "homology.rank_field.busy_s": busy("homology.rank_field"),
            "invariants.report.self_s": self_ns.get("invariants.report", 0) / 1e9,
            "invariants.flag_complex_per_report": ratio(
                per_report.get("homology.flag_complex", 0), reports
            ),
            "invariants.homology_per_report": ratio(homology_calls, reports),
            "invariants.tree_of_droms_per_report": ratio(
                per_report.get("recognition.is_tree_of_droms", 0), reports
            ),
            "invariants.cohomology.busy_s": busy("invariants.cohomology"),
            "invariants.hilbert.busy_s": busy("invariants.hilbert"),
            "recognition.calls": recognition_calls,
            "recognition.busy_s": busy("recognition."),
            "graphs.clique_masks.calls": calls.get("graphs.clique_masks", 0),
            "graphs.clique_masks.busy_s": busy("graphs.clique_masks"),
            "cli.import_s": import_s,
        }

    def write(self, path: str) -> None:
        """Dump the spans as {"names": [...], "spans": [[name, start_ns, end_ns, parent, request], ...]}."""
        t0 = self.start[0] if len(self.start) else 0
        spans = [
            [self.name[i], self.start[i] - t0, self.end[i] - t0, self.parent[i], self.req[i]]
            for i in range(len(self.name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))


def _collapse_outcome(tracer: Tracer, args, result) -> None:
    if result.collapsible:
        tracer.collapse_ok += 1


def _generate_outcome(tracer: Tracer, args, result) -> None:
    n = args[0]
    if n >= 2:
        tracer.kept[n] = len(result)


_OUTCOMES = {
    "homology.collapse": _collapse_outcome,
    "enumeration.generate": _generate_outcome,
}
