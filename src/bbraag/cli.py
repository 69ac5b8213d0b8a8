"""Command-line front end.

Commands: classify, report, homology, structure, scan.  Output is text or
JSON (``--format json``); JSON goes to the data stream only, diagnostics go
to stderr.  Exit codes: 0 success, 1 usage, 2 parse error, 3 domain error,
4 capacity exceeded, 5 scan found failing graphs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .enumeration import PREDICATES, scan_property
from .errors import CapacityError, DomainError, GraphParseError, NotSupportedError
from .formats import FORMATS, format_graph6, graph_json, parse_graph, to_json
from .graphs import Graph
from .homology import normalize_ring
from .invariants import Analysis, bb_structure_graph, finitely_presented_group, invariant_report
from .recognition import check_recognition_size, is_droms, is_ptolemaic

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CAPACITY = 4
EXIT_SCAN_FAILURES = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_input_args(p: _Parser):
    p.add_argument("--input", metavar="PATH", help="read the graph from a file")
    p.add_argument("--graph6", metavar="STR", help="inline graph6 string")
    p.add_argument(
        "--input-format", choices=FORMATS, default="auto",
        help="format of --input (default: auto)",
    )


def _add_output_args(p: _Parser):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH", help="write the report to a file")


def _add_ring_args(p: _Parser):
    p.add_argument(
        "--ring", action="append", metavar="RING",
        help="coefficient ring Z, Q, or Fp:<p>; repeatable (default: Z and Q)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="bbraag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="graph-class verdicts with certificates/witnesses")
    _add_input_args(p)
    _add_output_args(p)

    p = sub.add_parser("report", help="full invariant report")
    _add_input_args(p)
    _add_output_args(p)
    _add_ring_args(p)
    p.add_argument(
        "--max-degree", type=int, default=12, metavar="N",
        help="Hilbert-series truncation degree, N >= 2 (default 12)",
    )

    p = sub.add_parser("homology", help="reduced flag-complex homology per ring")
    _add_input_args(p)
    _add_output_args(p)
    _add_ring_args(p)

    p = sub.add_parser("structure", help="defining graph of the Bestvina-Brady object")
    _add_input_args(p)
    _add_output_args(p)

    p = sub.add_parser("scan", help="enumeration scan over all small connected graphs")
    p.add_argument("predicate", choices=sorted(PREDICATES))
    p.add_argument("--max-v", type=int, default=8, metavar="N")
    p.add_argument("--ring", default="Z", metavar="RING")
    p.add_argument("--workers", type=int, default=1, metavar="K")
    _add_output_args(p)
    return parser


def _load_graph(args) -> Graph:
    if bool(args.input) == bool(args.graph6):
        raise SystemExit(_usage("exactly one of --input or --graph6 is required"))
    if args.graph6 is not None:
        return parse_graph(args.graph6, "graph6")
    try:
        with open(args.input, "rb") as fh:
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"input is not UTF-8: {exc.reason}", position=exc.start) from None
    return parse_graph(text, args.input_format)


def _usage(message: str) -> int:
    print(f"bbraag: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(args, payload: dict, text: str) -> None:
    """Write the JSON document (with its schema envelope) or the text rendering."""
    if args.format == "json":
        payload = dict(payload, schema_version=SCHEMA_VERSION, command=args.command)
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        data = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _witness_text(witness) -> str:
    if witness is None:
        return ""
    if not witness["vertices"]:
        return f"witness {witness['pattern']}"
    return f"witness {witness['pattern']} on {','.join(witness['vertices'])}"


def _graph_text(graph: dict) -> str:
    """``n vertices, e edges, graph6 s`` of a graph's JSON."""
    n, e = len(graph["vertices"]), len(graph["edges"])
    return f"{n} vertices, {e} edges, graph6 {graph['graph6']}"


def _check_text(check: dict) -> str:
    return "pass" if check["passed"] else "FAIL"


def cmd_classify(args) -> int:
    g = _load_graph(args)
    check_recognition_size(g)
    a = Analysis(g)
    # (class, result, certificate field); the verdict field is named after the class
    verdicts = (
        ("chordal", a.chordality, "elimination_order"),
        ("droms", is_droms(g), "certificate"),
        ("ptolemaic", is_ptolemaic(g, a.chordality), "certificate"),
        ("tree_of_droms", a.tree_of_droms, "decomposition"),
    )
    payload = {"graph": graph_json(g, format_graph6(g))}
    lines = ["graph: " + _graph_text(payload["graph"])]
    for name, res, cert_field in verdicts:
        block = payload[name] = {
            "verdict": getattr(res, name),
            # the empty graph's empty elimination order is null
            cert_field: to_json(getattr(res, cert_field) or None),
            "witness": to_json(res.witness),
        }
        verdict = "yes" if block["verdict"] else "no  " + _witness_text(block["witness"])
        lines.append(f"{name + ':':<15}{verdict}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _rings_of(args) -> tuple[str, ...]:
    """The normalized ring tags of ``--ring``, each once, in order of first mention."""
    return tuple(dict.fromkeys(map(normalize_ring, args.ring or ("Z", "Q"))))


def cmd_report(args) -> int:
    g = _load_graph(args)
    r = invariant_report(g, rings=_rings_of(args), degree_bound=args.max_degree).to_json()
    lines = [
        f"graph: {r['v']} vertices, {r['e']} edges, graph6 {r['graph6']}",
        f"connected: {r['connected']}   flag dim: {r['flag_dim']}   "
        f"clique number (cd of RAAG object): {r['cd_raag']}",
        f"betti of RAAG object: b1={r['b1_raag']} b2={r['b2_raag']}   omega={r['omega_raag']}",
        f"b1 of BB object: {r['b1_bb']}",
    ]
    lines.extend(
        f"[{ring['ring']}] fp_type={ring['fp_type']} b2_bb={ring['b2_bb']} "
        f"omega_bb={ring['omega_bb']} finitely_presented_lie={ring['finitely_presented_lie']}"
        for ring in r["rings"]
    )
    free = r["bb_free"]
    lines.append(f"coherent: {r['coherent']['coherent']}")
    lines.append(f"bb_free: {free['free']} (rank {free['rank']}; {free['reason']})")
    if r["bb_abelian"] is not None:
        lines.append(f"bb_abelian: {r['bb_abelian']['abelian']} (rank {r['bb_abelian']['rank']})")
    if r["subgroups_raag"] is not None:
        lines.append(f"all subgroups RAAG: {r['subgroups_raag']['holds']}")
    lines.append(f"finitely presented group: {r['finitely_presented_group']}")
    structure = r["structure"]
    if structure is not None:
        lines.append(
            f"structure graph: {len(structure['vertices'])} vertices, graph6 {structure['graph6']}"
        )
    else:
        lines.append(f"structure graph: unavailable ({r['structure_error']})")
    oi = r["omega_identity"]
    if oi["applicable"]:
        lines.append(f"omega identity: {oi['lhs']} = {oi['rhs']} -> {_check_text(oi)}")
    else:
        lines.append(f"omega identity: inapplicable ({oi['reason']})")
    for name, ineq in sorted(r["inequalities"].items()):
        if ineq["applicable"]:
            lines.append(f"{name}: {ineq['lhs']} >= {ineq['rhs']} -> {_check_text(ineq)}")
        else:
            lines.append(f"{name}: skipped ({ineq['reason']})")
    hilbert = r["hilbert"]
    if hilbert is not None and hilbert["applicable"]:
        lines.append(
            f"hilbert consistency to degree {hilbert['degree_bound']}: {_check_text(hilbert)}"
        )
    elif hilbert is not None:
        lines.append(f"hilbert consistency: inapplicable ({hilbert['reason']})")
    if r["cohomology"] is not None:
        lines.append(f"cohomology dims over {r['cohomology']['ring']}: {r['cohomology']['dims']}")
    _emit(args, {"report": r}, "\n".join(lines))
    return EXIT_OK


def cmd_homology(args) -> int:
    g = _load_graph(args)
    a = Analysis(g)
    c = a.complex
    rings = _rings_of(args)
    collapse = a.collapse
    homology = [a.homology(ring) for ring in rings]
    payload = {
        "graph": graph_json(g, format_graph6(g)),
        "flag_complex": {"dim": c.dim, "face_counts": [len(fs) for fs in c.faces]},
        "homology": [h.to_json() for h in homology],
        "acyclic": {h.ring: h.trivial() for h in homology},
        "collapse": collapse.to_json(),
        "simply_connected": finitely_presented_group(a),
    }
    faces = payload["flag_complex"]
    lines = [
        "graph: " + _graph_text(payload["graph"]),
        f"flag complex: dim {faces['dim']}, faces {faces['face_counts']}",
    ]
    for h in payload["homology"]:
        desc = ", ".join(
            f"H~{d['degree']}: rank {d['free_rank']}"
            + (f" torsion {d['torsion']}" if d["torsion"] else "")
            for d in h["reduced"]
        )
        lines.append(
            f"[{h['ring']}] {desc or 'empty complex'}   acyclic: {payload['acyclic'][h['ring']]}"
        )
    lines.append(f"collapsible: {payload['collapse']['collapsible']}")
    lines.append(f"simply connected (flag complex): {payload['simply_connected']}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_structure(args) -> int:
    g = _load_graph(args)
    check_recognition_size(g)
    structure = bb_structure_graph(g)
    payload = {"graph": graph_json(g, format_graph6(g)), "structure": structure.to_json()}
    sg = payload["structure"]
    lines = [
        "graph: " + _graph_text(payload["graph"]),
        "Bestvina-Brady object is the RAAG on: " + _graph_text(sg),
        "vertices: " + (", ".join(sg["vertices"]) if sg["vertices"] else "(none)"),
    ]
    lines.extend(f"edge: {a} {b}" for a, b in sg["edges"])
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_scan(args) -> int:
    report = scan_property(args.predicate, args.max_v, ring=args.ring, workers=args.workers)
    payload = {"scan": report.to_json()}
    _emit(args, payload, report.to_text())
    return EXIT_OK if report.failed == 0 else EXIT_SCAN_FAILURES


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": cmd_classify,
        "report": cmd_report,
        "homology": cmd_homology,
        "structure": cmd_structure,
        "scan": cmd_scan,
    }
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except GraphParseError as exc:
        print(f"bbraag: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"bbraag: i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"bbraag: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, NotSupportedError) as exc:
        print(f"bbraag: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
