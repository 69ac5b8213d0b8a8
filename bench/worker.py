"""Benchmark client: one fresh interpreter that drives the bbraag library.

Reads one JSON job from stdin and writes JSON lines to stdout: one per pass
as it ends ("kind": "pass" or "traced"), then one "result" line.  The parent
(``run.py``) makes the inputs and checks the outputs; this process only builds
the graphs, times the requests in a closed loop with one client, and, for a
traced job, records spans.

Jobs:
  {"workload": "report-mix" | "homology-dense", "graphs": [...], "seconds": s,
   "trace": bool, "spans": path}
      warm-up, then timed passes over all graphs until the next pass would end
      after ``seconds``.  A traced job runs untraced passes for the first half
      of that time, then installs the tracer and runs traced passes.
  {"workload": "scan-v8", "argv": [...], "spans": path}
      one traced CLI call in-process; prints "done" when the call returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

_t0 = time.perf_counter()
import bbraag.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

from bbraag import homology, invariants, kernel, recognition  # noqa: E402
from bbraag.graphs import Graph  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import DENSE_RINGS, REPORT_RINGS  # noqa: E402

if not os.path.abspath(bbraag.cli.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"bbraag imported from {bbraag.cli.__file__}, not from {SRC}")


def _json(x):
    return x.to_json() if x is not None else None


def _groups(homology_json: list) -> dict:
    return {
        h["ring"]: [[d["free_rank"], d["torsion"]] for d in h["reduced"]]
        for h in homology_json
    }


# Library calls go through the module attributes so that the tracer's wrappers
# see them.
def report_request(g: Graph) -> tuple[str, dict]:
    """The classify recognizers, the full invariant report, sorted-key JSON."""
    ch = recognition.is_chordal(g)
    dr = recognition.is_droms(g)
    pt = recognition.is_ptolemaic(g)
    td = recognition.is_tree_of_droms(g)
    report = invariants.invariant_report(g, rings=REPORT_RINGS).to_json()
    payload = {
        "classify": {
            "chordal": [ch.chordal, list(ch.elimination_order or ()), _json(ch.witness)],
            "droms": [dr.droms, _json(dr.certificate), _json(dr.witness)],
            "ptolemaic": [pt.ptolemaic, _json(pt.certificate), _json(pt.witness)],
            "tree_of_droms": [td.tree_of_droms, _json(td.decomposition), _json(td.witness)],
        },
        "report": report,
    }
    text = json.dumps(payload, sort_keys=True)
    return text, {"groups": _groups([r["homology"] for r in report["rings"]])}


def dense_request(g: Graph) -> tuple[str, dict]:
    """Reduced homology over four rings and the greedy collapse of one flag complex."""
    c = homology.flag_complex(g)
    hom = [homology.reduced_homology(c, ring).to_json() for ring in DENSE_RINGS]
    collapse = homology.collapse_to_point(c)
    text = json.dumps({"homology": hom, "collapse": collapse.to_json()}, sort_keys=True)
    return text, {"groups": _groups(hom), "collapsible": collapse.collapsible}


def run_pass(graphs, request, tracer=None) -> dict:
    """One pass over every graph; a failing request is recorded and the pass goes on."""
    latencies, digests, checks = [], [], []
    start = time.perf_counter()
    for i, g in enumerate(graphs):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            text, check = request(g)
        except Exception as exc:  # counted as a failed operation, not fatal
            latencies.append(time.perf_counter() - t0)
            digests.append(None)
            checks.append({"error": repr(exc)})
            continue
        latencies.append(time.perf_counter() - t0)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        checks.append(check)
    return {
        "wall_s": time.perf_counter() - start,
        "latencies_s": latencies,
        "digests": digests,
        "checks": checks,
    }


def peak_rss_mb() -> float:
    """This process's own resident-set high-water mark."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def emit(kind: str, result: dict) -> None:
    """Write one result line and keep nothing, so the client's memory does not grow with passes."""
    print(json.dumps(dict(result, kind=kind)), flush=True)


def timed_passes(run, deadline: float, kind: str) -> None:
    """Emit passes until the next one would end after ``deadline``; at least one."""
    while True:
        result = run()
        emit(kind, result)
        if time.perf_counter() + result["wall_s"] > deadline:
            return


def library_job(job: dict) -> dict:
    request = report_request if job["workload"] == "report-mix" else dense_request
    graphs = [Graph(g["labels"], g["edges"]) for g in job["graphs"]]
    for g in graphs[: max(1, len(graphs) // 10)]:
        request(g)
    deadline = time.perf_counter() + job["seconds"]
    if not job["trace"]:
        timed_passes(lambda: run_pass(graphs, request), deadline, "pass")
        return {}
    # Untraced passes for the first half of the time are the overhead baseline.
    timed_passes(lambda: run_pass(graphs, request), deadline - job["seconds"] / 2, "pass")
    tracer = Tracer()
    tracer.install()

    def traced_pass():
        tracer.reset()
        result = run_pass(graphs, request, tracer)
        result["layers"] = tracer.layer_metrics(IMPORT_S)
        return result

    timed_passes(traced_pass, deadline, "traced")
    tracer.write(job["spans"])
    return {}


def scan_job(job: dict) -> dict:
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bbraag.cli.main(job["argv"])
    print("done", flush=True)
    layers = tracer.layer_metrics(IMPORT_S)
    tracer.write(job["spans"])
    return {"exit_code": code, "output": out.getvalue(), "layers": layers}


def main() -> None:
    job = json.load(sys.stdin)
    if job["workload"] == "scan-v8":
        result = scan_job(job)
    else:
        result = library_job(job)
    result["backend"] = kernel.BACKEND
    result["backends"] = [name for name, _ in kernel.available_backends()]
    result["peak_rss_mb"] = peak_rss_mb()
    emit("result", result)


if __name__ == "__main__":
    main()
