"""The repository benchmark: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload scan-v8 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py            # every workload, untraced and then traced

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  The
last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; the full record (environment, samples, failures) goes to
``bench/results/BENCH_<workload>_seed<seed>_trace<t>.json``.

See bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl
from tracer import LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected.jsonl"

WORKLOADS = ("scan-v8", "report-mix", "homology-dense")
DEFAULT_SEED = 1
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# Fresh interpreter up to the first request: import the CLI, which imports
# every layer and selects the kernel.
SETUP_PROBE = (
    "import json, bbraag.cli, bbraag.kernel as k; "
    "print(json.dumps([k.BACKEND, [n for n, _ in k.available_backends()]]), flush=True)"
)
# `python -m bbraag ARGS` that reports its own peak RSS on stderr when it ends.
# The child measures it because a spawned process's ru_maxrss starts from its
# parent's high-water mark.
SCAN_CLI = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('bbraag', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*[x for x in open('/proc/self/status') if x.startswith('VmHWM:')], file=sys.stderr)\n"
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- child processes ----------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], job: dict | None = None, marker: bool = False) -> dict:
    """Run one child to its end and return its exit code, stdout, stderr and time.

    ``wall_s`` runs from the spawn to the child's exit, or with ``marker`` to
    its first line of output.  A child still running after CHILD_TIMEOUT_S is
    killed.
    """
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=RESULTS) as stdin, tempfile.TemporaryFile(dir=RESULTS) as stderr:
        if job is not None:
            stdin.write(json.dumps(job).encode())
            stdin.seek(0)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr, env=_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline() if marker else b""
            marked = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
            end = time.perf_counter()
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        stderr.seek(0)
        err = stderr.read().decode(errors="replace")
    return {
        "exit_code": proc.returncode,
        "stdout": (first + rest).decode(errors="replace"),
        "stderr": err,
        "wall_s": (marked if marker else end) - start,
    }


def _lines(child: dict, what: str) -> list[dict]:
    """The child's JSON lines, which must end with its "result" line."""
    lines = [json.loads(x) for x in child["stdout"].splitlines() if x.startswith("{")]
    if child["exit_code"] != 0 or not lines or lines[-1]["kind"] != "result":
        raise HarnessError(
            f"{what} exited {child['exit_code']} without a result:\n{child['stderr'][-2000:]}"
        )
    return lines


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], str, list[str]]:
    """Spawn-to-ready times of fresh interpreters; the first, which writes bytecode caches, is dropped."""
    times = []
    backend, backends = None, None
    for i in range(repeats + 1):
        child = spawn([sys.executable, "-c", SETUP_PROBE], marker=True)
        if child["exit_code"] != 0:
            raise HarnessError(f"bbraag does not import:\n{child['stderr'][-2000:]}")
        backend, backends = json.loads(child["stdout"].splitlines()[0])
        if i:
            times.append(child["wall_s"])
    return times, backend, backends


# -- workloads ------------------------------------------------------------------------------


def make_inputs(workload: str, seed: int):
    if workload == "scan-v8":
        return {"argv": list(wl.SCAN_ARGV), "expected": wl.SCAN_EXPECTED}
    if workload == "report-mix":
        return wl.report_inputs(seed)
    return wl.dense_inputs(seed)


def _scan_pass(argv: list[str], traced: bool, tag: str) -> dict:
    if not traced:
        child = spawn([sys.executable, "-c", SCAN_CLI, *argv])
        hwm = re.search(r"^VmHWM:\s+(\d+) kB", child["stderr"], re.M)
        return {"wall_s": child["wall_s"], "rss_mb": int(hwm.group(1)) / 1024 if hwm else 0.0,
                "exit_code": child["exit_code"], "output": child["stdout"]}
    job = {"workload": "scan-v8", "argv": argv, "spans": str(RESULTS / f"spans_{tag}.json")}
    child = spawn([sys.executable, str(BENCH / "worker.py")], job=job, marker=True)
    result = _lines(child, "traced scan")[-1]
    result["wall_s"] = child["wall_s"]
    return result


def measure(workload: str, inputs, seconds: float, trace: bool, tag: str) -> dict:
    """Timed passes (trace off), or timed passes then traced passes (trace on)."""
    if workload == "scan-v8":
        deadline = time.perf_counter() + seconds
        passes = [_scan_pass(inputs["argv"], False, tag)]
        traced = []
        while not trace and time.perf_counter() + passes[-1]["wall_s"] <= deadline:
            passes.append(_scan_pass(inputs["argv"], False, tag))
        while trace and (not traced or time.perf_counter() + traced[-1]["wall_s"] <= deadline):
            traced.append(_scan_pass(inputs["argv"], True, tag))
        return {
            "passes": passes,
            "traced": traced,
            "layers": [p["layers"] for p in traced],
            "latencies_s": [p["wall_s"] for p in passes],
            "rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
    job = {"workload": workload, "graphs": inputs, "seconds": seconds, "trace": trace,
           "spans": str(RESULTS / f"spans_{tag}.json")}
    child = spawn([sys.executable, str(BENCH / "worker.py")], job=job)
    lines = _lines(child, f"{workload} worker")
    passes = [x for x in lines if x["kind"] == "pass"]
    traced = [x for x in lines if x["kind"] == "traced"]
    return {
        "passes": passes,
        "traced": traced,
        "layers": [p["layers"] for p in traced],
        "latencies_s": [t for p in passes for t in p["latencies_s"]],
        "rss_mb": lines[-1]["peak_rss_mb"],
        "backend": lines[-1]["backend"],
    }


def load_pins(workload: str, seed: int) -> dict:
    """Pinned outputs by request name that apply at this seed.

    ``expected.jsonl`` holds one pinned request per line.  All pins apply at
    the seed they were taken with; at other seeds only those of the
    seed-independent homology-dense complexes do.
    """
    fixed = {g["name"] for g in wl.dense_fixed()}
    pins = {}
    with open(EXPECTED, encoding="utf-8") as fh:
        for line in fh:
            pin = json.loads(line)
            if pin["workload"] == workload and (pin["seed"] == seed or pin["name"] in fixed):
                pins[pin["name"]] = pin
    return pins


def check(workload: str, inputs, raw: dict, pinned: dict) -> tuple[int, dict[str, list[str]]]:
    """Count operations and map each failed one to its problems; every pass is checked in full."""
    passes = raw["passes"] + raw["traced"]
    failures: dict[str, list[str]] = {}
    if workload == "scan-v8":
        for k, p in enumerate(passes):
            problems = wl.scan_problems(p["exit_code"], p["output"], inputs["expected"])
            if problems:
                failures[f"pass {k}"] = problems
        return len(passes), failures
    for k, p in enumerate(passes):
        for i, (graph, sha, got) in enumerate(zip(inputs, p["digests"], p["checks"])):
            name = graph["name"]
            pin = pinned.get(name)
            if "error" in got:
                problems = [got["error"]]
            elif workload == "report-mix":
                problems = wl.homology_problems(graph, got["groups"])
            else:
                problems = wl.dense_problems(
                    graph, got["groups"], got["collapsible"], pin["groups"] if pin else None
                )
            reference = pin["sha256_16"] if pin else str(passes[0]["digests"][i])[:16]
            if str(sha)[:16] != reference:
                problems.append(f"output sha256 {str(sha)[:16]}... != {reference}...")
            if problems:
                failures[f"pass {k} request {i} ({name})"] = problems
    return sum(len(p["digests"]) for p in passes), failures


# -- metrics and the record --------------------------------------------------------------------


def p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def end_to_end(raw: dict, setup: list[float]) -> dict[str, float]:
    lat = raw["latencies_s"]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in raw["passes"]),
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_p99_ms": p99(lat) * 1e3,
        "peak_rss_mb": raw["rss_mb"],
    }


def per_layer(raw: dict) -> dict[str, float]:
    layers = raw["layers"]
    out = {name: statistics.median_low(x[name] for x in layers) for name in layers[0]}
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in raw["traced"])
        - statistics.median(p["wall_s"] for p in raw["passes"])
    )
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: bool, inputs,
                backend: str, backends: list[str]) -> dict:
    comparable = {
        "kernel_backend": backend,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backends": backends,
        "bbraag_kernel_env": os.environ.get("BBRAAG_KERNEL"),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "inputs_sha256": wl.digest(inputs),
        # Records whose "comparable" entries differ must not be compared (compare.py).
        "comparable": comparable,
    }


def write_expected() -> None:
    """Pin the current report-mix and homology-dense outputs at DEFAULT_SEED."""
    lines = []
    for workload in ("homology-dense", "report-mix"):
        inputs = make_inputs(workload, DEFAULT_SEED)
        first = measure(workload, inputs, 0, False, "pin")["passes"][0]
        for graph, sha, got in zip(inputs, first["digests"], first["checks"]):
            if "error" in got:
                raise HarnessError(f"{workload} {graph['name']}: {got['error']}")
            pin = {"workload": workload, "seed": DEFAULT_SEED, "name": graph["name"],
                   "sha256_16": sha[:16]}
            if workload == "homology-dense":
                pin["groups"] = got["groups"]
            lines.append(json.dumps(pin, sort_keys=True) + "\n")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "bbraag" / "__init__.py").is_file():
        raise HarnessError(f"no bbraag sources under {SRC}")
    # Half the set-up samples before the workload and half after it, so that
    # their median spans the whole run.
    setup, backend, backends = measure_setup(SETUP_REPEATS if not trace else 1)
    inputs = make_inputs(workload, seed)
    tag = f"{workload}_seed{seed}"
    raw = measure(workload, inputs, seconds, trace, tag)
    if not trace:
        setup += measure_setup(SETUP_REPEATS)[0]
    backend = raw.get("backend", backend)
    attempted, failures = check(workload, inputs, raw, load_pins(workload, seed))
    failed = len(failures)
    if trace:
        values = per_layer(raw)
        units = LAYER_UNITS
    else:
        values = end_to_end(raw, setup)
        units = END_TO_END_UNITS
    record = {
        "environment": environment(workload, seed, seconds, trace, inputs, backend, backends),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "samples": {
            "setup_s": setup,
            "wall_s": [p["wall_s"] for p in raw["passes"]],
            "traced_wall_s": [p["wall_s"] for p in raw["traced"]],
            "requests": len(raw["latencies_s"]),
        },
        "failures": [f"{op}: {p}" for op, ps in failures.items() for p in ps][:200],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{tag}_trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = record["environment"]
    print(f"bench {workload} seed={seed} kernel={backend} backends={','.join(backends)} "
          f"python={env['comparable']['python']} nproc={env['comparable']['nproc']} "
          f"commit={env['commit']} inputs={env['inputs_sha256'][:16]}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'error_rate':36s} {record['error_rate']:14.6f} ({failed}/{attempted} failed)"
          f"   samples: {len(setup)} set-ups, {len(raw['passes'])} passes, "
          f"{len(raw['latencies_s'])} requests, {len(raw['traced'])} traced passes")
    for f in record["failures"][:20]:
        print(f"  FAIL {f}")
    print(f"  record {path.relative_to(ROOT)}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it, every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="pin the current report-mix/homology-dense outputs and exit")
    args = parser.parse_args(argv)
    keys = ("correct", "attempted", "failed", "metrics")
    try:
        if args.write_expected:
            write_expected()
            return 0
        if args.workload is not None:
            record = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({k: record[k] for k in keys}))
            return 0
        results = {}
        for trace in (False, True):
            for workload in WORKLOADS:
                record = run(workload, args.seed, args.seconds, trace)
                results[f"{workload} trace={int(trace)}"] = {k: record[k] for k in keys}
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
