"""Fast self-test of the benchmark harness: python3 bench/selftest.py

Runs each workload at toy size through the same measure and check code as
run.py -- the scan at --max-v 5, four reports, one small complex -- with one
timed and one traced pass each.  Every case must pass against its true
expected values, must fail once an expected value is corrupted, and the
traced scan must count exactly the kernel calls that generation at v <= 5
makes.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys

import run
import workloads as wl

TOY_SCAN_EXPECTED = {"examined": 31, "applicable": 25, "failed": 0, "failing": []}
# Generation at order n extends each (n-1)-class by 2^(n-1) - 1 neighbourhoods:
# 1*1 + 1*3 + 2*7 + 6*15 canonical-form calls, keeping 1 + 2 + 6 + 21 classes.
TOY_SCAN_CANON_CALLS = 108
TOY_SCAN_KEPT = 30


def _cases():
    argv = list(wl.SCAN_ARGV)
    argv[argv.index("--max-v") + 1] = "5"
    scan = {"argv": argv, "expected": TOY_SCAN_EXPECTED}
    bad_scan = {"argv": argv, "expected": dict(TOY_SCAN_EXPECTED, examined=32)}
    yield "scan-v8", scan, {}, bad_scan, {}

    reports = wl.report_inputs(seed=1, per_cell=1)[:4]
    zero = {g["name"]: {"sha256_16": "0" * 16} for g in reports}
    yield "report-mix", reports, {}, reports, zero

    dense = [g for g in wl.dense_fixed() if g["name"] == "coC10"]
    pins = run.load_pins("homology-dense", seed=0)
    bad = copy.deepcopy(pins)
    bad["coC10"]["groups"]["Z"][0][0] += 1
    yield "homology-dense", dense, pins, dense, bad


def main() -> int:
    problems = []
    for workload, inputs, pins, bad_inputs, bad_pins in _cases():
        raw = run.measure(workload, inputs, 0, True, "selftest")
        attempted, failures = run.check(workload, inputs, raw, pins)
        if attempted < 2 or failures:
            problems.append(f"{workload}: {attempted} attempted, failures {failures}")
        _, caught = run.check(workload, bad_inputs, raw, bad_pins)
        if len(caught) != attempted:
            problems.append(f"{workload}: corrupted expectation failed {len(caught)} of {attempted}")
        layers = run.per_layer(raw)
        if workload == "scan-v8":
            calls = layers["kernel.canon_key.calls"]
            kept = layers["enumeration.generate.kept_ratio"] * calls
            if calls != TOY_SCAN_CANON_CALLS or round(kept) != TOY_SCAN_KEPT:
                problems.append(f"scan: traced {calls} kernel calls keeping {kept}")
        if workload == "report-mix" and layers["invariants.flag_complex_per_report"] < 1:
            problems.append(f"report-mix: no traced flag complex inside a report: {layers}")
        print(f"{workload}: {attempted} operations, {len(failures)} failed; "
              f"with a corrupted expectation {len(caught)} failed")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
