"""Show two benchmark records side by side: python3 bench/compare.py OLD.json NEW.json

Exits 3 without comparing when the records ran different workloads or
different environments: kernel backend, Python version or nproc, as stored in
each record's "comparable" entry.  One pair of records is not evidence of a
gain; bench/README.md says how to claim one.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    records = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    old, new = records
    a = dict(old["environment"]["comparable"], workload=old["environment"]["workload"])
    b = dict(new["environment"]["comparable"], workload=new["environment"]["workload"])
    if a != b:
        diff = ", ".join(f"{k} {a.get(k)} vs {b.get(k)}" for k in sorted(a) if a.get(k) != b.get(k))
        print(f"not comparable: {diff}")
        return 3
    print(f"{'metric':36s} {'old':>14s} {'new':>14s}  new/old")
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            continue
        x, y = m["value"], new["metrics"][name]["value"]
        ratio = f"{y / x:.3f}" if x else "-"
        print(f"{name:36s} {x:14.6f} {y:14.6f}  {ratio} {m['unit']}")
    for label, r in (("old", old), ("new", new)):
        print(f"{label}: {r['failed']}/{r['attempted']} failed, commit {r['environment']['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
