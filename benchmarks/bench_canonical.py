"""Benchmark the canonical-labeling backends against each other.

Usage:
    python benchmarks/bench_canonical.py [--max-n 8] [--repeat 3]

Times every available backend (pure Python always, the compiled extension
when built) over the full stream of connected graphs up to --max-n plus a
bank of symmetric worst cases, and verifies that the backends agree key for
key.  The generation stream itself is the hot consumer: canonical deletion,
pruned by parent automorphism orbits and twin rivals, makes 14,883
searches for every order up to n = 8, 996 of them pure parent searches; the
streamed v <= 8 scan makes 2,801, the same 996 parent searches among them.
"""

import argparse
import random
import time

from bbraag import kernel
from bbraag._g6 import decode
from bbraag.enumeration import _canonical_reps


def workload(max_n: int):
    """(n, adjacency) pairs: enumerated graphs, worst cases, random graphs."""
    items = []
    for n in range(1, max_n + 1):
        for key in _canonical_reps(n):
            items.append(decode(key))
    for n in range(4, 11):
        full = [((1 << n) - 1) ^ (1 << i) for i in range(n)]  # complete
        items.append((n, full))
        ring = [0] * n
        for i in range(n):  # cycle
            ring[i] |= 1 << ((i + 1) % n)
            ring[(i + 1) % n] |= 1 << i
        items.append((n, ring))
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(5, 10)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        items.append((n, adj))
    return items


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = kernel.available_backends()
    print(f"backends: {', '.join(name for name, _ in backends)}")
    items = workload(args.max_n)
    print(f"workload: {len(items)} graphs (enumerated <= {args.max_n}, "
          f"symmetric worst cases, random)")

    results = {}
    keys = {}
    for name, module in backends:
        best = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            out = [module.canon_key(n, adj) for n, adj in items]
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        results[name] = best
        keys[name] = out
        rate = len(items) / best
        print(f"{name:>12}: {best:8.3f} s   {rate:10.0f} graphs/s")

    reference = keys["pure-python"]
    for name, out in keys.items():
        assert out == reference, f"backend {name} disagrees with the reference"
    print("all backends agree on every key")

    if len(results) > 1:
        pure = results["pure-python"]
        for name, t in results.items():
            if name != "pure-python":
                print(f"speedup {name} vs pure-python: {pure / t:.1f}x")


if __name__ == "__main__":
    main()
