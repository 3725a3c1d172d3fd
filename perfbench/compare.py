#!/usr/bin/env python3
"""Compare two saved perfbench runs metric by metric.

Usage: python3 perfbench/compare.py BASE.txt NEW.txt

Each file is the standard output of one perfbench run. The comparison is
refused (exit 2) when the two run headers disagree on anything but the
commit and the per-run counts: a different workload, seed, run length,
`simd` feature, core count, worker count or roster size makes the
figures incomparable.
"""

import json
import sys

# Header fields that legitimately differ between two comparable runs.
PER_RUN = {"commit", "passes", "ticks_timed", "ticks_kept", "chunks", "epoch_pairs_kept", "traced_passes"}


def load(path):
    header, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("header "):
                header = json.loads(line[len("header "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if header is None or result is None:
        sys.exit(f"{path}: no perfbench header or result line")
    return header, result


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (base_h, base), (new_h, new) = load(sys.argv[1]), load(sys.argv[2])
    keys = (set(base_h) | set(new_h)) - PER_RUN
    mismatched = sorted(k for k in keys if base_h.get(k) != new_h.get(k))
    if mismatched:
        for k in mismatched:
            print(f"header mismatch: {k}: {base_h.get(k)!r} vs {new_h.get(k)!r}")
        print("refusing to compare runs with different configurations")
        sys.exit(2)
    print(f"{base_h['workload']}: {base_h['commit']} -> {new_h['commit']}")
    for name, m in base["metrics"].items():
        b, n = m["value"], new["metrics"].get(name, {}).get("value")
        if n is None:
            print(f"  {name:32s} missing in {sys.argv[2]}")
            continue
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"  {name:32s} {b:14.6g} -> {n:14.6g} {m['unit']:8s} {change}")


if __name__ == "__main__":
    main()
