#!/usr/bin/env python3
"""Compare saved outputs of perfbench/run.py, e.g. a parent and a change.

    python3 perfbench/compare.py base1.log base2.log ... -- new1.log new2.log ...

Prints each metric's median per side and their ratio, and flags every
fingerprint field (backend, kernel module hash, Python, numpy, CPU count,
thread caps) that differs between the runs; such a comparison measures the
environment as much as the code.  Exits 1 when a fingerprint differs.
"""

import json
import statistics
import sys


def read(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prints = [json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("fingerprint ")]
    return prints, json.loads(lines[-1])


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = [[read(p) for p in argv[:cut]], [read(p) for p in argv[cut + 1:]]]
    if not all(sides):
        print("each side needs at least one output file", file=sys.stderr)
        return 2

    reference = sides[0][0][0][0]
    differs = set()
    for side in sides:
        for prints, _ in side:
            for fp in prints:
                differs.update(k for k in reference.keys() | fp.keys()
                               if fp.get(k) != reference.get(k))
    for key in sorted(differs):
        seen = sorted({json.dumps(fp.get(key), sort_keys=True)
                       for side in sides for prints, _ in side for fp in prints})
        print(f"FLAG fingerprint {key} differs: {' vs '.join(seen)}")

    names = sides[0][0][1]["metrics"]
    print(f"{'metric':42} {'unit':>7} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, m in names.items():
        medians = [statistics.median(r["metrics"][name]["value"] for _, r in side
                                     if name in r["metrics"]) for side in sides]
        ratio = medians[1] / medians[0] if medians[0] else float("nan")
        print(f"{name:42} {m['unit']:>7} {medians[0]:>14.6g} {medians[1]:>14.6g} {ratio:>9.4f}")
    failed = [sum(r["failed"] for _, r in side) for side in sides]
    attempted = [sum(r["attempted"] for _, r in side) for side in sides]
    print(f"failed: base {failed[0]} of {attempted[0]}, new {failed[1]} of {attempted[1]}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
