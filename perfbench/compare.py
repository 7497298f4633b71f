#!/usr/bin/env python3
"""Compare two benchmark reports (the JSON files run.py writes).

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two runs' metadata differ in anything but the
commit: workload, seed, sizes, edge counts, nproc, Spark master, shuffle
partitions, nPartitions, heap, run length. Otherwise prints each metric
of both runs and the ratio after/before.
"""
import json
import sys


def flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.load(open(p)) for p in sys.argv[1:])
    ma, mb = flatten(a["meta"]), flatten(b["meta"])
    diff = sorted(k for k in set(ma) | set(mb) if k != "commit" and ma.get(k) != mb.get(k))
    if diff:
        for k in diff:
            print(f"metadata differs: {k}: {ma.get(k)!r} vs {mb.get(k)!r}", file=sys.stderr)
        print("refusing to compare runs with different metadata", file=sys.stderr)
        sys.exit(2)
    print(f"{a['meta']['workload']} seed={a['meta']['seed']}: {a['meta']['commit']} -> {b['meta']['commit']}")
    for k, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"].get(k, {}).get("value")
        ratio = f"{vb / va:8.3f}" if isinstance(vb, (int, float)) and va else "       -"
        print(f"{k:<32} {va:>16.6g} {vb if vb is not None else float('nan'):>16.6g} {ratio}  {m['unit']}")
    for r, name in ((a, "before"), (b, "after")):
        if not r["correct"]:
            print(f"{name}: {r['failed']} of {r['attempted']} failed")


if __name__ == "__main__":
    main()
