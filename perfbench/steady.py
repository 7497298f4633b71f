#!/usr/bin/env python3
"""Steadiness check: run each workload k times on one commit.

    python3 perfbench/steady.py --k 5 [--workload yago ...]

For every workload it makes k untraced runs with seeds 1 .. k and prints each end-to-end metric's median, quartiles and spread (the distance
between the first and third quartile as `statistics.quantiles(values, n=4)`
gives them, as a share of the median) next to the metric's bound from
BENCHMARK.json; a spread above a third of its bound is marked.

It then makes two traced runs with the same seed and checks that every count
repeats exactly, between the runs and between the passes of each run (task
result bytes within 1%: they include serialized timing values), and reports
the tracing overhead each traced run measured (`trace.overhead_s`: median
traced minus median untraced pass time, from passes ordered untraced,
traced, traced, untraced). Exits with 1 if a count differs, a run fails or
the spread of any end-to-end metric, setup_s included, exceeds its bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT = ["spark.jobs", "spark.stages", "spark.tasks", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes",
         "rewriter.plans", "cost.rank_calls", "result.rows"]
# Task results carry the task's own metric values (run times and the like)
# in serialized form, so their byte count moves by a few bytes per task.
NEAR_EXACT = {"spark.result_bytes": 0.01}


def run(workload, seed, seconds, trace, out):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--report", str(out)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(out.read_text())


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--k", type=int, default=5)
    a = ap.parse_args()
    seconds, out = bench["run_seconds"], ROOT / ".bench_build" / "steady"
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    summary = {}
    for w in workloads:
        reports = [run(w, 1 + i, seconds, 0, out / f"{w}-{i}-trace0.json") for i in range(a.k)]
        ok &= all(r["correct"] for r in reports)
        print(f"\n== {w}: {a.k} untraced runs, seeds 1..{a.k}")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for name in reports[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in reports]
            med, q1, q3, sp = spread(vals)
            b = bounds.get(name)
            flag = ""
            if b is not None and sp > b:
                flag, ok = "  OVER BOUND", False
            elif b is not None and sp > b / 3:
                flag = "  above bound/3"
            print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.3f} {b if b is not None else '-':>6}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "values": vals}
        steal = [r["extra"].get("cpu_steal_s") for r in reports]
        print("cpu time stolen by other guests per run (s):",
              " ".join("-" if x is None else f"{x:.1f}" for x in steal))
        summary[w] = {"untraced": rows, "cpu_steal_s": steal}
        traced = [run(w, 1, seconds, 1, out / f"{w}-{i}-trace1.json") for i in range(2)]
        ok &= all(r["correct"] for r in traced)
        diffs = [k for k in EXACT if len({r["metrics"][k]["value"] for r in traced}) != 1]
        for k, tol in NEAR_EXACT.items():
            vals = [r["metrics"][k]["value"] for r in traced]
            rel = (max(vals) - min(vals)) / max(vals) if max(vals) else 0.0
            print(f"{k}: relative difference {rel:.2e} between the runs (allowed {tol})")
            if rel > tol:
                diffs.append(k)
        within = all(r["counts_repeat"] for r in traced)
        ok &= not diffs and within
        overhead = [r["metrics"]["trace.overhead_s"]["value"] for r in traced]
        print(f"counts repeat exactly across runs: {'yes' if not diffs else 'NO: ' + ', '.join(diffs)}; "
              f"across passes within a run: {'yes' if within else 'NO'}")
        print("tracing overhead trace.overhead_s of the two traced runs (s):",
              " ".join(f"{x:.4f}" for x in overhead))
        summary[w]["traced"] = {k: [r["metrics"][k]["value"] for r in traced] for k in traced[0]["metrics"]}
        summary[w]["counts_differ"] = diffs
        summary[w]["tracing_overhead_s"] = overhead
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"\nsummary: {(out / 'summary.json').relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
