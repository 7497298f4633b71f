#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload yago --seed 1 --seconds 15 --trace 0

Builds the benchmark (perfbench/build.sbt, which compiles the repository's
src/main/scala together with the benchmark program in perfbench/src) when its
sources changed, then runs it on a local Spark. Prints one line per metric
(name, value, unit) and, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones; the full report with the
run metadata is written to .bench_build/out/.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
STAMP = BUILD / "perfbench" / "stamp"
CLASSPATH = BUILD / "perfbench" / "classpath.txt"
TMP = BUILD / "tmp"  # JVM and Spark scratch files stay inside the checkout

RUN_LIMIT_S = 170      # one run, excluding the build
BUILD_LIMIT_S = 700    # the first run of a checkout also builds
HEAP = "-Xmx4g"
# C1 only: a run lasts under a minute, too short for C2 to finish compiling
# Spark's and the planner's driver code. With tiered compilation the pass
# times kept falling through a run (concat on 4 cores: 3.55 s to 2.95 s
# over five passes); with C1 alone they stay level after the set-up.
JIT = "-XX:TieredStopAtLevel=1"

JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [BENCH / "build.sbt", BENCH / "project" / "build.properties", BENCH / "src", ROOT / "src" / "main"]
    for r in roots:
        if r.is_file():
            yield r
        elif r.is_dir():
            yield from sorted(p for p in r.rglob("*") if p.is_file())


def source_hash():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit_id(src_hash):
    rev = "nogit"
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{rev}+src.{src_hash}"


def build(src_hash):
    """Compile with sbt and record the runtime classpath; skipped when the
    sources are unchanged since the last build in this checkout."""
    if STAMP.exists() and CLASSPATH.exists() and STAMP.read_text() == src_hash:
        return CLASSPATH.read_text().strip()
    if not (ROOT / "src" / "main" / "scala").is_dir():
        die("src/main/scala not found: run from the root of a checkout of the repository")
    if not shutil.which("sbt"):
        die("sbt not found on PATH")
    STAMP.parent.mkdir(parents=True, exist_ok=True)
    log = BUILD / "perfbench" / "build.log"
    TMP.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Djava.io.tmpdir={TMP}", "-J-XX:-UsePerfData",
           f"-Dsbt.global.base={BUILD / 'sbt-global'}", "export Runtime/fullClasspath"]
    with open(log, "w") as out:
        try:
            p = subprocess.run(cmd, cwd=BENCH, stdout=subprocess.PIPE, stderr=out, stdin=subprocess.DEVNULL,
                               text=True, timeout=BUILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            die(f"build timed out after {BUILD_LIMIT_S} s (log: {log})")
        out.write(p.stdout)
    lines = [l for l in p.stdout.splitlines() if ".jar" in l and not l.startswith("[")]
    if p.returncode != 0 or not lines:
        sys.stderr.writelines(l + "\n" for l in p.stdout.splitlines() if l.startswith("[error]"))
        die(f"build failed (log: {log})")
    cp = lines[-1].strip()
    CLASSPATH.write_text(cp)
    STAMP.write_text(src_hash)
    return cp


def cpu_steal_s():
    """Seconds of CPU time the hypervisor gave to other guests, summed over
    all CPUs (Linux /proc/stat); None where it is not available."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["yago", "concat"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--timeout-s", type=float, default=30.0, help="per-query limit")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one expected checksum (self-test of the correctness check)")
    ap.add_argument("--report", type=pathlib.Path, help="also copy the full report here")
    a = ap.parse_args()

    src_hash = source_hash()
    cp = build(src_hash)
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    base = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    report_file = out_dir / f"{base}.json"
    if report_file.exists():
        report_file.unlink()
    TMP.mkdir(parents=True, exist_ok=True)
    cmd = ["java", HEAP, JIT, "-XX:+UseG1GC", "-XX:-UsePerfData", *JAVA_OPENS, f"-Djava.io.tmpdir={TMP}", f"-Dspark.local.dir={TMP}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--timeout-s", str(a.timeout_s),
           "--out-dir", str(out_dir), "--ref-dir", str(BUILD / "refs"),
           "--commit", commit_id(src_hash)]
    if a.corrupt_reference:
        cmd.append("--corrupt-reference")
    log = out_dir / f"{base}.log"
    steal0 = cpu_steal_s()
    with open(log, "w") as err:
        try:
            p = subprocess.run(cmd, cwd=ROOT, stdout=err, stderr=err, stdin=subprocess.DEVNULL,
                               timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            die(f"run exceeded {RUN_LIMIT_S} s (log: {log})")
    if p.returncode != 0 or not report_file.exists():
        sys.stderr.write(log.read_text()[-4000:])
        die(f"benchmark JVM exited with code {p.returncode} (log: {log})")

    report = json.loads(report_file.read_text())
    steal1 = cpu_steal_s()
    # Stolen CPU time slows every metric of a run on a shared host; it is
    # recorded so that outlying runs can be told apart from program changes.
    report["extra"]["cpu_steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    report_file.write_text(json.dumps(report, indent=1))
    if a.report:
        a.report.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(report_file, a.report)
    for f in report["failures"]:
        print(f"FAILED: {f}")
    width = max(len(k) for k in report["metrics"])
    for k, m in report["metrics"].items():
        v = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{k:<{width}}  {v:>16}  {m['unit']}")
    ex = report["extra"]
    print(f"# {a.workload} seed={a.seed} trace={a.trace}: {ex['untraced_passes']} untraced and "
          f"{ex['traced_passes']} traced passes, failed_frac={ex['failed_frac']:.4g}, "
          f"cpu_steal_s={ex['cpu_steal_s']}, report {report_file.relative_to(ROOT)}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
