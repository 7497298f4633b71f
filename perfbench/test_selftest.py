#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

    python3 perfbench/test_selftest.py

Runs the smallest workload for one second three times: as is, which must
report `correct: true`; with one expected checksum corrupted, which must
report `correct: false` with at least one failed query; and with a
per-query limit no query meets, where the first timeout must mark every
later query of the run as failed.
"""
import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(*extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "concat", "--seed", "7",
           "--seconds", "1", "--trace", "0", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert p.returncode == 0, p.stdout + p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


class CorrectnessCheck(unittest.TestCase):
    def test_clean_run_is_correct(self):
        r = run()
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)

    def test_corrupted_expected_value_is_caught(self):
        r = run("--corrupt-reference")
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)

    def test_timeout_fails_the_rest_of_the_run(self):
        r = run("--timeout-s", "0.05")
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])


if __name__ == "__main__":
    unittest.main()
