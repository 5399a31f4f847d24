"""Self-test of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. Each workload of BENCHMARK.json, and the
perfbench-only kv-lazy workload, runs in its short mode (two seconds,
GC-activity floor off), untraced and traced; the test checks that
the last output line parses, passes the correctness gate, and carries every
metric of BENCHMARK.json with its unit. A last case checks that the command
fails without printing a result when the collector sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--short"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for m in wanted:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])

    def test_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["warehouse", "kv"])
        for name in names + ["kv-lazy"]:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)


class BareCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "kv",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
