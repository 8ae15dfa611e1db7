#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on the tiny size of each workload.

    python3 perfbench/test_perfbench.py      # from the repository root

Builds cbsim_perfbench like run.py does (first run: about a minute).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
CRASH_SEED = "12071461168978180166"  # recovery-loop trial 247, see README.md

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout


def result(*args):
    code, out = bench(*args)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1]), out


class Tiny(unittest.TestCase):
    def check(self, workload, trace, kind):
        res, _ = result("--workload", workload, "--size", "tiny", "--seed",
                        "5", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(set(res),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in SPEC[kind]])
        for m in SPEC[kind]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        return res["metrics"]

    def test_end_to_end_metrics_are_never_zero(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 0, "end_to_end")
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_spans_cover_the_timed_region(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1, "per_layer")
                coverage = metrics["trace.coverage_pct"]["value"]
                self.assertGreaterEqual(coverage, 90)
                self.assertGreater(metrics["sim.events"]["value"], 0)


class Recovery(unittest.TestCase):
    def test_known_crash_is_counted_and_the_rest_still_runs(self):
        res, out = result("--workload", "recovery-fuzz", "--seconds", "1")
        self.assertTrue(res["correct"])
        reps = res["failed"]
        self.assertGreaterEqual(reps, 3)
        # One crash per repetition, every other operation completed.
        self.assertEqual(res["attempted"] % reps, 0)
        self.assertLess(res["metrics"]["ok_share"]["value"], 1)
        self.assertIn(CRASH_SEED, out)


class Bare(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "halo-16k",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
