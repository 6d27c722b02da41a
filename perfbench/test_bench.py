#!/usr/bin/env python3
"""Self-test of the repo benchmark (short mode, a few seconds each).

    python3 perfbench/test_bench.py

Checks, for every workload in BENCHMARK.json, that a short untraced
run prints every end-to-end metric and a short traced run every
per-layer metric, each with the unit BENCHMARK.json gives, with no
failed operation; that the obs counts of a traced run repeat exactly
in a second process; that wrong expected digests make every
operation fail (error rate 1); and that the benchmark refuses to run
where the program's sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
BUILD = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace, expected):
        r = result(run_bench("--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--short"))
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
        for v in r["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, SPEC["per_layer"])


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat_across_processes(self):
        # Within a run the benchmark already requires exact repeats;
        # two processes on two pool workers must agree as well.
        counts = []
        for _ in range(2):
            r = result(run_bench("--workload", "mix-sweep", "--seed", "3",
                                 "--seconds", "1", "--trace", "1",
                                 "--short"))
            self.assertTrue(r["correct"])
            counts.append({k: v["value"] for k, v in r["metrics"].items()
                           if v["unit"] == "count"
                           and k != "io.sink_queue_high_water"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["sim.acts"], 0)


class DigestGate(unittest.TestCase):
    def test_wrong_digest_fails_every_operation(self):
        with open(os.path.join(HERE, "digests.txt")) as recorded:
            lines = [l for l in recorded if l.startswith("charz short 1 ")]
        self.assertTrue(lines, "no recorded short-mode charz digests")
        os.makedirs(BUILD, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", dir=BUILD, suffix=".txt",
                                         delete=False) as f:
            for l in lines:
                *head, digest = l.split()
                wrong = int(digest, 16) ^ 1
                f.write(" ".join(head) + f" {wrong:016x}\n")
        try:
            r = result(run_bench("--workload", "charz", "--seed", "1",
                                 "--seconds", "1", "--trace", "0",
                                 "--short", "--digests", f.name))
        finally:
            os.unlink(f.name)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])
        self.assertEqual(r["metrics"]["success_rate"]["value"], 0)


class MissingSources(unittest.TestCase):
    def test_refuses_without_program(self):
        os.makedirs(BUILD, exist_ok=True)
        d = tempfile.mkdtemp(dir=BUILD)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "charz", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=d, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
