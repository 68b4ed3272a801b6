#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks for every workload that
an untraced run prints exactly the end-to-end metrics of BENCHMARK.json and
a traced run exactly its per-layer metrics, each with its unit; that the
same seed generates identical inputs and another seed different ones; that
the oracle rejects an answer with one row dropped; and that a query the
engine answers without its sketch fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
OUT = os.path.join(HERE, "out", "test")
BINARY = None


def tiny_run(workload, seed=1, trace=0, extra=(), env=None):
    """(exit code, result line as dict, inputs digest) of a tiny run."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.05", "--trace", str(trace), "--scale", "0.05",
           "--out", OUT] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=120,
                          env=dict(os.environ, **(env or {})))
    lines = proc.stdout.decode().splitlines()
    digest = next(l.split("=", 1)[1] for l in lines
                  if l.startswith("# inputs_digest="))
    return proc.returncode, json.loads(lines[-1]), digest


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()
        if BINARY is None:
            raise RuntimeError("benchmark build failed")
        os.makedirs(OUT, exist_ok=True)

    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in expected}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = tiny_run(w)
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCH["end_to_end"])

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = tiny_run(w, trace=1)
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCH["per_layer"])
                spans = os.path.join(OUT, "%s_seed1_spans.jsonl" % w)
                with open(spans) as f:
                    first = json.loads(f.readline())
                self.assertEqual(
                    set(first), {"id", "parent", "op", "name", "start_ns",
                                 "end_ns", "self_ns", "derived"})

    def test_seed_determines_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, a = tiny_run(w, seed=7)
                _, _, b = tiny_run(w, seed=7)
                _, _, c = tiny_run(w, seed=8)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_oracle_rejects_dropped_row(self):
        for w in ("agg_read", "join_eager"):
            with self.subTest(workload=w):
                code, result, _ = tiny_run(w, extra=["--corrupt-query", "2"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_degraded_queries_fail_the_run(self):
        # Every maintenance round fails, so after the first insert the lazy
        # repair cannot bring the sketch current and the engine answers by a
        # plain scan: correct rows, but not an IMP answer.
        code, result, _ = tiny_run(
            "agg_read", env={"IMP_FAILPOINTS": "maintain.round=always"})
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
