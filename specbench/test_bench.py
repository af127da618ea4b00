#!/usr/bin/env python3
"""The benchmark's own tests: smoke-sized runs of every workload.

    python3 specbench/test_bench.py

Each workload runs twice per pass (--trace 0 and --trace 1). The tests
assert that the last line is the result object, that every metric
BENCHMARK.json names is printed with its unit and is finite, and that
the simulated and exactly counted metrics repeat bit for bit.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

FLEET_EXACT_E2E = ["ttft_p50_s", "ttft_p99_s", "tpot_p50_ms", "tpot_p99_ms",
                   "slo_attainment", "served_tok_s", "quality_top1"]
FLEET_EXACT_LAYER = [
    "core.decode_eval_calls", "core.prefill_eval_calls",
    "core.admit_eval_calls", "serving.decode_rounds", "serving.mean_batch",
    "serving.queue_delay_p99_s", "serving.router_spills",
    "serving.placement_skew", "serving.preemptions", "serving.rejected",
    "kvcache.evictions", "kvcache.hit_ratio", "kvcache.inserted_tokens",
    "kvcache.evicted_tokens", "obs.events", "obs.ring_wrapped"]
EXACT = {
    ("diurnal-fleet", 0): FLEET_EXACT_E2E,
    ("agentic-prefix", 0): FLEET_EXACT_E2E,
    ("live-reasoning", 0): ["quality_top1"],
    ("diurnal-fleet", 1): FLEET_EXACT_LAYER,
    ("agentic-prefix", 1): FLEET_EXACT_LAYER,
    ("live-reasoning", 1): ["core.loader_reuse_ratio",
                            "core.loader_tokens_loaded",
                            "model.kv_bytes_per_step"],
}


def run(workload, trace, seed=1):
    res = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


class WorkloadTest(unittest.TestCase):
    def check_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            first, second = run(workload, trace), run(workload, trace)
            for r in (first, second):
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertIs(r["correct"], True)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {n: m["unit"] for n, m in r["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in r["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
            for name in EXACT[(workload, trace)]:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 f"{workload} {name} repeats exactly")

    def test_diurnal_fleet(self):
        self.check_workload("diurnal-fleet")

    def test_agentic_prefix(self):
        self.check_workload("agentic-prefix")

    def test_live_reasoning(self):
        self.check_workload("live-reasoning")

    def test_seed_changes_inputs(self):
        for w in ("diurnal-fleet", "agentic-prefix"):
            a, b = run(w, 0, seed=1), run(w, 0, seed=2)
            self.assertNotEqual(a["metrics"]["served_tok_s"]["value"],
                                b["metrics"]["served_tok_s"]["value"], w)

    def test_unknown_workload_fails_without_result(self):
        res = subprocess.run(
            RUN + ["--workload", "nope",
                       "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
