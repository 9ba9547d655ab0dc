#!/usr/bin/env python3
"""End-to-end checks of the benchmark command on tiny populations.

    python3 perfbench/test_run.py      (from the repository root)

Every workload, untraced and traced, must exit 0 and end with a result
line naming exactly the metrics BENCHMARK.json lists, with their units.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


class ResultLine(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, last = run(w["name"], trace)
                    self.assertEqual(code, 0, last)
                    result = json.loads(last)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    units = {m["name"]: m["unit"] for m in wanted}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)


if __name__ == "__main__":
    unittest.main()
