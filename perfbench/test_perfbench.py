#!/usr/bin/env python3
"""Self-test of the fxtraf benchmark at smoke sizes (well under a minute).

    python3 perfbench/test_perfbench.py

Builds fxbench like run.py does, then checks that every workload prints
every metric BENCHMARK.json names, with its unit, in both modes; that a
wrong pin gives error_rate 1 and a nonzero exit; and that run.py fails
without printing a result where the fxtraf sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORK_DIR = run.BUILD_DIR / "selftest"


def smoke(workload, trace=0, pins=run.PINS, extra=()):
    command = [str(run.BINARY), "--workload", workload, "--smoke",
               "--seed", "1", "--seconds", "0.2", "--trace", str(trace),
               "--pins", str(pins), *extra]
    done = subprocess.run(command, cwd=run.ROOT, text=True,
                          capture_output=True, timeout=120)
    return done, run.last_json(done.stdout)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("fxbench build failed")
        WORK_DIR.mkdir(parents=True, exist_ok=True)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        printed = result["metrics"]
        self.assertEqual(sorted(printed), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))

    def test_every_metric_printed_with_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done, result = smoke(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, declared)
                    self.assertIn("error_rate", done.stdout)
                    if trace == 0:
                        for m in declared:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_wrong_pin_fails_every_trial(self):
        for workload in ("serial-packet", "flow-scale"):
            with self.subTest(workload=workload):
                done, _ = smoke(workload, extra=["--print-pins"])
                self.assertEqual(done.returncode, 0, done.stderr)
                wrong = []
                for line in done.stdout.splitlines():
                    fields = line.split("\t")
                    if len(fields) == 6 and fields[4] == "packets":
                        fields[5] = str(int(fields[5]) + 1)
                        wrong.append("\t".join(fields))
                self.assertTrue(wrong)
                pins = WORK_DIR / f"wrong-{workload}.tsv"
                pins.write_text("\n".join(wrong) + "\n")
                done, result = smoke(workload, pins=pins)
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("pin packets", done.stderr)

    def test_fails_without_sources(self):
        alone = WORK_DIR / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", alone)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, alone / path)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serial-packet",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, text=True, capture_output=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
