"""Smoke test of the benchmark at tiny sizes (about half a minute):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Every workload must print every metric that BENCHMARK.json names, with its
unit, in the result line; the exact counters must repeat; and a directory
without the library's sources must make the benchmark fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> tuple[dict, str]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


class BenchmarkSmoke(unittest.TestCase):
    def assert_metrics(self, result: dict, wanted: list) -> None:
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float), metric["name"])

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result, text = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0, text)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, SPEC[section])
                    self.assertIn('"python"', text)
                    if trace:
                        self.assertIn("trace_overhead_s", text)
                        for layer in ("resolution", "surface", "contact", "spectral",
                                      "nash", "oracle", "cli"):
                            self.assertRegex(text, rf"\n{layer} +[0-9.]+ +[0-9]+")
                    else:
                        self.assertIn("failed_ratio: 0/", text)
                        self.assertIn("job_tail_ms is the p", text)
                        self.assertIn("host speed: reference kernel median", text)

    def test_exact_counters_repeat(self):
        first, _ = result_of(run("exact-sweep", 1))
        second, text = result_of(run("exact-sweep", 1))
        self.assertTrue(second["correct"], text)
        for name in ("resolution.divisors", "contact.strata", "spectral.page_entries"):
            self.assertEqual(first["metrics"][name], second["metrics"][name])
            self.assertGreater(first["metrics"][name]["value"], 0)

    def test_fails_without_library_sources(self):
        scratch = ROOT / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("exact-sweep", 0, cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
