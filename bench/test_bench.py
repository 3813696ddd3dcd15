"""Self-tests for the benchmark (stdlib unittest).

    python3 -m unittest discover -s bench -v

They run every workload at smoke size, inject faults that the output
checks must count, and hold the printed metric names to BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run
import tracer as tracing
from workloads import WORKLOADS

from nextstep import lookupdb
from nextstep.engine import Engine
from nextstep.lookupdb import LookupDB

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

SMOKE = {
    "mix-context": dict(size=12, replicas=2),
    "churn-baseline": dict(size=600, replicas=2),
    "checkpoint": dict(size=12, replicas=2, checkpoint_every=40),
}


def smoke(name: str, seed: int = 1, trace: bool = False, lines: list | None = None) -> dict:
    workload = replace(WORKLOADS[name], **SMOKE[name])
    log = (lambda *_: None) if lines is None else lines.append
    with tempfile.TemporaryDirectory() as out:
        return run.run_workload(workload, seed, 0.001, trace, Path(out), log)


class SmokeTest(unittest.TestCase):
    def test_every_workload_both_modes(self):
        for name in WORKLOADS:
            for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = smoke(name, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(list(result["metrics"]), names)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))

    def test_end_to_end_metrics_are_never_zero(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = smoke(name)["metrics"]
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_context_scoring_idle_on_churn_baseline(self):
        metrics = smoke("churn-baseline", trace=True)["metrics"]
        self.assertEqual(metrics["engine.context_fit_calls"]["value"], 0)
        self.assertGreater(metrics["lookupdb.record_contexts_calls"]["value"], 0)

    def test_accuracy_and_digests_repeat_for_a_seed(self):
        first, second = [], []
        a = smoke("mix-context", seed=4, lines=first)
        b = smoke("mix-context", seed=4, lines=second)
        for key in ("cum_accuracy", "tail_accuracy"):
            self.assertEqual(a["metrics"][key]["value"], b["metrics"][key]["value"])
        digests = [[line for line in lines if "digest" in line] for lines in (first, second)]
        self.assertEqual(len(digests[0]), 2)
        self.assertEqual(digests[0], digests[1])


class FaultTest(unittest.TestCase):
    def test_corrupted_snapshot_line_is_counted(self):
        original = lookupdb.write_snapshot

        def corrupting(db, alpha, theta, path):
            original(db, alpha, theta, path)
            text = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
            text[1] = text[1].replace(" p=", " p=0")  # parses, re-dumps differently
            Path(path).write_text("".join(text), encoding="utf-8")

        with mock.patch.object(lookupdb, "write_snapshot", corrupting):
            result = smoke("checkpoint")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_match_set_is_counted(self):
        original = LookupDB.matching_entries

        def dropping(self, window, offset=0):
            return original(self, window, offset)[1:]

        with mock.patch.object(LookupDB, "matching_entries", dropping):
            result = smoke("churn-baseline")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_raising_step_is_counted(self):
        original = Engine.learn
        calls = []

        def flaky(self, observation):
            calls.append(None)
            if len(calls) == 50:
                raise RuntimeError("injected")
            return original(self, observation)

        with mock.patch.object(Engine, "learn", flaky):
            result = smoke("mix-context")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class TracerTest(unittest.TestCase):
    def test_every_patch_is_restored(self):
        def current():
            return (Engine.predict, LookupDB.matching_entries, lookupdb.dump_snapshot)

        originals = current()
        smoke("checkpoint", trace=True)
        self.assertEqual(tracing.leftover_patches(), [])
        self.assertEqual(current(), originals)

    def test_missing_function_is_reported_absent(self):
        gone = ("engine.gone", "nextstep.engine", None, "no_such_function")
        lines: list[str] = []
        with mock.patch.object(tracing, "TIMED", tracing.TIMED + (gone,)):
            result = smoke("mix-context", trace=True, lines=lines)
        self.assertTrue(result["correct"])
        self.assertIn("# absent layer functions: engine.gone", lines)

    def test_self_time_excludes_children(self):
        totals = tracing.LayerTotals()
        spans = [("outer", 0, 100, -1, 1), ("inner", 10, 40, 0, 1), ("inner", 50, 60, 0, 1)]
        totals.add(spans, {}, {})
        self.assertEqual(totals.self_ns["outer"], 60)
        self.assertEqual(totals.total_ns["inner"], 40)
        self.assertEqual(totals.calls["inner"], 2)


class CommandTest(unittest.TestCase):
    def test_command_prints_the_declared_metrics_last(self):
        command = SPEC["command"] + [
            "--workload", "mix-context", "--seed", "3", "--seconds", "0.001", "--trace", "0",
        ]
        done = subprocess.run(
            [sys.executable] + command[1:], cwd=run.ROOT, capture_output=True, text=True,
            timeout=170,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        self.assertTrue(any(line.startswith("# nproc=") for line in lines))
        result = json.loads(lines[-1])
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(result["metrics"]), END_TO_END)
        self.assertTrue(result["correct"])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "mix-context", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
