"""The benchmark's own tests: run from the root of a checkout with

    python3 perfbench/selfcheck.py

They run every workload at tiny width (d 32, 1024 hash buckets), so the
whole harness (launch, parsing, aggregation, output check, reporting) is
exercised in well under a minute. Hand-made spans pin the arithmetic, and
deliberately broken runs show that failures are counted, not dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans as sp  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quiet_benchmark(*args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.benchmark(ROOT, *args, **kwargs)


class SpecFile(unittest.TestCase):
    def test_shape(self):
        c = spec()
        self.assertEqual(set(c), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(c["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= c["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in c["workloads"]], list(run.WORKLOADS))
        names = []
        for w in c["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in c["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in c["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in c["end_to_end"] + c["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in c["end_to_end"]))

    def test_schedule_fits(self):
        """4 + 22 x workloads runs, each run_seconds plus about 6 s of preparation."""
        c = spec()
        runs = 4 + 22 * len(c["workloads"])
        self.assertLess(runs * (c["run_seconds"] + 6), 3420)


class Arithmetic(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.0]
        q1, med, q3 = sp.quartiles(values)
        self.assertEqual((q1, q3), tuple(statistics.quantiles(values, n=4)[0::2]))
        self.assertEqual(med, statistics.median(values))
        self.assertEqual(sp.quartiles([2.5]), (2.5, 2.5, 2.5))

    def hand_made(self):
        # cli.import [0,1]; cli.main [1,10] > pretrain.train [2,6] > tensor.backward [3,4];
        # pretrain.save_checkpoint [7,8] inside cli.main.
        spans = [
            ["cli.import", 0.0, 1.0, -1, {}],
            ["cli.main", 1.0, 10.0, -1, {}],
            ["pretrain.train", 2.0, 6.0, 1, {"train_chunks": 8, "epochs": 2}],
            ["tensor.backward", 3.0, 4.0, 2, {}],
            ["pretrain.evaluate_dev", 5.0, 5.5, 2, {"dev_chunks": 3}],
            ["pretrain.save_checkpoint", 7.0, 8.0, 1, {"bytes": 10}],
        ]
        return sp.Command("pretrain", launched=-0.5, exited=10.5, exit_code=0,
                          rss_kb=2048, started=0.0, spans=spans)

    def test_self_time_coverage_overhead(self):
        cmd = self.hand_made()
        table = sp.self_times([cmd])
        self.assertAlmostEqual(table["pretrain.train"]["self_s"], 4.0 - 1.0 - 0.5)
        self.assertAlmostEqual(table["cli.main"]["self_s"], 9.0 - 4.0 - 1.0)
        # layer spans: import 1 + train 4 + save 1, over 10 s in process
        self.assertAlmostEqual(sp.coverage(cmd), 0.6)
        self.assertAlmostEqual(sp.process_overhead_s(cmd), 1.0)

    def test_end_to_end_from_spans(self):
        prep = sp.Command("prep", launched=-2.0, exited=-1.0, exit_code=0, rss_kb=1024,
                          started=-1.9, spans=[["cli.main", -1.8, -1.1, -1, {}]])
        e2e = sp.end_to_end([prep, self.hand_made()], "pretrain")
        self.assertAlmostEqual(e2e["setup_s"], 2.5)
        self.assertAlmostEqual(e2e["wall_s"], 12.5)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(e2e["train_items_per_s"], 16 / 4.0)
        self.assertAlmostEqual(e2e["eval_items_per_s"], 3 / 0.5)


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        c = spec()
        for workload in run.WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    line = quiet_benchmark(workload, 3, 1, trace, run.TINY)
                    self.assertEqual(set(line), {"correct", "attempted", "failed",
                                                 "metrics"})
                    self.assertTrue(line["correct"], line)
                    self.assertEqual(line["failed"], 0)
                    self.assertEqual(set(line["metrics"]), {m["name"] for m in c[section]})
                    for m in c[section]:
                        self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
                    if not trace:
                        for name, metric in line["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_changed_bytes_fail_the_output_check(self):
        """A later run of the same source and seed must reproduce the bytes."""
        first = quiet_benchmark("finetune-frozen", 5, 1, False, run.TINY)
        self.assertTrue(first["correct"], first)
        probe = run.Run(ROOT, "finetune-frozen", 5, 1, False, run.TINY)
        probe.environment = run.environment(ROOT, 5)
        path = probe.digest_path()
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        stored["ft/predictions.csv"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh)
        try:
            line = quiet_benchmark("finetune-frozen", 5, 1, False, run.TINY)
        finally:
            os.unlink(path)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 2)  # finetune, once in each of two iterations
        self.assertEqual(line["metrics"], {})

    def test_failing_command_is_counted(self):
        saved = run.FINETUNE_FLAGS
        run.FINETUNE_FLAGS = saved + ["--lr", "1.0"]  # outside the allowed range: exit 2
        try:
            line = quiet_benchmark("finetune-unfrozen", 6, 1, False, run.TINY)
        finally:
            run.FINETUNE_FLAGS = saved
        self.assertFalse(line["correct"])
        # per iteration: finetune fails and evaluate is not run; two iterations
        self.assertEqual(line["failed"], 4)
        self.assertEqual(line["attempted"], 2 + 4)  # preparation prep + pretrain

    def test_duplicate_prediction_ids_fail(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as out:
            os.makedirs(os.path.join(out, "ft"))
            os.makedirs(os.path.join(out, "ev"))
            with open(os.path.join(out, "ft/predictions.csv"), "w", encoding="utf-8") as fh:
                fh.write("example_id,target\na,climate\na,climate\n")
            with open(os.path.join(out, "ev/metrics.csv"), "w", encoding="utf-8") as fh:
                fh.write("target,weighted_f1\nall,0.5\n")
            fake = type("FakeRun", (), {"inputs": {"test_ids": ["a", "b"]}})()
            problems = run.WORKLOADS["finetune-frozen"]().check(fake, out)
        self.assertEqual([cmd for cmd, _ in problems], ["finetune"])


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pretrain-paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
