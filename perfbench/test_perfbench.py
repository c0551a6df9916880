#!/usr/bin/env python3
"""Self-tests for the benchmark. Run from the repository root:

  python3 perfbench/test_perfbench.py

They build the benchmark (like run.py) and check that bad command lines
exit 2, that the digest check trips on perturbed values (the binary's own
--self-test), that two same-seed runs print identical deterministic
metrics, that BENCHMARK.json lists exactly the metrics a run prints, and
that the benchmark fails without the simulator sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Host-time units; everything else a run prints is a deterministic count.
TIMED_UNITS = {"ns", "ms", "s", "sim_s/s", "MB"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CommandLine(unittest.TestCase):
    BAD = [
        ["--bogus"],
        ["--workload", "micro_stream", "--seed", "1", "--seconds", "1", "--trace", "0", "extra"],
        ["--workload", "micro_stream", "--seed"],
        ["--workload", "micro_stream", "--seed", "x", "--seconds", "1", "--trace", "0"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "micro_stream", "--seed", "1", "--seconds", "0", "--trace", "0"],
        ["--workload", "micro_stream", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--workload", "micro_stream", "--seed", "1", "--seconds", "1"],
        ["--work", "micro_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ]

    def test_run_py_rejects_bad_flags(self):
        for argv in self.BAD:
            proc = bench(*argv)
            self.assertEqual(proc.returncode, 2, argv)
            self.assertIn("usage", proc.stderr, argv)

    def test_binary_rejects_bad_flags(self):
        self.assertTrue(run.build())
        for argv in self.BAD + [["--seed=1", "--seed=2"], ["--self-test", "--seed", "1"]]:
            proc = subprocess.run([run.BINARY, *argv], cwd=ROOT, capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, argv)
            self.assertIn("usage", proc.stderr, argv)


class Benchmark(unittest.TestCase):
    def test_self_test(self):
        proc = bench("--self-test")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_same_seed_runs_agree_and_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            runs = [bench("--workload", "macro_stream", "--seed", "3", "--seconds", "1",
                          "--trace", trace) for _ in range(2)]
            for proc in runs:
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            a, b = (result(p) for p in runs)
            self.assertTrue(a["correct"] and b["correct"])
            self.assertEqual(list(a["metrics"]), [m["name"] for m in spec[key]])
            for name, m in a["metrics"].items():
                self.assertEqual(m["unit"], b["metrics"][name]["unit"])
                if m["unit"] in TIMED_UNITS or name.startswith("trace."):
                    continue
                self.assertEqual(m["value"], b["metrics"][name]["value"], name)

    def test_fails_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "micro_stream", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
