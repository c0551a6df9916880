#!/usr/bin/env python3
"""Builds the ES2 simulator benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Values may be given as "--flag VALUE" or "--flag=VALUE". Unknown flags,
missing or malformed values and stray arguments exit with status 2 and
the usage text. The build (CMake, RelWithDebInfo, the simulator's own
src/ tree) goes to .bench_build/perfbench; its log goes to stderr, so the
last stdout line is the benchmark's JSON result. Traced runs write their
spans next to the build, under .bench_build/perfbench/spans/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "es2_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["micro_stream", "macro_stream", "storm_collapse"]


def int_in(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError("expected %d..%d, got %d" % (lo, hi, value))
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int_in(0, 2**63 - 1))
    p.add_argument("--seconds", type=int_in(1, 600))
    p.add_argument("--trace", type=int_in(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    run_args = [args.workload, args.seed, args.seconds, args.trace]
    if args.self_test:
        if any(v is not None for v in run_args):
            p.error("--self-test takes no other arguments")
    elif any(v is None for v in run_args):
        p.error("--workload, --seed, --seconds and --trace are all required")
    return args


def build():
    """Configures once, then builds incrementally. Returns success."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "es2_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    args = parse_args(argv)
    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    if args.self_test:
        cmd = [BINARY, "--self-test", "--reference", REFERENCE]
    else:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", REFERENCE, "--out", spans]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
