#!/usr/bin/env python3
"""End-to-end admission benchmark: build, run one workload, check the result.

Run from the repository root:

    python3 perfbench/run.py --workload attest_fleet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the identxx library from
src/ plus the benchmark binary) in Release mode under $CARGO_TARGET_DIR,
default .bench_build/; later calls rebuild incrementally.  Build output goes
to stderr.  The binary's report goes to stdout, and its last line is the
result object, printed only after its metric names and units were checked
against BENCHMARK.json.  --self-test builds and runs the benchmark's own
tests instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, env=env)
        except (OSError, subprocess.CalledProcessError) as err:
            fail(f"build failed: {err}")
    return os.path.join(bdir, target)


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip() + (
                "-dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree:" + digest.hexdigest()[:16]


def check_result(line, trace):
    """Parse the result line and match its metrics to BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not a result object: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"benchmark binary exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    check_result(lines[-1], args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
