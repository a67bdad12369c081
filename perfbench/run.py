#!/usr/bin/env python3
"""Builds and runs the repository's benchmark from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call in a checkout configures and builds the repository's
libraries and the hsw_perfbench binary (CMake, Release) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build at the checkout
root. Build output goes to stderr. The last line of stdout is the result
JSON (correct, attempted, failed, metrics); the line before it stamps the
host and build fingerprint, including `git describe --always --dirty`.
Each result is also appended, with its fingerprint, to
<build>/results.jsonl, which perfbench/compare.py reads.

--self-test builds and runs the benchmark's own unit tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("survey-cold", "query-hot")
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def local_env():
    """The environment for child processes, with temporary files (the
    compiler's included) kept inside the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(targets):
    out = build_dir()
    cache = out / "CMakeCache.txt"
    source = f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}"
    if cache.exists() and source not in cache.read_text().splitlines():
        cache.unlink()  # configured for another checkout: start over
        shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
    if not cache.exists() or not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT, env=local_env())
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                    "--target", *targets],
                   check=True, stdout=sys.stderr, cwd=ROOT, env=local_env())


def git_revision():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def run(args):
    build(["hsw_perfbench"])
    out = build_dir()
    cmd = [str(out / "hsw_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--work", str(out / "work"), "--spans", str(out / "spans")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=local_env())
    if done.returncode != 0:
        sys.exit(f"hsw_perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("fingerprint "):
        sys.exit("hsw_perfbench printed no result")
    fingerprint = json.loads(lines[-2][len("fingerprint "):])
    fingerprint["git"] = git_revision()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("hsw_perfbench printed a malformed result")
    with open(out / "results.jsonl", "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "fingerprint": fingerprint, "result": result}) + "\n")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))


def self_test():
    build(["perfbench_tests"])
    sys.exit(subprocess.run([str(build_dir() / "perfbench_tests")], cwd=ROOT,
                            env=local_env()).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    try:
        run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        sys.exit(f"benchmark failed: {e}")


if __name__ == "__main__":
    main()
