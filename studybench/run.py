#!/usr/bin/env python3
"""Study benchmark: builds the studybench package from source, runs one workload, and prints
the result as one JSON object on the last line of stdout.

    python3 studybench/run.py --workload fleet_year --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR if set (relative paths
are taken from the repository root), else to .bench_build. See studybench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TYPE = "Release"
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail_setup(message):
    print(f"studybench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs, "--target", "studybench",
                    "studybench_test"], check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([str(out_dir / "studybench_test"), "--gtest_brief=1"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def git_rev():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown(not-a-git-checkout)"


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail_setup("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail_setup(f"build failed: {error}")
    expected = declared_metrics(args.trace == 1)

    command = [str(out_dir / "studybench"), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--build-type", BUILD_TYPE, "--git-rev", git_rev()]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as error:
        stdout = error.stdout.decode() if isinstance(error.stdout, bytes) else (error.stdout or "")
        stderr, code = "timed out", None
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n") if stdout else []

    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines.pop())
        except json.JSONDecodeError:
            result = None
    if code == 2 and result is None:
        fail_setup(stderr.strip() or "bad arguments")
    for line in lines:
        print(line)
    if result is None:
        # The binary died (a study aborted, or the run timed out) before its result: the
        # studies it finished count as they printed, and the one in flight as failed.
        finished = [line for line in lines if line.startswith(("study ", "pair "))]
        wrong = sum(1 for line in finished if "WRONG" in line)
        print(f"studybench: run failed (exit code {code}); no result")
        result = {"correct": False, "attempted": len(finished) + 1, "failed": wrong + 1,
                  "metrics": {}}
    elif sorted(result["metrics"]) != sorted(expected):
        print("studybench: the metrics printed do not match BENCHMARK.json")
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
