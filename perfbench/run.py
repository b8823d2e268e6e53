#!/usr/bin/env python3
"""The simulator's benchmark: build, run one workload, print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig11_rwp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --short        # every workload, reduced, every check

The first call configures and builds frugal_perfbench in .bench_build/ (the
repository's library in its tier-1 RelWithDebInfo configuration plus
perfbench/src). Later calls rebuild only what changed.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics. The
line before it records the run's provenance. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "frugal_perfbench")
WORKLOADS = ["fig11_rwp", "many_events", "energy_lifetime", "metro_10k"]
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (idempotent) and builds frugal_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise BenchError(f"{ROOT} holds no simulator sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "frugal_perfbench", "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as error:
            raise BenchError(f"cannot run {step[0]}: {error}") from error
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")


def git_provenance():
    """(commit, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        if commit.returncode != 0:
            return "unknown", "unknown"
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        dirty = "unknown" if status.returncode != 0 else str(int(bool(status.stdout.strip())))
        return commit.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def run_program(argv):
    """Runs frugal_perfbench; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(
            [PROGRAM] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the program and waited for it.
        raise BenchError(f"frugal_perfbench did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run_one(args, commit, dirty):
    argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--git-commit", commit, "--git-dirty", dirty,
    ]
    code, lines = run_program(argv)
    if code != 0 or result_of(lines) is None:
        sys.stderr.write("\n".join(lines) + "\n")
        raise BenchError(f"frugal_perfbench failed on {args.workload} (exit code {code})")
    print("\n".join(lines))
    return 0


def run_short(args, commit, dirty):
    """Every workload at reduced size, traced and untraced, every check."""
    code, lines = run_program(["--self-test"])
    print("\n".join(lines))
    ok = code == 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_program([
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", "1", "--trace", str(trace), "--short",
                "--git-commit", commit, "--git-dirty", dirty,
            ])
            result = result_of(lines)
            passed = code == 0 and result is not None and result["correct"]
            ok = ok and passed
            summary[f"{workload}/trace{trace}"] = passed
            print("\n".join(lines))
    print(json.dumps({"short": True, "correct": ok, "runs": summary}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed base")
    parser.add_argument("--seconds", type=float, default=10,
                        help="how long to measure (whole rounds, at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="run every workload at reduced size with every check")
    args = parser.parse_args()
    if args.short == bool(args.workload):
        parser.error("give exactly one of --workload and --short")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        commit, dirty = git_provenance()
        if args.short:
            return run_short(args, commit, dirty)
        return run_one(args, commit, dirty)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
