#!/usr/bin/env python3
"""Do two sets of full benchmark runs agree within the benchmark's bounds?

Usage, from the root of the repository:

    python3 perfbench/agree.py

Runs every workload of BENCHMARK.json ten times in each of two sets, each
run through perfbench/run.py with its own seed (set s, run r uses seed
1000*s + r + 1) and BENCHMARK.json's run_seconds. For every end-to-end
metric of every workload it reports each set's median and spread (the
distance between the first and third quartile over the median, as
statistics.quantiles(values, n=4) gives them) and checks that

  * every spread stays within the metric's bound,
  * the two sets' medians differ by no more than the bound, in either
    direction, and
  * the share of failed operations is the same in both sets.

Exit code 0 when everything agrees.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]

    results = {name: [[] for _ in range(SETS)] for name in names}
    for s in range(SETS):
        for workload in names:
            for r in range(RUNS):
                seed = 1000 * s + r + 1
                result = run(workload, seed, bench["run_seconds"])
                results[workload][s].append(result)
                values = " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"set {s} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}",
                      flush=True)

    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            cells = []
            for runs in sets:
                values = [run_["metrics"][name]["value"] for run_ in runs]
                medians.append(statistics.median(values))
                share = spread(values)
                ok = ok and share <= bound
                cells.append(f"median {medians[-1]:.6g} spread {share:.4f}"
                             f"{'' if share <= bound else ' (over bound)'}")
            drift = (medians[1] - medians[0]) / medians[0]
            ok = ok and abs(drift) <= bound
            print(f"  {name:14s} bound {bound:.2f} | " + " | ".join(cells) +
                  f" | drift {drift:+.4f}" +
                  ("" if abs(drift) <= bound else " (over bound)"))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same = shares[0] == shares[1]
        ok = ok and same and correct
        print(f"  failed share per set: {shares}{'' if same else ' (DIFFER)'}; "
              f"all correct: {correct}")

    print("\nagree" if ok else "\nDISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
