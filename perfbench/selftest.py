#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice in separate processes, and bunched_cluster
once more traced, each with the shortest measurement (two repetitions).
The traced run repeats bunched_cluster at 1 host thread in the same process
and fails a check if its digest or modeled metrics differ from the runs at the
workload's fixed thread count. Passes when every run's output checks pass and
every modeled metric and the simulation digest are bit-identical between the
runs. Exits 0 on success, 1 on a mismatch or failed check, 3 when the build
fails.
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build and run helpers)


def main():
    parser = argparse.ArgumentParser(description="perfbench determinism self-test")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    bdir = run.build_dir()
    binary = run.build(bdir)
    if binary is None:
        return 3
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cases = [(w, 0) for w in run.WORKLOADS for _ in range(2)]
    cases.append(("bunched_cluster", 1))
    first = {}
    ok = True
    for workload, trace in cases:
        result = run.run_binary(binary, workload, args.seed, 0, trace, out_dir)
        if result is None:
            return 1
        summary = result[1]
        label = f"{workload} ({'traced, with a 1-thread repetition' if trace else 'untraced'})"
        if summary["failed"]:
            print(f"FAIL {label}: {summary['failed']} output checks failed")
            ok = False
        key = (summary["digest"], summary["modeled"])
        if workload not in first:
            first[workload] = key
            print(f"ok   {label}: digest {summary['digest']}")
        elif key != first[workload]:
            diff = [k for k, v in summary["modeled"].items()
                    if first[workload][1].get(k) != v]
            print(f"FAIL {label}: digest {summary['digest']} vs {first[workload][0]}, "
                  f"modeled metrics differing: {diff}")
            ok = False
        else:
            print(f"ok   {label}: bit-identical to the first run")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
