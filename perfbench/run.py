#!/usr/bin/env python3
"""Repository benchmark: one PIC workload, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build under the repository root), runs the named
workload in a fresh process of that binary, checks its outputs, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes the span trace to <build dir>/out/. Workloads, metrics and checks are
described in perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniform_ppc128", "lwfa_ppc8", "bunched_cluster", "relax_resilient")
# A run must end within 180 s; leave room for the build check and start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_cmd(cmd, timeout, **kwargs):
    """subprocess.run that, on timeout, kills the command's whole process group
    (a build's compiler children too) and waits for it."""
    with subprocess.Popen(cmd, preexec_fn=os.setpgrp, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another source tree cannot be reused.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                os.remove(cache)
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_bin",
                  "-j", jobs])
    with open(os.path.join(bdir, ".perfbench.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                proc = run_cmd(cmd, BUILD_TIMEOUT_S, stdout=log,
                               stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"perfbench: build step failed: {err}", file=sys.stderr)
                return None
            if proc.returncode != 0:
                print(f"perfbench: build failed ({' '.join(cmd)}); see {log_path}",
                      file=sys.stderr)
                return None
    binary = os.path.join(bdir, "perfbench_bin")
    return binary if os.path.exists(binary) else None


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_binary(binary, workload, seed, seconds, trace, out_dir):
    """Runs the binary once; returns (stdout lines, parsed summary) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    try:
        proc = run_cmd(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run did not finish: {err}", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: run printed no summary line", file=sys.stderr)
        return None
    return lines[:-1], summary


def reference_check(bdir, build_id, summary):
    """Digest and modeled metrics must repeat the first run of this workload,
    seed and build. Returns None on that first run (nothing to compare)."""
    ref_dir = os.path.join(bdir, "perfbench-refs")
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, f"{summary['workload']}-seed{summary['seed']}.json")
    current = {"build": build_id, "digest": summary["digest"],
               "modeled": summary["modeled"]}
    try:
        with open(path) as f:
            ref = json.load(f)
    except (OSError, json.JSONDecodeError):
        ref = None
    if ref is not None and ref.get("build") == build_id:
        return ref["digest"] == current["digest"] and ref["modeled"] == current["modeled"]
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(current, f)
    os.replace(tmp, path)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    started = time.monotonic()
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 3
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    print(f"perfbench: build ready in {time.monotonic() - started:.1f} s")

    result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                        out_dir)
    if result is None:
        return 1
    lines, summary = result
    for line in lines:
        print(line)

    attempted = int(summary["attempted"])
    failed = int(summary["failed"])
    same = reference_check(bdir, file_sha256(binary), summary)
    if same is not None:
        attempted += 1
        if not same:
            failed += 1
            print("CHECK FAILED: digest or modeled metrics differ from the first "
                  "run of this workload, seed and build")
    metrics = summary["metrics"]
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            print(f"perfbench: metric {name} is not a finite number", file=sys.stderr)
            return 1
    print(f"perfbench: failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} output checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
