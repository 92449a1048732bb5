#!/usr/bin/env python3
"""End-to-end benchmark of the dual-boundary stack.

Builds benchmark/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR/benchmark (default .bench_build/benchmark) under the
current directory, then runs one workload:

  python3 benchmark/run.py --workload echo-64c-512b --seed 1 --seconds 10 --trace 0

Every metric is printed as "name = value unit"; the last line of stdout is
the JSON result {correct, attempted, failed, metrics}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see benchmark/NOTES.md).

  python3 benchmark/run.py --self-check [--workload NAME] [--seed N]

checks determinism from outside: the simulated-clock metrics must be
byte-identical across two runs at one seed and must change at another seed,
and the traced run must reproduce the untraced one (it checks that itself
and reports correct=false otherwise).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["echo-64c-512b", "bulk-16k", "store-mixed", "churn-fault"]
SIM_METRICS = ["sim_ops_per_s", "sim_p50_us", "sim_p99_us", "host_bits_per_op"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds cio_bench; returns the binary path or None."""
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_root, "benchmark"))
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "cio_bench",
                      "-j", "4"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(build_dir, "cio_bench")


def run_binary(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (parsed result, result line) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(os.path.dirname(os.path.dirname(binary)),
                                       "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if echo and lines:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        log("benchmark exited with code %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("no JSON result line")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return None
    return result, lines[-1]


def self_check(binary, workloads, seed):
    ok = True
    for workload in workloads:
        a = run_binary(binary, workload, seed, 1, 0, echo=False)
        b = run_binary(binary, workload, seed, 1, 0, echo=False)
        c = run_binary(binary, workload, seed + 1, 1, 0, echo=False)
        t = run_binary(binary, workload, seed, 1, 1, echo=False)
        if None in (a, b, c, t):
            log("%s: a run failed" % workload)
            ok = False
            continue
        a, b, c, t = (r[0] for r in (a, b, c, t))
        sim = lambda r: {k: repr(r["metrics"][k]["value"]) for k in SIM_METRICS}
        same = sim(a) == sim(b)
        differs = all(sim(a)[k] != sim(c)[k] for k in SIM_METRICS)
        correct = a["correct"] and b["correct"] and c["correct"] and t["correct"]
        print("%-14s same-seed identical: %s, other seed differs: %s, "
              "traced run matches and all correct: %s" %
              (workload, same, differs, correct), flush=True)
        ok &= same and differs and correct
    print("self-check %s" % ("passed" if ok else "FAILED"), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return self_check(binary, [args.workload] if args.workload else
                          WORKLOADS, args.seed)
    outcome = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    if outcome is None:
        return 1
    print(outcome[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
