#!/usr/bin/env python3
"""Benchmark entry point for the HASH retiming system.

    python3 perfbench/run.py --workload synth|serve|verify --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck [--seed N]

Run from the root of a checkout.  Builds the benchmark and the system's
executables from source with dune, runs one workload and passes its
report through; the last line of standard output is one JSON object
with the metrics.  Exit status is non-zero on any output mismatch or
memo-guard violation, and when the system cannot be built.

`--workload all` runs the three workloads untraced and traced, printing
every end-to-end and per-layer metric, the ledgers, and the tracing
overhead (traced against untraced throughput).  `--selfcheck` runs each
workload twice with one seed and fails unless the exact counts
(rule applications, certificate bytes, cache outcomes, rejection codes,
verdicts) agree.  HELD_OUT_SEED is kept for validating later claims on
a seed no change was tuned on.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join("_build", "default")
MAIN = os.path.join(BUILD, "perfbench", "main.exe")
SERVE = os.path.join(BUILD, "bin", "serve.exe")
CHECK = os.path.join(BUILD, "bin", "check.exe")
WORKLOADS = ["synth", "serve", "verify"]
HELD_OUT_SEED = 20261017
RUN_TIMEOUT_S = 170


def build():
    targets = ["./perfbench/main.exe", "./bin/serve.exe", "./bin/check.exe"]
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def run_bench(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    scratch = os.path.join("perfbench", "_run", str(os.getpid()))
    cmd = [
        MAIN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--check-exe", CHECK, "--serve-exe", SERVE, "--scratch", scratch,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", 124
        sys.stderr.write("perfbench: run timed out\n")
    finally:
        # the daemon and checker processes share the run's process
        # group: make sure none outlives it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, os.path.dirname(scratch)))
        except OSError:
            pass
    return code, out.splitlines()


def result_of(lines):
    if not lines or not lines[-1].startswith("{"):
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def traced(workload, seed, seconds):
    """A traced run: the named workload for the full time, then one short
    pass of each other workload, each in its own process, so that every
    layer is measured on the workload that exercises it.  Prints the
    reports and one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in [workload] + [x for x in WORKLOADS if x != workload]:
        c, lines = run_bench(w, seed, seconds if w == workload else 0, 1)
        print("\n".join(lines[:-1]))
        res = result_of(lines)
        if res is None:
            sys.stderr.write("perfbench: the %s run printed no result\n" % w)
            return c or 1
        code = code or c
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(res["metrics"])
    print(json.dumps(merged), flush=True)
    return code


def metric_lines(lines):
    """The report's '  name value unit' lines, as a dict."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            try:
                found[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return found


def signatures(lines):
    return [line for line in lines if line.startswith("signature ")]


def run_all(seed, seconds):
    failed = False
    for w in WORKLOADS:
        code, plain = run_bench(w, seed, seconds, 0)
        print("\n".join(plain[:-1]))
        code_t, with_spans = run_bench(w, seed, seconds, 1)
        print("\n".join(with_spans[:-1]))
        a = metric_lines(plain).get("throughput_per_s")
        b = metric_lines(with_spans).get("throughput_per_s")
        if a and b:
            print("tracing overhead on %s: throughput %.6g untraced, %.6g traced "
                  "(%+.2f %%)" % (w, a, b, 100.0 * (a - b) / a))
        failed = failed or code != 0 or code_t != 0
    return 1 if failed else 0


def selfcheck(seed):
    failed = False
    for w in WORKLOADS:
        runs = [run_bench(w, seed, 1, 0) for _ in range(2)]
        if any(code != 0 for code, _ in runs):
            print("selfcheck %s: a run failed" % w)
            failed = True
            continue
        a, b = (signatures(lines) for _, lines in runs)
        same = a == b and len(a) > 0
        print("selfcheck %s: %s" % (w, "identical exact counts" if same else "MISMATCH"))
        for line in a:
            print("  " + line)
        if not same:
            for line in b:
                print("  second run: " + line)
        failed = failed or not same
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if not args.selfcheck and args.workload is None:
        p.error("--workload or --selfcheck is required")
    build()
    if args.selfcheck:
        sys.exit(selfcheck(args.seed))
    if args.workload == "all":
        sys.exit(run_all(args.seed, args.seconds))
    if args.trace == 0:
        code, lines = run_bench(args.workload, args.seed, args.seconds, 0)
        print("\n".join(lines), flush=True)
        if not result_of(lines):
            sys.stderr.write("perfbench: the run printed no result\n")
            sys.exit(code or 1)
        sys.exit(code)
    sys.exit(traced(args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    main()
