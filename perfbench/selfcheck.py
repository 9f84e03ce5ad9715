#!/usr/bin/env python3
"""Failure-accounting self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seconds 4]

Runs three short benchmark runs through perfbench/run.py and checks that
failures are counted, never reported as successes:

  1. micro_sweep, traced, with jit_compile:1.0 armed: every operation of
     the traced run's JIT pass falls back to the interpreter, so failed ==
     the JIT operations attempted and error_rate is their share of all
     operations.
  2. micro_sweep with admission_reject:0.05 armed: every injected rejection
     is one failed operation (failed == injections) and the run completes.
  3. micro_sweep with one reference answer corrupted: results compared
     against it count as mismatches, so correct is false.

Faults are armed for the measured pass only (set-up and the reference
answers stay fault-free). Exits 0 when all three hold.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seconds, extra, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    cmd += extra
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr[-400:]}"
    match = re.search(r"record=(\S+)", proc.stdout)
    if match is None:
        return None, "no record path in output"
    with open(match.group(1)) as f:
        return json.load(f), ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    results = []

    record, err = run("micro_sweep", args.seconds,
                      ["--fault", "jit_compile:1.0"], trace=1)
    if record is None:
        results.append(("jit_compile:1.0 on micro_sweep", False, err))
    else:
        jit_ops = int(record["context"]["notes"]["jit_operations"])
        share = jit_ops / record["attempted"]
        ok = (record["correct"] and jit_ops > 0 and
              record["failed"] == jit_ops and
              abs(record["error_rate"] - share) < 1e-12)
        results.append(("jit_compile:1.0 on micro_sweep", ok,
                        f"failed={record['failed']} jit_operations={jit_ops} "
                        f"error_rate={record['error_rate']:.4f} "
                        f"injected share={share:.4f}"))

    record, err = run("micro_sweep", args.seconds,
                      ["--fault", "admission_reject:0.05"])
    if record is None:
        results.append(("admission_reject:0.05 on micro_sweep", False, err))
    else:
        injected = record["fault_injected"]
        ok = (record["correct"] and injected > 0 and
              record["failed"] == injected)
        results.append(("admission_reject:0.05 on micro_sweep", ok,
                        f"failed={record['failed']} injected={injected} "
                        f"attempted={record['attempted']} "
                        f"error_rate={record['error_rate']:.4f}"))

    record, err = run("micro_sweep", args.seconds, ["--corrupt-oracle"])
    if record is None:
        results.append(("corrupted reference answer", False, err))
    else:
        ok = (not record["correct"] and record["mismatched"] > 0 and
              record["failed"] >= record["mismatched"])
        results.append(("corrupted reference answer", ok,
                        f"correct={record['correct']} "
                        f"mismatched={record['mismatched']} "
                        f"failed={record['failed']}"))

    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
