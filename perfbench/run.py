#!/usr/bin/env python3
"""Builds the engine and the benchmark binary, runs one workload, prints the result.

    python3 perfbench/run.py --workload tpch_sf1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is a no-op once up to date. The benchmark
binary writes its full record (run context, every metric with unit and sample
count, operation totals) as its last stdout line; this script checks it
against BENCHMARK.json, saves it under <build root>/perfbench-results/ for
perfbench/bench_diff.py, and prints as its own last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Per-layer metrics a workload does not exercise read 0.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpch_sf1", "micro_sweep")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target", "swole_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def run_benchmark(binary, args, out_dir, tmp_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    if args.fault:
        cmd += ["--fault", args.fault]
    env = dict(os.environ)
    # JIT work directories, compiler temporaries and spill files stay inside
    # the build directory.
    env["TMPDIR"] = tmp_dir
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("benchmark binary printed no record")
    return json.loads(lines[-1])


def select_metrics(record, spec, trace):
    """The metrics the result line carries, validated against BENCHMARK.json."""
    key, produced = ("per_layer", record["per_layer"]) if trace else (
        "end_to_end", record["end_to_end"])
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    unknown = sorted(set(produced) - set(wanted))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json {key}: {unknown}")
    metrics = {}
    for name, unit in wanted.items():
        if name in produced:
            m = produced[name]
            if m["unit"] != unit:
                fail(f"{name}: unit {m['unit']} but BENCHMARK.json says {unit}")
            if m["value"] is None:
                fail(f"{name}: not a finite number")
            metrics[name] = {"value": m["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} not reported by {record['workload']}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-check: corrupt one reference answer")
    parser.add_argument("--fault", default="",
                        help="self-check: SWOLE_FAULT-style sites armed for "
                             "the measured pass only")
    args = parser.parse_args()

    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    results_dir = os.path.join(root, "perfbench-results")
    tmp_dir = os.path.join(root, "tmp")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    build(build_dir)

    record = run_benchmark(os.path.join(build_dir, "swole_perfbench"), args,
                        results_dir, tmp_dir)
    metrics = select_metrics(record, spec, args.trace)
    record["command"] = sys.argv[1:]
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    ctx = record["context"]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} error_rate={record['error_rate']:.6g} "
          f"simd={ctx['simd_backend']} load={ctx['loadavg_before']} -> "
          f"{ctx['loadavg_after']} record={os.path.join(results_dir, name)}")
    for warning in ctx["warnings"]:
        print(f"perfbench: WARNING: {warning}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
