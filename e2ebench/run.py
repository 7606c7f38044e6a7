#!/usr/bin/env python3
"""End-to-end benchmark of the Stratica engine.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload tpch_cstore --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --smoke      # all workloads at tiny scale, oracle on
    python3 e2ebench/run.py --selftest   # self-tests of the benchmark's own code

A run builds the engine and the benchmark from source with CMake (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload in one process,
stores the full record under .bench_results/, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. Compare two sets of records with e2ebench/bench_diff.py.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not gate: meter_dashboard
# is too unsteady on a shared host for a bound (README.md). --smoke covers them.
UNGATED_WORKLOADS = ["meter_dashboard"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configure (once) and build `target`; returns the binary path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return None
    return os.path.join(out, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS


def run_binary(binary, args):
    """Run the benchmark binary; returns its parsed last stdout line or None."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log("benchmark exited with", proc.returncode)
        return None
    return json.loads(lines[-1])


def contract_line(record, names):
    """The result line: exactly the metrics BENCHMARK.json declares, in order."""
    metrics = {}
    for name in names:
        if name not in record["metrics"]:
            raise KeyError("benchmark did not report " + name)
        metrics[name] = record["metrics"][name]
    return {"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def save_record(record, workload, seed, trace):
    out = os.path.join(ROOT, ".bench_results", workload)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "seed%s-trace%d-%d-%d.json" % (seed, trace, int(time.time()),
                                                           os.getpid()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def run_one(args):
    spec = load_spec()
    if args.workload not in workload_names(spec):
        log("unknown workload:", args.workload)
        return 2
    binary = build("e2e_bench")
    if not binary:
        return 1
    record = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if record is None:
        return 1
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    line = contract_line(record, names)
    log("record:", save_record(record, args.workload, args.seed, args.trace))
    if record["meta"].get("errors"):
        log("failures:", json.dumps(record["meta"]["errors"]))
    print(json.dumps(line))
    return 0


def smoke():
    """Every workload, untraced and traced, at tiny scale for one second."""
    spec = load_spec()
    binary = build("e2e_bench")
    if not binary:
        return 1
    ok = True
    for workload in workload_names(spec):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            start = time.time()
            record = run_binary(binary, ["--workload", workload, "--seed", "1", "--seconds",
                                         "1", "--trace", str(trace), "--tiny"])
            good = record is not None and record["correct"] and record["failed"] == 0
            if good:
                try:
                    contract_line(record, [m["name"] for m in spec[kind]])
                except KeyError as e:
                    log(e)
                    good = False
            ok = ok and good
            log("smoke %-16s trace=%d %-4s %.1fs attempted=%s" % (
                workload, trace, "ok" if good else "FAIL", time.time() - start,
                record and record["attempted"]))
    return 0 if ok else 1


def selftest():
    binary = build("e2e_selftest")
    if not binary or subprocess.run([binary], cwd=ROOT).returncode:
        return 1
    return subprocess.run([sys.executable, "-m", "unittest", "-q", "test_bench_py"],
                          cwd=HERE).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
