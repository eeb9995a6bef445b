#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--trace-out <file.json>]

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run configures and compiles the
library layers the benchmark drives, later runs rebuild incrementally.  A traced
run (--trace 1) writes its chrome://tracing JSON to --trace-out, by default
<build root>/traces/<workload>-seed<n>.json.

The last line of standard output is the benchmark's JSON result; build output
goes to standard error.  BENCHMARK.json at the root of the checkout is the one
list of metric names and units: the program reports values by name, and this
script names each one's unit, reports 0 for a per-layer metric of a layer the
workload does not touch, and fails on a metric BENCHMARK.json does not declare
or an end-to-end metric the program did not measure.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("rsa512-mix", "bitserial-paired", "gatesim-capture")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def report(raw, trace):
    """The contract's result line from the program's, or None when the two
    metric lists disagree (each disagreement is printed to stderr)."""
    declared = declared_metrics(trace)
    measured = raw["metrics"]
    names = {name for name, _ in declared}
    problems = [f"{name} is not declared in BENCHMARK.json"
                for name in sorted(set(measured) - names)]
    if not trace:
        problems += [f"{name} was not measured" for name, _ in declared
                     if name not in measured]
    for problem in problems:
        print(f"perfbench: metric {problem}", file=sys.stderr)
    if problems:
        return None
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit in declared}
    return dict(raw, metrics=metrics)


def build(build_dir):
    """Configures (once) and incrementally builds the perfbench binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("perfbench: no library sources next to the benchmark "
              f"({os.path.join(REPO, 'src')} is missing)", file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(REPO, ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_out = args.trace_out or os.path.join(
            build_root, "traces", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
        command += ["--trace-out", trace_out]

    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return run.returncode
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        raw = None
    if not isinstance(raw, dict) or set(raw) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    result = report(raw, args.trace == "1")
    if result is None:
        return 1
    for line in lines[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"metric {name:32s} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
