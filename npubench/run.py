#!/usr/bin/env python3
"""Build and run the npubench host-time benchmark for one workload.

    python3 npubench/run.py --workload corun_exact --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout. The first call configures and
builds the simulator libraries and the npubench binary into
.bench_build at the checkout root; later calls rebuild incrementally.
Build output goes to stderr. The binary's full metric table goes to
stderr too; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json lists: the end-to-end ones with --trace 0, the per-layer
ones with --trace 1. A per-layer metric of a layer the workload does not
exercise reads 0. Exits non-zero without a result when the simulator
sources are missing, the build fails, or the workload cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop a hung binary before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"npubench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path)


def build(build_path):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    configure = ["cmake", "-S", HERE, "-B", build_path,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache written for another checkout path cannot be reused.
        shutil.rmtree(build_path, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_path, "--target", "npubench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_path, "npubench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as spec_file:
        spec = json.load(spec_file)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build_path = build_dir()
    binary = build(build_path)
    # MNPU_* variables re-base process defaults (scheduler, isolation,
    # fidelity, backend, checks); the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MNPU_")}
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--out", build_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran longer than {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    raw = json.loads(lines[-1])

    for name, metric in sorted(raw["metrics"].items()):
        print(f"  {name:36s} {metric['value']:>20.6f} {metric['unit']}",
              file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {name}")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name} reported in {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}

    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
