#!/usr/bin/env python3
"""The repository benchmark: end-to-end simulator cost, layer by layer.

Builds perfbench_runner (the library from this checkout's sources plus
runner.cpp) and runs one workload, or all of them, serially:

    python3 perfbench/run.py --workload office-256-saturated --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # default + held-out seed
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(catalogue.json lists both, with the layer each belongs to and the
end-to-end metric and workload it should move). The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the build fails, the sources are missing
or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RUN_TIMEOUT_S = 170


def load_catalogue():
    """catalogue.json, checked against BENCHMARK.json when that exists:
    the two must list the same metrics with the same unit, direction
    and bound."""
    with open(os.path.join(HERE, "catalogue.json")) as f:
        cat = json.load(f)
    contract_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(contract_path):
        with open(contract_path) as f:
            contract = json.load(f)
        keys = ("name", "unit", "better", "bound")
        for section in ("end_to_end", "per_layer"):
            ours = [{k: m[k] for k in keys if k in m} for m in cat[section]]
            if ours != contract[section]:
                sys.exit(f"perfbench: catalogue.json and BENCHMARK.json "
                         f"disagree on {section}")
        if [w["name"] for w in cat["workloads"]] != \
                [w["name"] for w in contract["workloads"]]:
            sys.exit("perfbench: catalogue.json and BENCHMARK.json "
                     "disagree on workloads")
    return cat


def build():
    """Configures once, then (re)builds the runner; logs go to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "netscatter")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found beside perfbench/; "
                     "run from a full checkout")
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_runner(args):
    """Runs the runner to completion; returns (exit code, stdout lines)."""
    proc = subprocess.run([RUNNER] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def fmt(value):
    return f"{value:.6g}"


def run_workload(cat, workload, seed, seconds, trace):
    """One workload in its own process; returns the contract report."""
    spec = os.path.join(HERE, "workloads", workload + ".spec")
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    code, lines = run_runner(["--spec", spec, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace),
                              "--out", out])
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.strip() and not line.startswith("wrote "):
            print(f"  {line}")
    if result is None:
        sys.exit(f"perfbench: runner gave no result for {workload} (exit {code})")
    values = result["values"]
    metrics = {}
    section = "per_layer" if trace else "end_to_end"
    print(f"{workload} seed={seed} trace={trace}: "
          f"{fmt(values.get('passes', 0))} untraced passes"
          + (f", {fmt(values.get('trace.passes', 0))} traced" if trace else ""))
    for m in cat[section]:
        name = m["name"]
        if name not in values:
            sys.exit(f"perfbench: runner did not report {name}")
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        line = f"  {name:<34} {fmt(values[name]):>14} {m['unit']}"
        if m.get("base"):
            line += "   (" + ", ".join(f"{b}={fmt(values[b])}" for b in m["base"]) + ")"
        print(line)
    if trace:
        # ROADMAP item 1's finding, seen from outside the program: on
        # field-100k-setup, setup costs more than the round loop.
        larger = "exceeds" if values["setup_s"] > values["sim.run_s"] else "is below"
        print(f"  setup_s {fmt(values['setup_s'])} s {larger} "
              f"sim.run_s {fmt(values['sim.run_s'])} s")
    correct = bool(result["correct"]) and code == 0
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    cat = load_catalogue()
    names = [w["name"] for w in cat["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=cat["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the span accounting (children + residual "
                             "= parent) and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    build()

    if args.self_test:
        spec = os.path.join(HERE, "workloads", cat["self_test_workload"] + ".spec")
        code, lines = run_runner(["--self-test", "--spec", spec,
                                  "--out", os.path.join(OUT_DIR, "self-test")])
        print("\n".join(lines))
        sys.exit(code)

    if args.workload != "all":
        report = run_workload(cat, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(report))
        sys.exit(0 if report["correct"] else 1)

    # Every workload, serially, at the given seed and the held-out seed.
    seeds = [args.seed, cat["seeds"]["held_out"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        for seed in seeds:
            report = run_workload(cat, workload, seed, args.seconds, args.trace)
            total["correct"] = total["correct"] and report["correct"]
            total["attempted"] += report["attempted"]
            total["failed"] += report["failed"]
            if seed == args.seed:
                for name, metric in report["metrics"].items():
                    total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


if __name__ == "__main__":
    main()
