#!/usr/bin/env python3
"""Determinism gate.

Every simulator result is a pure function of (spec, seed): thread
counts, the serial reference policy, intra-round fan-out and hardware
counters must never change a byte of the stripped scenario report. This
script runs each row of GATES twice and diffs the outputs.

A row is (command, flags A, flags B, excluded keys):

  command       the binary (in --bin-dir) and the arguments both runs share
  flags A / B   what differs between the two runs
  excluded keys report lines containing one of these are ignored on both
                sides (only alloc.warmup_count, on the --round-threads rows:
                warmup rounds grow the fan-out scratch to capacity, so that
                one counter depends on the round-thread count by design)

netscatter_sim writes its report with --json; netscatter_sweep writes a
directory (--out-dir) whose every file must match. Identical invocations
shared by several rows run once.

Usage:
  determinism_gate.py [--bin-dir build]

Outputs go to BIN_DIR/determinism, recreated on every run.

Exit code 0 when every row matches, 1 when any differs or a run fails.
"""

import argparse
import difflib
import pathlib
import shlex
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

T1 = "--threads 1"
T8 = "--threads 8"
SERIAL = "--threads 1 --serial"
RT8 = "--threads 1 --round-threads 8"
WARMUP = ("alloc.warmup_count",)


def sim(scenario, rounds, extra=""):
    return " ".join(filter(None, (
        f"netscatter_sim --scenario {scenario} --rounds {rounds} --replicas 2",
        extra, "--strip-wallclock")))


GATES = [
    # Replica threads, both fidelities: grouping, multipath, co-channel.
    *[(sim(s, 8, f"--fidelity {f}"), T1, T8, ())
      for s in ("warehouse-1k-grouped", "office-multipath", "cochannel-2ap",
                "warehouse-1k-multipath")
      for f in ("sample", "symbol")],
    # Sample-only specs (injected waveforms; --fidelity symbol rejects
    # them): auto fidelity runs their interference rounds on samples.
    *[(sim(s, 8), T1, T8, ()) for s in ("interference-lora", "interference-tone")],
    # Intra-round symbol fan-out vs the serial symbol sweep.
    *[(sim(s, 8, "--fidelity symbol"), T1, RT8, WARMUP)
      for s in ("warehouse-1k-grouped", "warehouse-1k-multipath")],
    # Fault schedules: serial reference vs replica threads vs fan-out.
    *[row for s in ("lossy-control-1k", "blackout-recovery")
      for row in ((sim(s, 10), SERIAL, T8, ()), (sim(s, 10), SERIAL, RT8, WARMUP))],
    # A 2x2 sweep product: every per-cell JSON, the aggregate JSON and CSV.
    (f"netscatter_sweep --spec {REPO}/specs/office-256.spec "
     "--vary geometry.num_devices=48,96 --vary sim.skip=2,4 "
     "--rounds 3 --replicas 2 --strip-wallclock", T1, T8, ()),
    # --perf never changes scenario JSON, whether the counters open or not.
    (sim("warehouse-1k-grouped", 8), T1, "--threads 1 --perf", ()),
    (sim("warehouse-1k-grouped", 8), T8, "--threads 8 --perf", ()),
    (sim("warehouse-1k-grouped", 8), T1, T8, ()),
]


class Runner:
    """Runs each distinct invocation once; returns its output path."""

    def __init__(self, bin_dir, work_dir):
        self.bin_dir = bin_dir
        self.work_dir = work_dir
        self.outputs = {}

    def run(self, command, flags):
        args = shlex.split(command) + shlex.split(flags)
        key = tuple(args)
        if key in self.outputs:
            return self.outputs[key]
        out = self.work_dir / f"run{len(self.outputs):02d}"
        if args[0] == "netscatter_sweep":
            args += ["--out-dir", str(out)]
        else:
            out = out.with_suffix(".json")
            args += ["--json", str(out)]
        args[0] = str(self.bin_dir / args[0])
        proc = subprocess.run(args, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{shlex.join(args)} exited {proc.returncode}\n"
                               f"{proc.stdout}{proc.stderr}")
        self.outputs[key] = out
        return out


def report_lines(path, excluded):
    lines = path.read_text().splitlines(keepends=True)
    return [line for line in lines if not any(key in line for key in excluded)]


def compare(a, b, excluded):
    """Returns a list of difference descriptions (empty when identical)."""
    if a.is_dir():
        names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        if names_a != names_b:
            return [f"file sets differ: {names_a} vs {names_b}"]
        problems = []
        for name in names_a:
            problems += [f"{name}: {p}" for p in compare(a / name, b / name, excluded)]
        return problems
    lines_a = report_lines(a, excluded)
    lines_b = report_lines(b, excluded)
    if lines_a == lines_b:
        return []
    diff = difflib.unified_diff(lines_a, lines_b, str(a), str(b), n=1)
    return ["".join(list(diff)[:40])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bin-dir", default="build", type=pathlib.Path)
    args = parser.parse_args()
    bin_dir = args.bin_dir.resolve()
    work_dir = bin_dir / "determinism"
    shutil.rmtree(work_dir, ignore_errors=True)  # outputs of an earlier gate
    work_dir.mkdir(parents=True)
    runner = Runner(bin_dir, work_dir)

    failures = 0
    for command, flags_a, flags_b, excluded in GATES:
        label = f"{command.replace(str(REPO) + '/', '')}: [{flags_a}] vs [{flags_b}]"
        try:
            problems = compare(runner.run(command, flags_a),
                               runner.run(command, flags_b), excluded)
        except RuntimeError as err:
            problems = [str(err)]
        if excluded:
            label += f" (excluding {', '.join(excluded)})"
        if problems:
            failures += 1
            print(f"DIFFERS  {label}")
            for problem in problems:
                print(problem)
        else:
            print(f"ok       {label}")
    print(f"{failures} of the gated pairs differ" if failures
          else "every gated pair is byte-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
