#!/usr/bin/env python3
"""Build and run the SpeContext benchmark (see specbench/README.md).

One run (the form BENCHMARK.json names), from the repository root:

    python3 specbench/run.py --workload diurnal-fleet --seed 1 \\
        --seconds 30 --trace 0

builds the specbench program from ../src into .bench_build/specbench (or
$CARGO_TARGET_DIR/specbench) on first use, runs it, and passes its
output through; the last line is the JSON result.

Steadiness mode repeats workloads over consecutive seeds and prints each
metric's median, quartiles and spread (IQR / median):

    python3 specbench/run.py --steady 10 [--workload W ...] \\
        [--seed 1] [--seconds 30] [--trace 0] [--record FILE]
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["diurnal-fleet", "agentic-prefix", "live-reasoning"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "specbench")


def build():
    """Configure (once) and build the program; returns its path or None."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = os.path.join(out, "specbench")
    return exe if os.path.exists(exe) else None


def program_args(workload, seed, seconds, trace, smoke):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans",
                 os.path.join(spans, f"spans-{workload}-{seed}.json")]
    if smoke:
        args.append("--smoke")
    return args


def run_once(exe, args, capture):
    """Run the program to completion (killed past the timeout)."""
    try:
        return subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("specbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return None


def host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def steady(exe, a):
    """Repeat each workload over a.steady seeds; report the spreads."""
    report = {"host": host(), "seconds": a.seconds, "trace": a.trace,
              "seeds": [a.seed, a.seed + a.steady - 1], "workloads": {}}
    for w in a.workload or WORKLOADS:
        values = {}
        units = {}
        for seed in range(a.seed, a.seed + a.steady):
            res = run_once(exe, program_args(w, seed, a.seconds, a.trace,
                                            a.smoke), capture=True)
            if res is None or res.returncode != 0:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                return 1
            line = json.loads(res.stdout.strip().splitlines()[-1])
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        print(f"{w}  ({a.steady} seeds from {a.seed}, {a.seconds} s)")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": units[name], "median": med, "q1": q1,
                          "q3": q3, "spread": spread}
            print(f"  {name:32s} {med:14.6g} {units[name]:7s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
        report["workloads"][w] = rows
    if a.record:
        with open(a.record, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken inputs (the benchmark's own tests)")
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="repeat each workload over N seeds")
    p.add_argument("--record", help="steadiness mode: write spreads here")
    a = p.parse_args()

    exe = build()
    if exe is None:
        print("specbench: build failed", file=sys.stderr)
        return 3
    if a.steady:
        return steady(exe, a)
    if not a.workload or len(a.workload) != 1:
        p.error("exactly one --workload is required")
    sys.stdout.flush()
    res = run_once(exe, program_args(a.workload[0], a.seed, a.seconds,
                                    a.trace, a.smoke), capture=False)
    return 4 if res is None else res.returncode


if __name__ == "__main__":
    sys.exit(main())
