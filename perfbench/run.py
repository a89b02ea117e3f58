#!/usr/bin/env python3
"""Run the Bridge benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --crosscheck

Builds the perfbench harness (and the simulator's libraries, from src/) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs each workload in its own process.  Prints every metric by name
with its unit and clock, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Run it from the root of the checkout.  It exits non-zero without a result
when the simulator sources are missing, the build fails, the harness
refuses the backend (BRIDGE_SIM_BACKEND=threads), or a metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# Metrics measured on the host clock; every other metric is virtual time of
# the modelled machine (or a count / ratio derived from it) and repeats
# exactly for a fixed seed.
HOST_METRICS = {
    "setup_s", "host_s", "peak_rss_mb", "sim.host_ns_per_event",
    "util.serde_ns_per_msg", "efs.bitmap_encode_ns", "efs.host_us_per_write",
    "efs.host_us_per_read", "core.wrap_ns", "core.unwrap_ns",
    "obs.trace_overhead_frac",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the harness; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def run_workload(binary, spec, name, args):
    """Run one workload in its own process; returns its result object."""
    cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(binary.parent / f"spans-{name}-{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{name}: harness exited with {proc.returncode}")
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    kind = "per_layer" if args.trace else "end_to_end"
    measured = report[kind]
    metrics = {}
    for metric in spec[kind]:
        if metric["name"] not in measured:
            fail(f"{name}: harness did not report {metric['name']}")
        metrics[metric["name"]] = {"value": measured[metric["name"]],
                                   "unit": metric["unit"]}
    print(f"{'metric':<34} {'value':>16}  {'unit':<6} clock")
    for metric_name, m in metrics.items():
        clock = "host" if metric_name in HOST_METRICS else "virtual"
        print(f"{metric_name:<34} {m['value']:>16.6g}  {m['unit']:<6} {clock}")
    print(f"op latency samples: {report['op_samples']}; backend {report['backend']}, "
          f"build {report['build_type']}; {report['rounds']} untraced + "
          f"{report['traced_rounds']} traced rounds")
    return {"correct": bool(report["correct"]) and report["backend"] == "fibers",
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--crosscheck", action="store_true",
                        help="reproduce fig_speedup's p=64 copy and sort rows")
    args = parser.parse_args()

    if not SPEC_PATH.is_file():
        fail(f"missing {SPEC_PATH}")
    spec = json.loads(SPEC_PATH.read_text())
    binary = build()
    if args.crosscheck:
        sys.exit(subprocess.run([str(binary), "--crosscheck"]).returncode)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    for name in names if args.workload == "all" else [args.workload]:
        print(f"== {name}")
        result = run_workload(binary, spec, name, args)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
