"""corrstn benchmark: run one workload, or all three, and print its metrics.

    python3 bench/run.py --workload forecast --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in a child process of its own (bench/workload.py), one
after another, never two at once: train-pems08 alone peaks near 2.3 GB. A
child that is killed, runs out of memory or overruns its time counts as one
failed operation instead of a missing sample.

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs the
workload twice, untraced and then traced, and prints the per-layer metrics
of the traced run plus the tracing overhead: each end-to-end metric of the
traced run minus that of the untraced one. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

The script needs only the standard library; it exits with code 2 and prints
no result when the corrstn sources are not next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("correlate", "train-pems08", "forecast")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "primary_ms": "ms",
              "secondary_ms": "ms"}
# what primary_ms and secondary_ms stand for on each workload
MEANING = {
    "correlate": ("median corrstn scorr --workers 2 wall time",
                  "median round of scorr + tcorr + select"),
    "train-pems08": ("median training step per sample",
                     "model.train epoch wall time per training sample"),
    "forecast": ("p50 single-window predict latency",
                 "batched metrics.evaluate per sample"),
}
BUDGET_S = 170     # one invocation must end within 180 s


def run_child(workload: str, seed: int, seconds: int, trace: int,
              deadline: float) -> dict:
    """Run one workload process to completion and return its result."""
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}-{trace}")
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    # git (which corrstn calls to stamp manifests) must not look above the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    status = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # the group holds the scorr pool workers too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            status = "timed out"
        if status is None and proc.returncode != 0:
            status = f"exit status {proc.returncode}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if status is None and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            status = "no result line"
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"workload": workload, "seed": seed, "attempted": 1, "failed": 1,
            "failures": [f"workload process {status or 'printed nothing'}"],
            "metrics": {"peak_rss_mb": kids}, "details": {}}


def show(label: str, name: str, value, unit: str) -> None:
    print(f"{label:24s} {name:28s} {value:>16.6g} {unit}")


def report_child(result: dict, label: str) -> None:
    workload = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    if "machine" in result:
        print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    for name, unit in END_TO_END.items():
        if name in result["metrics"]:
            show(label, name, result["metrics"][name], unit)
    for name, (value, unit) in result["details"].items():
        show(label, name, value, unit)
    show(label, "failed_fraction", failed / attempted, "ratio")
    for text in result["failures"]:
        print(f"{label:24s} FAILED: {text}")
    primary, secondary = MEANING[workload]
    print(f"{label:24s} (primary_ms: {primary}; secondary_ms: {secondary})")


def measure(workload: str, seed: int, seconds: int, trace: int,
            deadline: float) -> dict:
    """Result of one workload: end-to-end metrics, or per-layer metrics and
    tracing overhead when traced."""
    plain = run_child(workload, seed, seconds, 0, deadline)
    report_child(plain, f"{workload} untraced")
    attempted, failed = plain["attempted"], plain["failed"]
    if not trace:
        metrics = {name: {"value": plain["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in plain["metrics"]}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    traced = run_child(workload, seed, seconds, 1, deadline)
    report_child(traced, f"{workload} traced")
    attempted += traced["attempted"]
    failed += traced["failed"]
    metrics = dict(traced.get("layers", {}))
    for name, unit in END_TO_END.items():
        if name in plain["metrics"] and name in traced["metrics"]:
            overhead = traced["metrics"][name] - plain["metrics"][name]
            metrics[f"trace.overhead.{name}"] = {"value": overhead, "unit": unit}
            show(f"{workload} overhead", name, overhead, unit)
    for name, entry in metrics.items():
        show(f"{workload} layer", name, entry["value"], entry["unit"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "corrstn", "__init__.py")):
        print(f"corrstn sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload != "all":
        deadline = time.monotonic() + BUDGET_S
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         deadline)
        print(json.dumps(result))
        return 0

    # the one-command view: every workload, metrics prefixed by workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = measure(workload, args.seed, args.seconds, args.trace,
                         time.monotonic() + BUDGET_S)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
