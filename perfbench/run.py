"""projrep benchmark: cold child processes on fixed verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--trace 1]     # every workload, each metric by name

Every measurement is a fresh interpreter (child.py), because projrep keeps
lru_caches and per-table caches and a cold CLI run is what a user pays.  The
parent starts children one at a time, with no threads.

--trace 0: SETUP_SAMPLES set-up-only children, then verify children in a
closed loop (one `verify` call each) until the next one would overrun
--seconds, at least one.  Reports the medians of verify_s, setup_s and
peak_rss_mb.

--trace 1: one untraced and one traced verify child.  Reports the per-layer
metrics of the traced one, and the tracing overhead: its cli.total_s against
the untraced verify_s.

The last line of stdout of a single-workload run is one JSON object
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
degrees.  Exit code 1 if any degree failed, 2 if the checkout has no
src/projrep to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

CHILD = os.path.join(workloads.HERE, "child.py")
SETUP_SAMPLES = 31
RUN_LIMIT_S = 170  # a run has to end within 180 s


def child(mode, name, seed, deadline):
    """Run one child process to completion and return its JSON result."""
    t0 = time.monotonic()
    argv = [sys.executable, CHILD, mode, name, str(seed), repr(t0)]
    try:
        proc = subprocess.run(argv, cwd=workloads.ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        problem = "%s child timed out" % mode
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        problem = "%s child exited with code %d" % (mode, proc.returncode)
    attempted = workloads.max_degree(name) + 1
    return {"attempted": attempted, "failed": attempted, "problems": [problem]}


def with_units(values, kind):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in workloads.units(kind).items() if name in values}


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the result object plus "problems" and,
    for a traced run, "largest_self"."""
    workloads.prepare(name, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        plain = child("verify", name, seed, deadline)
        traced = child("trace", name, seed, deadline)
        checked = [plain, traced]
        values = dict(traced.get("metrics", {}))
        if "verify_s" in plain and values:
            values["trace.untraced_verify_s"] = plain["verify_s"]
            values["trace.overhead_frac"] = values["cli.total_s"] / plain["verify_s"] - 1
        metrics = with_units(values, "per_layer")
    else:
        setups = [child("setup", name, seed, deadline) for _ in range(SETUP_SAMPLES)]
        checked = [r for r in setups if "setup_s" not in r]
        start = time.monotonic()
        runs = []
        while True:
            runs.append(child("verify", name, seed, deadline))
            elapsed = time.monotonic() - start
            step = elapsed / len(runs)
            if elapsed + step > seconds or time.monotonic() + step > deadline:
                break
        checked += runs
        values = {}
        for metric, samples in (("verify_s", runs), ("peak_rss_mb", runs),
                                ("setup_s", setups)):
            found = [r[metric] for r in samples if metric in r]
            if found:
                values[metric] = statistics.median(found)
        metrics = with_units(values, "end_to_end")
    attempted = sum(r.get("attempted", 0) for r in checked)
    failed = sum(r.get("failed", 0) for r in checked)
    kind = "per_layer" if trace else "end_to_end"
    result = {"correct": failed == 0 and len(metrics) == len(workloads.units(kind)),
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "problems": [p for r in checked for p in r.get("problems", [])]}
    if trace and "largest_self" in traced:
        result["largest_self"] = traced["largest_self"]
    return result


def print_summary(name, result):
    entry = workloads.spec()["workloads"][name]
    print("%s  (%s; stresses %s)" % (name, " ".join(entry["argv"]), entry["stresses"]))
    for metric, value in result["metrics"].items():
        print("  %-36s %14.6g %s" % (metric, value["value"], value["unit"]))
    print("  %-36s %14s degrees" % ("failed_frac", "%d/%d" % (result["failed"],
                                                             result["attempted"])))
    if "largest_self" in result:
        dominant = result["largest_self"]
        print("  largest self time: %s (%s the stated layer %s)"
              % (dominant, "confirms" if dominant.startswith(entry["stresses"] + ".")
                 else "DOES NOT confirm", entry["stresses"]))


def main(argv=None):
    names = workloads.names()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=workloads.bench()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "projrep", "cli.py")):
        print("no projrep source under %s: nothing to measure" % workloads.SRC,
              file=sys.stderr)
        return 2
    if args.workload != "all":
        names = [args.workload]
    all_correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        all_correct = all_correct and result["correct"]
        for problem in result.pop("problems"):
            print("%s: %s" % (name, problem), file=sys.stderr)
        if args.workload == "all":
            print_summary(name, result)
        else:
            if "largest_self" in result:
                print("largest self time: %s" % result.pop("largest_self"), file=sys.stderr)
            print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
