"""Measure this checkout on every workload over ten seeds and write
baseline.json.

    python3 perfbench/baseline.py

Runs `run.py --workload W --seed s --seconds <run_seconds> --trace 0` for
s = 1..10, workloads interleaved, each in its own process, then one traced
run per workload at seed 0.  For every end-to-end metric it records the ten
values, their median, quartiles (statistics.quantiles, n=4) and the quartile
distance as a share of the median ("spread"); it prints each spread next to a
third of the bound BENCHMARK.json gives it.  It exits 1 if any run failed.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

RUN = os.path.join(workloads.HERE, "run.py")
RUNS = 10


def run(name, seed, seconds, trace):
    proc = subprocess.run([sys.executable, RUN, "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=workloads.ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["correct"] = result["correct"] and proc.returncode == 0
    prefix = "largest self time: "
    result["largest_self"] = next((line[len(prefix):] for line in proc.stderr.splitlines()
                                   if line.startswith(prefix)), None)
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main():
    bounds = {m["name"]: m["bound"] for m in workloads.bench()["end_to_end"]}
    seconds = workloads.bench()["run_seconds"]
    samples = {name: [] for name in workloads.names()}
    ok = True
    for seed in range(1, RUNS + 1):
        for name in workloads.names():
            result = run(name, seed, seconds, 0)
            ok = ok and result["correct"]
            samples[name].append(result["metrics"])
            print("seed %d %s %s" % (seed, name, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})), flush=True)

    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "platform": platform.platform(), "runs": RUNS, "seconds": seconds,
              "workloads": {}}
    for name in workloads.names():
        entry = workloads.spec()["workloads"][name]
        end_to_end = {metric: summary([s[metric]["value"] for s in samples[name]])
                      for metric in workloads.units("end_to_end")}
        traced = run(name, 0, seconds, 1)
        ok = ok and traced["correct"]
        report["workloads"][name] = {
            "argv": entry["argv"], "stresses": entry["stresses"],
            "end_to_end": end_to_end,
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "largest_self": traced["largest_self"],
            "largest_self_confirms_stresses":
                (traced["largest_self"] or "").startswith(entry["stresses"] + "."),
        }
        for metric, stats in end_to_end.items():
            print("%-16s %-12s median %10.5g  spread %.4f  (bound/3 %.4f)"
                  % (name, metric, stats["median"], stats["spread"], bounds[metric] / 3))
        print("%-16s largest self time %s, tracing overhead %.4f"
              % (name, traced["largest_self"], traced["metrics"].get(
                  "trace.overhead_frac", {}).get("value", float("nan"))))
    with open(os.path.join(workloads.HERE, "baseline.json"), "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
