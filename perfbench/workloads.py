"""Workload definitions, seeded inputs and the correctness check of a report.

BENCHMARK.json names the workloads and the metrics with their units;
spec.json adds what it cannot hold: each workload's projrep arguments and
stressed layer, and the end-to-end metric each layer metric should move.
This module turns a (workload, seed) pair into the projrep command line a
child process runs, and judges the JSON report that command emits, degree by
degree.
"""

import hashlib
import json
import os
import random
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


@lru_cache(maxsize=None)
def bench():
    """BENCHMARK.json: workload names, metrics, units and run_seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@lru_cache(maxsize=None)
def spec():
    """spec.json: per workload its argv and stressed layer; the layer map."""
    with open(os.path.join(HERE, "spec.json")) as handle:
        return json.load(handle)


def names():
    return [w["name"] for w in bench()["workloads"]]


def units(kind):
    """{metric: unit} of kind "end_to_end" or "per_layer", in BENCHMARK.json order."""
    return {m["name"]: m["unit"] for m in bench()[kind]}


def argv_of(name):
    return spec()["workloads"][name]["argv"]


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def max_degree(name):
    return int(_option(argv_of(name), "--max-degree"))


def is_wreath(name):
    return argv_of(name)[0] == "wreath"


def permuted_table_path(table, seed):
    return os.path.join(OUT, "%s-seed%d.json" % (table, seed))


def cli_argv(name, seed):
    """The projrep arguments of a workload.  Seed 0 is the bundled order; any
    other seed runs a wreath workload on a permuted copy of its table, which
    prepare() writes."""
    argv = list(argv_of(name))
    table = _option(argv, "--table")
    if table is not None and seed:
        argv[argv.index("--table") + 1] = permuted_table_path(table, seed)
    return argv + ["--format", "json"]


def permute_table(data, seed):
    """The same character table with its irreducibles and its non-identity
    classes in a seeded order (the identity class stays first)."""
    rng = random.Random(seed)
    irreducibles = [dict(irr) for irr in data["irreducibles"]]
    rng.shuffle(irreducibles)
    order = [0] + rng.sample(range(1, len(data["classes"])), len(data["classes"]) - 1)
    for irr in irreducibles:
        irr["values"] = [irr["values"][i] for i in order]
    return dict(data, classes=[data["classes"][i] for i in order],
                irreducibles=irreducibles)


def prepare(name, seed):
    """Write the seeded input file a workload needs, if any."""
    table = _option(argv_of(name), "--table")
    if table is None or not seed:
        return
    with open(os.path.join(SRC, "projrep", "tables", table + ".json")) as handle:
        data = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    with open(permuted_table_path(table, seed), "w") as handle:
        json.dump(permute_table(data, seed), handle)


# ---------------------------------------------------------------------------
# correctness


DIGEST = "monomial_hnf_sha256"


def matrix_sha256(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def applicable_reference(entries, wreath, seed):
    """The part of a workload's reference entries that holds at this seed.
    A permuted wreath table reorders the monomial basis, which changes the
    HNF but not the ranks, so its digests are left out; the sym workloads
    ignore the seed and keep all of it."""
    if wreath and seed:
        return [{k: v for k, v in entry.items() if k != DIGEST} for entry in entries]
    return entries


def reference_entry(report):
    return {"degree": report["degree"], "rank": report["rank"],
            "expected_rank": report["expected_rank"],
            DIGEST: matrix_sha256(report.get("monomial_hnf"))}


def degree_problem(report, wreath, reference):
    """Why one degree's report fails, or None if it passes."""
    if report is None:
        return "no report"
    if report.get("verdict") is not True:
        return "verdict is not true"
    if report.get("rank") != report.get("expected_rank"):
        return "rank %s != expected_rank %s" % (report.get("rank"),
                                                report.get("expected_rank"))
    if wreath and report.get("generator_exchange") is not True:
        return "generator_exchange is not true"
    if reference is not None:
        entry = reference_entry(report)
        differ = sorted(key for key, value in reference.items() if entry[key] != value)
        if differ:
            return "differs from the recorded reference in %s" % ", ".join(differ)
    return None


def check_payload(payload, max_degree, wreath, references):
    """Problems found in a verify command's JSON report, one per failing
    degree.  `references` is the per-degree reference list (only the keys it
    holds are compared), or None to check verdicts and ranks alone."""
    by_degree = {r.get("degree"): r for r in payload.get("reports", [])}
    problems = []
    for n in range(max_degree + 1):
        reference = None if references is None else references[n]
        problem = degree_problem(by_degree.get(n), wreath, reference)
        if problem:
            problems.append("degree %d: %s" % (n, problem))
    return problems
