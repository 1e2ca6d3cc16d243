"""Tests of the benchmark harness itself (not of projrep).

    python3 -m pytest -q perfbench/test_harness.py
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import workloads
from tracing import Tracer, self_times, summarize

sys.path.insert(0, workloads.SRC)
from projrep import cli, exactlin, modsym, wreath  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cli.main"):            # 0 .. 10
        clock.t = 1
        with tracer.span("modsym.verify"):    # 1 .. 6
            clock.t = 2
            with tracer.span("exactlin.hnf"):  # 2 .. 5
                clock.t = 5
            clock.t = 6
        clock.t = 7
        with tracer.span("cli.emit"):        # 7 .. 9
            clock.t = 9
        clock.t = 10
    assert [s[0] for s in tracer.spans] == ["cli.main", "modsym.verify",
                                            "exactlin.hnf", "cli.emit"]
    assert self_times(tracer.spans) == [3, 2, 3, 2]
    totals = summarize(tracer.spans, layers.VERIFY_SPANS)
    assert sum(totals["self"].values()) == totals["inclusive"]["cli.main"] == 10
    assert totals["root_s"] == 5
    assert totals["layer_self"] == {"modsym": 2, "exactlin": 3}


def test_size_counters_run_outside_the_timed_window():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Owner:
        @staticmethod
        def work(x):
            clock.t += 1
            return x

    def slow_sizes(tracer, args, result):
        clock.t += 100
        tracer.record_size("size", result)

    tracer.trace(Owner, "work", "exactlin.work", slow_sizes)
    with tracer.span("cli.main"):
        Owner.work(7)
        Owner.work(3)
    tracer.restore()
    assert [end - start for _, start, end, _ in tracer.spans] == [2, 1, 1]
    assert tracer.sizes == {"size": 7}


def _patched_names():
    names = [(cli, "emit"), (exactlin.Cyclotomic, "lift"), (exactlin, "hnf_with_transform")]
    names += [(modsym, a) for a in ("verify_theorem1", "class_values", "y_monomial",
                                    "rational_kernel", "hnf_basis")]
    names += [(wreath, a) for a in ("verify_theorem2", "e_lattice", "generator_exchange_check",
                                    "xi_from_phi", "yk_generators", "rational_kernel",
                                    "hnf_basis", "quotient_y", "int_power")]
    return names


@pytest.mark.parametrize("argv", [
    ["sym", "verify", "--p", "2", "--max-degree", "5", "--format", "json"],
    ["wreath", "verify", "--table", "c2", "--p", "2", "--max-degree", "2", "--format", "json"],
])
def test_traced_run_restores_wrappers_and_self_times_add_up(argv):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in _patched_names()}
    tracer = Tracer()
    layers.install(tracer, cli)
    assert all(vars(owner)[attr] is not f for (owner, attr), f in originals.items())
    try:
        with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is f for (owner, attr), f in originals.items())
    values = layers.metrics(tracer, cli, argv)
    engine = "wreath" if argv[0] == "wreath" else "modsym"
    assert values[engine + ".verify_s"] > 0
    assert sum(self_times(tracer.spans)) == pytest.approx(values["cli.total_s"])
    assert sum(values[layer + ".share"] for layer in layers.LAYERS) == pytest.approx(1)
    assert values["exactlin.hnf_calls"] > 0 and values["exactlin.transform_bits"] > 0
    assert set(values) | {"trace.untraced_verify_s", "trace.overhead_frac"} \
        == set(workloads.units("per_layer"))


@pytest.fixture(scope="module")
def small_sym_report():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["sym", "verify", "--p", "2", "--max-degree", "4",
                         "--format", "json"]) == 0
    payload = json.loads(buffer.getvalue())
    return payload, [workloads.reference_entry(r) for r in payload["reports"]]


def test_clean_report_passes(small_sym_report):
    payload, reference = small_sym_report
    assert workloads.check_payload(payload, 4, False, reference) == []
    assert workloads.check_payload(payload, 4, False, None) == []


def _flip_hnf_entry(reports):
    reports[3]["monomial_hnf"][0][0] += 1


def _shift_ranks(reports):
    reports[3].update(rank=reports[3]["rank"] + 1, expected_rank=reports[3]["expected_rank"] + 1)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("corrupt", [
    lambda reports: reports[2].update(verdict=False),
    _flip_hnf_entry,
    _shift_ranks,
    lambda reports: reports.pop(1),
])
def test_corrupted_report_counts_one_failed_degree(small_sym_report, corrupt, seed):
    payload, reference = copy.deepcopy(small_sym_report)
    reference = workloads.applicable_reference(reference, False, seed)
    corrupt(payload["reports"])
    assert len(workloads.check_payload(payload, 4, False, reference)) == 1


def test_permuted_wreath_run_checks_ranks_but_not_digests(small_sym_report):
    payload, reference = copy.deepcopy(small_sym_report)
    for report in payload["reports"]:
        report["generator_exchange"] = True
    reference = workloads.applicable_reference(reference, True, 3)
    assert all(workloads.DIGEST not in entry for entry in reference)
    _flip_hnf_entry(payload["reports"])
    assert workloads.check_payload(payload, 4, True, reference) == []
    _shift_ranks(payload["reports"])
    assert len(workloads.check_payload(payload, 4, True, reference)) == 1


def test_permuted_table_keeps_identity_first_and_loads(tmp_path):
    with open(os.path.join(workloads.SRC, "projrep", "tables", "c4.json")) as handle:
        data = json.load(handle)
    for seed in (1, 2, 3):
        permuted = workloads.permute_table(data, seed)
        assert permuted["classes"][0] == data["classes"][0]
        assert permuted == workloads.permute_table(data, seed)
        path = tmp_path / ("c4-%d.json" % seed)
        path.write_text(json.dumps(permuted))
        assert wreath.load_table(str(path)).N == 4


# ---------------------------------------------------------------------------
# the harness end to end, in a throw-away copy of the checkout


def _sandbox(tmp_path, with_source):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    bench = dict(workloads.bench())
    bench["workloads"] = bench["workloads"] + [{"name": "tiny", "why": "harness test"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    spec_path = tmp_path / "perfbench" / "spec.json"
    spec = json.loads(spec_path.read_text())
    spec["workloads"]["tiny"] = {"argv": ["sym", "verify", "--p", "2", "--max-degree", "3"],
                                 "stresses": "modsym"}
    spec_path.write_text(json.dumps(spec))
    reference_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    reference["tiny"] = reference["sym-p2-d18"][:4]
    reference_path.write_text(json.dumps(reference))
    if with_source:
        shutil.copytree(os.path.join(workloads.SRC, "projrep"), tmp_path / "src" / "projrep",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=120)


def test_setup_time_is_excluded_from_verify_time(tmp_path):
    root = _sandbox(tmp_path, with_source=True)
    with open(root / "src" / "projrep" / "cli.py", "a") as handle:
        handle.write("\nimport time as _t\n_t.sleep(0.5)\n")
    proc = _run(root, "--workload", "tiny", "--seed", "1", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert result["metrics"]["setup_s"]["value"] >= 0.5
    assert result["metrics"]["verify_s"]["value"] < 0.5


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    root = _sandbox(tmp_path, with_source=False)
    proc = _run(root, "--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
