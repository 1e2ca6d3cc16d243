"""The state of a verification lives in one modsym.Run and ends with it: no
memo of the verify path is a module-level cache (a lint, and the caches
left empty by the verify commands), commands run one after another in one
process report what fresh processes report, a run shared by a range of
degrees builds each degree once, and a finished command leaves no run
behind."""

import ast
import contextlib
import gc
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import projrep
from projrep import cli, modsym, wreath
from projrep.modsym import SYM_CHARACTERS, Run, verify_theorem1

SRC = Path(projrep.__file__).parent
LINTED = sorted(path.stem for path in SRC.glob("*.py"))
# the engine modules, whose functions import nothing
ENGINE = ("modsym", "wreath", "series")
# the caches the package may keep for the process; only the per-conductor
# ones are filled by a verify command
PER_CONDUCTOR = {
    ("exactlin", "euler_phi"): "one entry per conductor",
    ("exactlin", "cyclotomic_polynomial"): "one entry per conductor",
}
ALLOWED = {
    **PER_CONDUCTOR,
    ("modsym", "x_class_value_matrix"): "a test oracle, whose counters perfbench reads",
    ("partitions", "partitions"): "used by the generators, chartable and examples "
                                  "commands, and perfbench reads its counters",
    ("series", "y_monomial"): "the tests' oracle of the S_n monomial rows",
    ("symfunc", "_x_monomial_in_c"): "used by examples, sym chartable and the oracles",
    ("symfunc", "_c_generator_in_x"): "used by examples, sym chartable and the oracles",
    ("symfunc", "_c_monomial_in_x"): "used by examples, sym chartable and the oracles",
    ("symfunc", "_mn"): "used by examples, sym chartable and the oracles",
    ("wreath", "phi_x_in_xi"): "the tests' oracle in the xi basis",
    ("wreath", "_monomial_in_xi"): "the tests' oracle in the xi basis",
}


def is_cache(decorator):
    """True for functools.lru_cache or functools.cache as a decorator, called
    or not, by its own name or as an attribute."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("lru_cache", "cache")


def cached_functions(path):
    """The names of the functions of a module, nested ones and methods too,
    that a cache decorates."""
    return sorted(node.name for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(map(is_cache, node.decorator_list)))


def test_only_the_allowed_oracles_are_cached_for_the_process():
    found = {(module, name) for module in LINTED
             for name in cached_functions(SRC / ("%s.py" % module))}
    assert found == set(ALLOWED)


# the sizes of the allowed caches after both verify commands in a fresh
# interpreter, with nothing else run before them
CACHE_PROBE = """
import contextlib, io, sys
sys.path.insert(0, %r)
from projrep import cli
for argv in (["sym", "verify", "--p", "2", "--max-degree", "12"],
             ["wreath", "verify", "--table", "s3", "--p", "3", "--max-degree", "6"],
             ["wreath", "verify", "--table", "c4", "--p", "2", "--max-degree", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
for module, name in %r:
    print(module, name, getattr(sys.modules["projrep." + module], name).cache_info().currsize)
"""


def test_the_verify_commands_fill_no_cache_but_the_per_conductor_ones():
    probe = CACHE_PROBE % (str(SRC.parent), sorted(ALLOWED))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True)
    sizes = {tuple(line.split()[:2]): int(line.split()[2])
             for line in result.stdout.splitlines()}
    assert sizes.keys() == ALLOWED.keys()
    assert {key for key, size in sizes.items() if size} == set(PER_CONDUCTOR)


def test_a_cache_decorator_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import functools\nfrom functools import cache\n\n\n"
                      "def outer():\n    @functools.lru_cache(maxsize=None)\n"
                      "    def inner():\n        return 1\n    return inner\n\n\n"
                      "class Holder:\n    @cache\n    def method(self):\n        return 2\n\n\n"
                      "def plain():\n    return 3\n")
    assert cached_functions(module) == ["inner", "method"]


def test_the_engine_modules_import_only_at_the_top():
    # modsym holds the run, and wreath imports modsym: no import cycle is
    # left for a function to break by importing late
    late = [(module, node.lineno) for module in ENGINE
            for function in ast.walk(ast.parse((SRC / ("%s.py" % module)).read_text()))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert late == []


def masked(report):
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": X', report)


def in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, masked(out.getvalue())


def in_a_fresh_process(argv):
    result = subprocess.run([sys.executable, "-m", "projrep.cli", *argv], capture_output=True,
                            text=True, check=False, env={"PYTHONPATH": str(SRC.parent)})
    return result.returncode, masked(result.stdout)


def test_commands_in_one_process_report_what_fresh_processes_report():
    wreath_argv = ("wreath", "verify", "--table", "s3", "--p", "3", "--max-degree", "6",
                   "--format", "json")
    sym_argv = ("sym", "verify", "--p", "2", "--max-degree", "12", "--format", "json")
    fresh = {argv: in_a_fresh_process(argv) for argv in (wreath_argv, sym_argv)}
    assert all(code == 0 for code, _ in fresh.values())
    for argv in (wreath_argv, sym_argv, wreath_argv):
        assert in_process(argv) == fresh[argv], argv


@pytest.mark.parametrize("name", ["trivial_table", "s3_table", "c4_table"])
def test_one_run_over_a_range_of_degrees_builds_each_matrix_once(monkeypatch, request, name):
    built, build = [], modsym.monomial_matrix

    def counted(*args):
        built.append(args[2])
        return build(*args)

    monkeypatch.setattr(modsym, "monomial_matrix", counted)
    table = request.getfixturevalue(name)
    lattice = wreath.e_lattice(table, 3)
    run = wreath.lattice_run(table, lattice)
    assert all(wreath.verify_theorem2(table, 3, n, run=run).verdict for n in range(9))
    assert built == list(range(9))
    del built[:]
    run = Run(SYM_CHARACTERS, ((1,),), 2)
    assert all(verify_theorem1(n, 2, run).verdict for n in range(9))
    assert built == list(range(9))


@pytest.mark.parametrize("argv", [
    ("sym", "verify", "--p", "2", "--max-degree", "8"),
    ("wreath", "verify", "--table", "c2", "--p", "2", "--max-degree", "4",
     "--format", "json")], ids=" ".join)
def test_a_finished_command_leaves_no_run_behind(argv):
    # freed as the command returns, with the cycle collector off: no
    # reference cycle holds a run until a collection
    gc.collect()
    gc.disable()
    try:
        assert in_process(argv)[0] == 0
        assert [obj for obj in gc.get_objects() if isinstance(obj, Run)] == []
    finally:
        gc.enable()


def test_a_run_or_lattice_of_other_arguments_is_refused(s3_table, c2_table):
    # each would verify another ring than the one asked for
    lattice = {p: wreath.e_lattice(s3_table, p) for p in (2, 3)}
    run = {p: lambda p=p: wreath.lattice_run(s3_table, lattice[p]) for p in (2, 3)}
    other_rows = wreath.ELatticeBasis(3, 2, lattice[3].phi.transpose())
    refused = {
        "prime": [lambda: verify_theorem1(5, 3, Run(SYM_CHARACTERS, ((1,),), 2)),
                  lambda: wreath.verify_theorem2(s3_table, 3, 4, run=run[2]()),
                  lambda: wreath.generator_exchange_check(s3_table, lattice[3], 4, run[2]())],
        "characters": [lambda: verify_theorem1(2, 2, Run(c2_table.characters, ((1, 0),), 2)),
                       lambda: wreath.verify_theorem2(c2_table, 3, 2, run=run[3]())],
        "lattice rows": [
            lambda: verify_theorem1(2, 2, Run(SYM_CHARACTERS, ((2,),), 2)),
            lambda: wreath.verify_theorem2(s3_table, 3, 2, lattice=other_rows, run=run[3]()),
            lambda: wreath.generator_exchange_check(s3_table, other_rows, 2, run[3]())],
        "the lattice is at p = 2": [
            lambda: wreath.verify_theorem2(s3_table, 3, 4, lattice=lattice[2])]}
    for message, calls in refused.items():
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
    shared = run[3]()
    assert wreath.verify_theorem2(s3_table, 3, 4, lattice=lattice[3], run=shared).verdict
    assert wreath.generator_exchange_check(s3_table, lattice[3], 4, shared)
