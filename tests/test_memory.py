"""Memory regression guards: what a verify run keeps once it has returned,
measured by tracemalloc in a fresh interpreter, so no cache filled by
another test hides or adds to it."""

import subprocess
import sys
from pathlib import Path

import pytest

from projrep import cli

# tracemalloc starts after the import: the retained memory is that of the
# run's caches and results, not of the loaded modules
RETAINED_PROBE = """
import contextlib, io, sys, tracemalloc
sys.path.insert(0, %r)
from projrep import cli
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[0])
""" % str(Path(cli.__file__).parent.parent)


# Bounds in MiB, from the retained memory of each run with headroom: 0.52
# and 0.39 MiB on Python 3.11, what the interpreter keeps (the locale module
# argparse loads, freed objects on its free lists), as the run and every
# memo of the engine go when the command ends.  Module-level caches of the
# closed forms, the link and the matrices retained 2.74 and 2.21 MiB;
# keeping every product of every degree as well, 4.87 and 5.11 MiB.
@pytest.mark.parametrize("argv, bound", [
    (("sym", "verify", "--p", "2", "--max-degree", "24"), 0.75),
    (("wreath", "verify", "--table", "s3", "--p", "3", "--max-degree", "10"), 0.6)],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value))
def test_a_text_verify_run_retains_little_memory(argv, bound):
    out = subprocess.run([sys.executable, "-c", RETAINED_PROBE, *argv, "--format", "text"],
                         capture_output=True, text=True, check=True).stdout
    code, retained = map(int, out.split())
    assert code == 0
    assert retained < bound * 2 ** 20, retained / 2 ** 20


# Runs cli.main on its arguments three times in one fresh interpreter and
# prints the number of objects the collector tracks after each run, once
# gc.collect() has run.  The first run fills what the interpreter keeps
# for good (interned strings, the locale module argparse loads); a later
# run that leaves even one object more, which the bounds above are too
# coarse to see, shows as a count that still grows.  plant is code run
# before the first run.
LEAK_PROBE = """
import contextlib, gc, io, sys
sys.path.insert(0, %r)
from projrep import cli
%s
counts = []
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
    gc.collect()
    counts.append(len(gc.get_objects()))
print(*counts)
"""

# a leak of one list per run, which the probe must see
PLANTED_LEAK = """
kept, verify_degrees = [], cli.verify_degrees
def leaky(*args):
    kept.append([])
    return verify_degrees(*args)
cli.verify_degrees = leaky
"""

LEAK_RUNS = [
    ("sym", "verify", "--p", "2", "--max-degree", "24", "--format", "text"),
    ("wreath", "verify", "--table", "s3", "--p", "3", "--max-degree", "10", "--format", "text"),
    ("wreath", "verify", "--table", "c4", "--p", "2", "--max-degree", "6", "--format", "json")]


def tracked_objects_after_each_run(argv, plant=""):
    probe = LEAK_PROBE % (str(Path(cli.__file__).parent.parent), plant)
    out = subprocess.run([sys.executable, "-c", probe, *argv],
                         capture_output=True, text=True, check=True).stdout
    return list(map(int, out.split()))


@pytest.mark.parametrize("argv", LEAK_RUNS, ids=" ".join)
def test_a_verify_run_leaks_no_object(argv):
    first, second, third = tracked_objects_after_each_run(argv)
    assert third == second, (first, second, third)


def test_the_leak_probe_sees_one_list_left_per_run():
    first, second, third = tracked_objects_after_each_run(LEAK_RUNS[0], PLANTED_LEAK)
    assert third == second + 1, (first, second, third)
