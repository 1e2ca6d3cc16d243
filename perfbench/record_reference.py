"""Record reference.json: for each workload at seed 0, every degree's rank,
expected rank and the sha256 of its monomial_hnf, from the current code.

    python3 perfbench/record_reference.py

Record only from code whose verdicts are trusted; the benchmark counts every
later mismatch as a failed degree.
"""

import contextlib
import io
import json
import os
import sys

import workloads


def main():
    sys.path.insert(0, workloads.SRC)
    from projrep import cli
    reference = {}
    for name in workloads.names():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(workloads.cli_argv(name, 0))
        payload = json.loads(buffer.getvalue())
        problems = workloads.check_payload(payload, workloads.max_degree(name),
                                           workloads.is_wreath(name), None)
        if code != 0 or problems:
            raise SystemExit("%s does not verify: %s" % (name, problems))
        reference[name] = [workloads.reference_entry(r) for r in payload["reports"]]
    with open(os.path.join(workloads.HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
