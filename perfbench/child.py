"""One cold projrep process of the benchmark.

    python3 child.py MODE WORKLOAD SEED T0

T0 is time.monotonic() in the parent just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree).  MODE:

  setup   time from T0 until `import projrep.cli` finishes, plus load_table
          and e_lattice for a wreath workload;
  verify  time one cli.main call with --format json, untraced, then check
          its report;
  trace   the same call with every layer wrapped by a Tracer; writes the
          spans to out/ and reports per-layer metrics.

The last line of stdout is one JSON object with the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_cli():
    """Import projrep from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import projrep.cli
    found = os.path.dirname(os.path.abspath(projrep.__file__))
    if found != os.path.join(SRC, "projrep"):
        raise SystemExit("projrep was imported from %s, not from %s" % (found, SRC))
    return projrep.cli


def setup(cli, setup_s, argv):
    args = cli.build_parser().parse_args(argv)
    extra = 0.0
    if args.command == "wreath":
        start = time.monotonic()
        cli.wreath.e_lattice(cli.resolve_table(args.table), args.p)
        extra = time.monotonic() - start
    return {"setup_s": setup_s + extra}


def run_cli(cli, argv):
    """(exit code, captured stdout buffer, error text or None).  The report
    is parsed later, by judge(), outside the timed window."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception as err:  # a crash of any degree fails the whole call
        return None, buffer, "%s: %s" % (type(err).__name__, err)
    return code, buffer, None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def judge(name, seed, code, buffer, error):
    """attempted / failed / problems for one call."""
    import workloads
    top = workloads.max_degree(name)
    payload = None
    if error is None:
        try:
            payload = json.loads(buffer.getvalue())
        except ValueError as err:
            error = "report is not JSON: %s" % err
    if payload is None:
        return {"attempted": top + 1, "failed": top + 1, "problems": [error]}
    wreath = workloads.is_wreath(name)
    references = workloads.applicable_reference(workloads.load_reference()[name],
                                                wreath, seed)
    problems = workloads.check_payload(payload, top, wreath, references)
    if code != 0 and not problems:
        return {"attempted": top + 1, "failed": top + 1,
                "problems": ["exit code %s although every degree passed" % code]}
    return {"attempted": top + 1, "failed": len(problems), "problems": problems}


def verify(cli, name, seed, argv):
    start = time.perf_counter()
    code, buffer, error = run_cli(cli, argv)
    elapsed = time.perf_counter() - start
    result = {"verify_s": elapsed, "peak_rss_mb": peak_rss_mb()}
    result.update(judge(name, seed, code, buffer, error))
    return result


def trace(cli, name, seed, argv):
    import layers
    import workloads
    from tracing import Tracer
    tracer = Tracer()
    layers.install(tracer, cli)
    try:
        with tracer.span("cli.main"):
            code, buffer, error = run_cli(cli, argv)
    finally:
        tracer.restore()
    result = {"metrics": layers.metrics(tracer, cli, argv),
              "largest_self": layers.largest_self_time(tracer.spans)}
    result.update(judge(name, seed, code, buffer, error))
    os.makedirs(workloads.OUT, exist_ok=True)
    with open(os.path.join(workloads.OUT, "trace-%s-seed%d.json" % (name, seed)), "w") as out:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans, "calls": tracer.calls,
                   "sizes": tracer.sizes}, out)
    return result


def main(argv):
    mode, name, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    cli = import_cli()
    imported = time.monotonic()
    # The harness's own modules load only now, so that setup_s covers
    # projrep's import and nothing of the benchmark.
    import workloads
    cli_args = workloads.cli_argv(name, seed)
    if mode == "setup":
        result = setup(cli, imported - t0, cli_args)
    elif mode == "verify":
        result = verify(cli, name, seed, cli_args)
    elif mode == "trace":
        result = trace(cli, name, seed, cli_args)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
