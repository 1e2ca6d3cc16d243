"""Command-line surface: generator computations and theorem verifications with
text or JSON reports.

Exit codes: 0 verified / success, 1 verification failed (a mathematical
counterexample), 2 usage or input error, 3 internal failure, never a
counterexample: an invariant failed (a bug in projrep) or any other error
was raised, such as MemoryError.
"""

import argparse
import json
import os
import sys
from math import isqrt

from . import modsym, series, wreath
from .exactlin import IntMatrix
from .partitions import count_multipartitions, partitions
from .symfunc import generator_powers, mn_character, render_terms

# the most multipartition indices a wreath command takes without --force
GUARD_LIMIT = 20000


# The largest --p is below 2^32, where trial division up to 2^16 decides
# primality at once; a larger value is refused.
PRIME_BOUND = 2 ** 32


def prime(text):
    value = int(text)
    if value >= PRIME_BOUND:
        raise argparse.ArgumentTypeError("--p must be below 2^32 = %d" % PRIME_BOUND)
    if value < 2 or any(value % d == 0 for d in range(2, isqrt(value) + 1)):
        raise argparse.ArgumentTypeError("%r is not a prime" % text)
    return value


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return value


def packable_degree(text):
    """A --max-degree: a positive int whose keys modsym can pack."""
    value = positive_int(text)
    try:
        modsym.check_packable(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))
    return value


def resolve_table(spec):
    """A --table value is a file path, or, where no file is at that path, the
    name of a bundled fixture, so a file is never replaced by the fixture of
    its name.  The fixtures are found beside this module, not through
    importlib.resources, whose import costs milliseconds and, on Python 3.13,
    about 3 MiB of modules."""
    bundled = os.path.join(os.path.dirname(__file__), "tables", "%s.json" % spec.lower())
    if not os.path.isfile(spec) and os.path.isfile(bundled):
        spec = bundled
    return wreath.load_table(spec)


def _row_items(row, ncols, sep):
    """The entries of a matrix row of width ncols, given as its sparse row
    (columns, values), as JSON joined by sep: json.dumps(dense row) holds
    them between its brackets when sep is ", ".  Built from the nonzeros
    alone: a run of k zeros is k copies of "0"."""
    zeros = "0" + sep
    pieces, at = [], 0
    for column, value in zip(*row):
        pieces.append(zeros * (column - at) + str(value))
        at = column + 1
    if at < ncols:
        pieces.append(zeros * (ncols - at - 1) + "0")
    return sep.join(pieces)


def matrix_digest(matrix):
    """The first 12 hex digits of sha256(json.dumps(matrix.to_lists())),
    fed one row at a time, so no whole-matrix string is built.  hashlib is
    imported here, as only the text reports need it and loading it costs a
    few ms and MB at start-up."""
    import hashlib
    digest = hashlib.sha256(b"[")
    sep = ""
    for row in matrix.sparse_rows:
        digest.update((sep + "[" + _row_items(row, matrix.ncols, ", ") + "]").encode())
        sep = ", "
    digest.update(b"]")
    return digest.hexdigest()[:12]


def _shared_matrices(items):
    """The ids of the matrices that are the value of two or more of the
    (key, value) pairs of one dict."""
    seen, shared = set(), set()
    for _, item in items:
        if isinstance(item, IntMatrix):
            (shared if id(item) in seen else seen).add(id(item))
    return shared


def json_chunks(value, pad="\n"):
    """json.dumps(value, indent=2, sort_keys=True) in pieces, with str keys,
    where an IntMatrix is written as its to_lists().

    Dicts and lists are walked here, as the stdlib encoder does when it
    indents; a matrix row is one piece, encoded by _row_items from its
    nonzeros.  pad is the newline and indent of value's line.  A matrix
    under two keys of one dict (a structural report's one matrix) is encoded
    once, and its pieces are written again for the second key; the ids are
    safe as keys because value keeps every object alive."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
        else:
            items = sorted(value.items())
            shared, encoded = _shared_matrices(items), {}
            sep = "{" + inner
            for key, item in items:
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s" % type(key).__name__)
                yield sep + json.dumps(key) + ": "
                if id(item) in shared:
                    if id(item) not in encoded:
                        encoded[id(item)] = list(json_chunks(item, inner))
                    yield from encoded[id(item)]
                else:
                    yield from json_chunks(item, inner)
                sep = "," + inner
            yield pad + "}"
    elif isinstance(value, IntMatrix):
        row_pad = inner + "  "
        sep = "[" + inner
        for row in value.sparse_rows:
            yield sep + ("[" + row_pad + _row_items(row, value.ncols, "," + row_pad)
                         + inner + "]" if value.ncols else "[]")
            sep = "," + inner
        yield pad + "]" if value.nrows else "[]"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        else:
            sep = "[" + inner
            for item in value:
                yield sep
                yield from json_chunks(item, inner)
                sep = "," + inner
            yield pad + "]"
    else:
        yield json.dumps(value)


def degree_line(report, extra=""):
    """The text line of one verified degree; the digests cost a JSON dump of
    the matrices, so the verify commands build it only for --format text, and
    a structural report, whose two matrices are one, dumps it once."""
    monomials = matrix_digest(report.monomial_hnf)
    lattice = (monomials if report.lattice_hnf is report.monomial_hnf
               else matrix_digest(report.lattice_hnf))
    return ("n=%-2d verdict=%-5s %srank=%d/%d lattice=%s monomials=%s method=%s"
            % (report.degree, report.verdict, extra, report.rank, report.expected_rank,
               lattice, monomials, report.method))


def emit(args, payload, text_lines):
    if args.format == "json":
        # written piece by piece, at most a matrix row each: a report can be
        # megabytes of indented JSON, and building it whole would set the
        # peak memory of a verify run
        sys.stdout.writelines(json_chunks(payload))
        print()
    else:
        for line in text_lines:
            print(line)


def element_dict(element):
    return {str(index): str(coeff) for index, coeff in element.sorted_terms()}


def render_phi_element(element, table):
    """Generator-product form with irreducible labels, e.g. Phi[triv](x2)*Phi[sgn](x1)."""
    terms = []
    for mp, coeff in element.sorted_terms():
        factors = []
        for irr, lam in zip(table.irreducibles, mp):
            factors += generator_powers(lam, lambda v: "Phi[%s](x%d)" % (irr.label, v))
        terms.append((coeff, "*".join(factors)))
    return render_terms(terms)


# ---------------------------------------------------------------------------
# commands


def cmd_sym_generators(args):
    entries = []
    lines = []
    all_agree = True
    quotient = series.y_from_quotient(args.max_degree, args.p)
    for n in range(1, args.max_degree + 1):
        if n % args.p == 0:
            continue
        explicit = series.y_explicit(n, args.p)
        agree = quotient[n] == explicit
        all_agree = all_agree and agree
        lines.append("y_%d = %s" % (n, explicit))
        if not agree:
            lines.append("  MISMATCH: series quotient gives %s" % quotient[n])
        entries.append({"n": n, "text": str(explicit),
                        "x_basis": element_dict(explicit),
                        "paths_agree": agree})
    lines.append("explicit formula and series quotient %s for p=%d up to degree %d"
                 % ("agree" if all_agree else "DISAGREE", args.p, args.max_degree))
    emit(args, {"command": "sym-generators", "p": args.p,
                "max_degree": args.max_degree, "generators": entries,
                "all_agree": all_agree}, lines)
    return 0 if all_agree else 1


def verify_degrees(args, payload, theorem, scope, verify, head=(), exchange=None):
    """The degree loop of both verify commands: the report verify(n) of each
    degree n up to --max-degree, with its generator exchange(n) if given,
    framed by the payload's fields, the head lines and the closing claim on
    the theorem over its scope; exit code 0 if every degree verified, else 1."""
    reports, lines, all_ok = [], list(head), True
    for n in range(0, args.max_degree + 1):
        report = verify(n)
        checks = {} if exchange is None else {"generator_exchange": exchange(n)}
        all_ok = all_ok and report.verdict and all(checks.values())
        if args.format == "json":
            reports.append(dict(report.to_dict(), **checks))
        else:
            lines.append(degree_line(report, "".join(
                "exchange=%-5s " % check for check in checks.values())))
    lines.append("%s %s for %s up to degree %d" % (
        theorem, "VERIFIED" if all_ok else "FAILED", scope, args.max_degree))
    emit(args, dict(payload, p=args.p, max_degree=args.max_degree, reports=reports,
                    all_verified=all_ok), lines)
    return 0 if all_ok else 1


def cmd_sym_verify(args):
    run = modsym.Run(modsym.SYM_CHARACTERS, ((1,),), args.p)
    return verify_degrees(args, {"command": "sym-verify"}, "theorem 1", "p=%d" % args.p,
                          lambda n: modsym.verify_theorem1(n, args.p, run))


def cmd_sym_chartable(args):
    classes = sorted(partitions(args.n))
    rows = []
    lines = ["classes: " + " ".join(str(mu) for mu in classes)]
    for lam in partitions(args.n):
        values = [mn_character(lam, mu) for mu in classes]
        rows.append({"partition": str(lam), "values": values})
        lines.append("chi%-10s %s" % (str(lam), " ".join("%4d" % v for v in values)))
    emit(args, {"command": "sym-chartable", "n": args.n, "classes":
                [str(mu) for mu in classes], "rows": rows}, lines)
    return 0


def guardrail(args, table):
    """True under --force or if no degree up to --max-degree needs more than
    GUARD_LIMIT multipartition indices, counted upward to the first degree
    over the limit, as the count grows with the degree; else False, with a
    refusal that names the count at --max-degree where it costs no more than
    that search (max_degree^2 against over^3 steps), else the count at over."""
    over = None if args.force else next((n for n in range(args.max_degree + 1)
                                         if count_multipartitions(table.N, n) > GUARD_LIMIT), None)
    if over is not None:
        named = args.max_degree if args.max_degree ** 2 <= over ** 3 else over
        at = "" if named == args.max_degree else ": degree %d already" % named
        print("refusing: degree %d over %s%s needs %d multipartition indices (limit %d); "
              "pass --force to override" % (args.max_degree, table.name, at,
                                            count_multipartitions(table.N, named), GUARD_LIMIT),
              file=sys.stderr)
    return over is None


def cmd_wreath_generators(args):
    table = resolve_table(args.table)
    if not guardrail(args, table):
        return 2
    lattice = wreath.e_lattice(table, args.p)
    entries = []
    lines = ["table %s: N=%d, M=%d p-regular classes"
             % (table.name, table.N, lattice.M)]
    for k in range(1, lattice.M + 1):
        generators = wreath.yk_generators(table, lattice, k, args.max_degree)
        for n in range(1, args.max_degree + 1):
            if n % args.p == 0:
                continue
            text = render_phi_element(generators[n], table)
            lines.append("y_{%d,%d} = %s" % (k, n, text))
            entries.append({"k": k, "n": n, "text": text,
                            "phi_basis": element_dict(generators[n])})
    emit(args, {"command": "wreath-generators", "table": table.name, "p": args.p,
                "max_degree": args.max_degree, "M": lattice.M,
                "generators": entries}, lines)
    return 0


def cmd_wreath_verify(args):
    table = resolve_table(args.table)
    if not guardrail(args, table):
        return 2
    lattice = wreath.e_lattice(table, args.p)
    run = wreath.lattice_run(table, lattice)
    # degree n's check reads degrees 1..n: if the top one passes, all do
    every_degree = wreath.generator_exchange_check(table, lattice, args.max_degree, run)
    return verify_degrees(
        args, {"command": "wreath-verify", "table": table.name},
        "theorem 2", "%s, p=%d" % (table.name, args.p),
        lambda n: wreath.verify_theorem2(table, args.p, n, run=run),
        ["table %s: N=%d, M=%d p-regular classes" % (table.name, table.N, lattice.M)],
        lambda n: every_degree or wreath.generator_exchange_check(table, lattice, n, run))


def cmd_examples(args):
    report = modsym.worked_examples_check()
    lines = []
    for check in report.checks:
        lines.append("%s %s: %s" % ("PASS" if check.passed else "FAIL",
                                    check.name, check.detail))
    for note in report.notes:
        lines.append("INFO %s" % note)
    emit(args, report.to_dict(), lines)
    return 0 if report.all_passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="projrep",
        description="Exact generators and degree-by-degree verification for the "
                    "graded rings of projective modular representations of "
                    "symmetric groups and wreath products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=False):
        p.add_argument("--p", type=prime, default=2, help="the prime (default 2)")
        p.add_argument("--max-degree", type=packable_degree, default=6,
                       help="largest degree to process (default 6)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if table:
            p.add_argument("--table", required=True,
                           help="character-table JSON file, or a bundled name "
                                "(trivial, c2, c3, s3, c4)")
            p.add_argument("--force", action="store_true",
                           help="override the size guardrail")

    sym = sub.add_parser("sym", help="symmetric group ring").add_subparsers(
        dest="subcommand", required=True)
    p_gen = sym.add_parser("generators", help="print the degree generators")
    common(p_gen)
    p_gen.set_defaults(func=cmd_sym_generators)
    p_ver = sym.add_parser("verify", help="verify theorem 1 degree by degree")
    common(p_ver)
    p_ver.set_defaults(func=cmd_sym_verify)
    p_chr = sym.add_parser("chartable", help="dump the character table oracle")
    p_chr.add_argument("--n", type=positive_int, required=True)
    p_chr.add_argument("--format", choices=("text", "json"), default="text")
    p_chr.set_defaults(func=cmd_sym_chartable)

    wr = sub.add_parser("wreath", help="wreath product ring").add_subparsers(
        dest="subcommand", required=True)
    w_gen = wr.add_parser("generators", help="print the y_{k,n} generators")
    common(w_gen, table=True)
    w_gen.set_defaults(func=cmd_wreath_generators)
    w_ver = wr.add_parser("verify", help="verify theorem 2 degree by degree")
    common(w_ver, table=True)
    w_ver.set_defaults(func=cmd_wreath_verify)

    p_ex = sub.add_parser("examples", help="check the worked character identities")
    p_ex.add_argument("--format", choices=("text", "json"), default="text")
    p_ex.set_defaults(func=cmd_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except wreath.TableError as err:
        print("table error: %s" % err, file=sys.stderr)
        return 2
    except AssertionError as err:
        print("internal invariant failure: %s" % err, file=sys.stderr)
        return 3
    except Exception as err:
        print("internal error: %r" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
