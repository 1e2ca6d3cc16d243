"""Command-line surface: generator computations and theorem verifications with
text or JSON reports.

Exit codes: 0 verified / success, 1 verification failed (a mathematical
counterexample), 2 usage or input error, 3 internal invariant failure (a
bug in projrep, not a counterexample).
"""

import argparse
import hashlib
import json
import sys
from functools import lru_cache
from importlib import resources
from math import isqrt

from . import modsym, series, wreath
from .partitions import count_multipartitions, partitions
from .symfunc import generator_powers, mn_character, render_terms

DEFAULT_GUARD_LIMIT = 20000


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


def resolve_table(spec):
    """A --table value is a file path or the name of a bundled fixture."""
    try:
        return wreath.load_table(spec)
    except wreath.TableError as err:
        bundled = resources.files("projrep") / "tables" / ("%s.json" % spec.lower())
        if bundled.is_file():
            return wreath.load_table(str(bundled))
        raise err


def matrix_digest(matrix):
    payload = json.dumps(matrix.to_lists()).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


_SCALARS = frozenset({int, str, float, bool, type(None)})


@lru_cache(maxsize=None)
def _row_encoder(pad):
    """The C encoder of a list of scalars whose items start on lines `pad`."""
    return json.JSONEncoder(separators=("," + pad, ": "), check_circular=False)


def json_chunks(value, pad="\n"):
    """json.dumps(value, indent=2, sort_keys=True) in pieces, with str keys.

    Dicts and lists of containers are walked here, as the stdlib encoder does
    when it indents; a list of bare scalars (a matrix row) is one call of the
    C encoder and one piece.  pad is the newline and indent of value's line."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
        else:
            sep = "{" + inner
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s" % type(key).__name__)
                yield sep + json.dumps(key) + ": "
                yield from json_chunks(item, inner)
                sep = "," + inner
            yield pad + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif set(map(type, value)) <= _SCALARS:
            yield "[" + inner + _row_encoder(inner).encode(value)[1:-1] + pad + "]"
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
    both matrices, so the verify commands build it only for --format text."""
    return ("n=%-2d verdict=%-5s %srank=%d/%d lattice=%s monomials=%s method=%s"
            % (report.degree, report.verdict, extra, report.rank, report.expected_rank,
               matrix_digest(report.lattice_hnf), matrix_digest(report.monomial_hnf),
               report.method))


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


def cmd_sym_verify(args):
    reports = []
    lines = []
    all_ok = True
    for n in range(0, args.max_degree + 1):
        report = modsym.verify_theorem1(n, args.p)
        all_ok = all_ok and report.verdict
        reports.append(report.to_dict())
        if args.format == "text":
            lines.append(degree_line(report))
    lines.append("theorem 1 %s for p=%d up to degree %d"
                 % ("VERIFIED" if all_ok else "FAILED", args.p, args.max_degree))
    emit(args, {"command": "sym-verify", "p": args.p, "max_degree": args.max_degree,
                "reports": reports, "all_verified": all_ok}, lines)
    return 0 if all_ok else 1


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
    count = count_multipartitions(table.N, args.max_degree)
    if count > args.guard_limit and not args.force:
        print("refusing: degree %d over %s needs %d multipartition indices "
              "(limit %d); pass --force to override"
              % (args.max_degree, table.name, count, args.guard_limit),
              file=sys.stderr)
        return False
    return True


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
    reports = []
    lines = ["table %s: N=%d, M=%d p-regular classes"
             % (table.name, table.N, lattice.M)]
    all_ok = True
    for n in range(0, args.max_degree + 1):
        report = wreath.verify_theorem2(table, args.p, n, lattice=lattice)
        exchange = wreath.generator_exchange_check(table, lattice, n)
        all_ok = all_ok and report.verdict and exchange
        entry = report.to_dict()
        entry["generator_exchange"] = exchange
        reports.append(entry)
        if args.format == "text":
            lines.append(degree_line(report, "exchange=%-5s " % exchange))
    lines.append("theorem 2 %s for %s, p=%d up to degree %d"
                 % ("VERIFIED" if all_ok else "FAILED", table.name, args.p,
                    args.max_degree))
    emit(args, {"command": "wreath-verify", "table": table.name, "p": args.p,
                "max_degree": args.max_degree, "reports": reports,
                "all_verified": all_ok}, lines)
    return 0 if all_ok else 1


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
        p.add_argument("--max-degree", type=positive_int, default=6,
                       help="largest degree to process (default 6)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if table:
            p.add_argument("--table", required=True,
                           help="character-table JSON file, or a bundled name "
                                "(trivial, c2, c3, s3, c4)")
            p.add_argument("--force", action="store_true",
                           help="override the size guardrail")
            p.add_argument("--guard-limit", type=positive_int,
                           default=DEFAULT_GUARD_LIMIT,
                           help="largest multipartition index count accepted "
                                "without --force (default %d)" % DEFAULT_GUARD_LIMIT)

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


if __name__ == "__main__":
    sys.exit(main())
