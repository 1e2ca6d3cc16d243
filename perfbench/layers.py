"""Which projrep functions the traced run wraps, and the per-layer metrics
derived from the spans.

Every span name is "<layer>.<what>", the layer being the projrep module the
function belongs to (cli, modsym, symfunc, exactlin, series, wreath).  A
function is patched under the name its caller looks it up by: modsym and
wreath import their helpers with `from .x import f`, so f is replaced in the
caller's globals, not in the defining module.  Metrics named *_s are self
times, except cli.total_s, *.verify_s and *.top_degree_s, which are inclusive.
"""

from tracing import summarize

VERIFY_SPANS = ("modsym.verify", "wreath.verify")
LAYERS = ("modsym", "symfunc", "exactlin", "series", "wreath")


def _kernel_shape(tracer, args, result):
    tracer.record_size("exactlin.kernel_rows", len(args[0]))
    tracer.record_size("exactlin.kernel_cols", args[1])


def _transform_bits(tracer, args, result):
    transform = result[1]
    tracer.record_size("exactlin.transform_bits",
                       max((abs(v).bit_length() for row in transform.rows for v in row),
                           default=0))


def install(tracer, cli):
    from projrep import exactlin, modsym, wreath
    for owner, attr, name, sizes in (
            (cli, "emit", "cli.emit", None),
            (modsym, "verify_theorem1", "modsym.verify", None),
            (modsym, "class_values", "symfunc.class_values", None),
            (modsym, "y_monomial", "series.y_monomial", None),
            (modsym, "rational_kernel", "exactlin.kernel", _kernel_shape),
            (modsym, "hnf_basis", "exactlin.hnf_basis", None),
            (exactlin, "hnf_with_transform", "exactlin.hnf", _transform_bits),
            (wreath, "verify_theorem2", "wreath.verify", None),
            (wreath, "e_lattice", "wreath.e_lattice", None),
            (wreath, "generator_exchange_check", "wreath.exchange_check", None),
            (wreath, "xi_from_phi", "wreath.xi_expansion", None),
            (wreath, "yk_generators", "wreath.generators", None),
            (wreath, "rational_kernel", "exactlin.kernel", _kernel_shape),
            (wreath, "hnf_basis", "exactlin.hnf_basis", None),
            (wreath, "quotient_y", "series.quotient", None),
            (wreath, "int_power", "series.int_power", None)):
        tracer.trace(owner, attr, name, sizes)
    # Called for nearly every cyclotomic operation: counted, not spanned.
    tracer.count(exactlin.Cyclotomic, "lift", "exactlin.cyclotomic_lifts")


def index_size(cli, argv):
    """Number of x (sym) or PHI (wreath) monomial indices at the top degree."""
    from projrep.partitions import count_multipartitions, partitions
    args = cli.build_parser().parse_args(argv)
    if args.command == "wreath":
        return count_multipartitions(cli.resolve_table(args.table).N, args.max_degree)
    return len(partitions(args.max_degree))


def metrics(tracer, cli, argv):
    """Per-layer metric values of a finished traced run (without units)."""
    from projrep import modsym
    totals = summarize(tracer.spans, VERIFY_SPANS)
    own, inclusive, calls, last = (totals["self"], totals["inclusive"],
                                   totals["calls"], totals["last"])
    values = {
        "cli.total_s": inclusive["cli.main"],
        "cli.emit_s": own.get("cli.emit", 0.0),
        "modsym.verify_s": inclusive.get("modsym.verify", 0.0),
        "modsym.top_degree_s": last.get("modsym.verify", 0.0),
        "modsym.self_s": own.get("modsym.verify", 0.0),
        "symfunc.class_values_s": own.get("symfunc.class_values", 0.0),
        "symfunc.class_values_calls": calls.get("symfunc.class_values", 0),
        "exactlin.kernel_s": own.get("exactlin.kernel", 0.0),
        "exactlin.hnf_s": own.get("exactlin.hnf", 0.0),
        "exactlin.hnf_calls": calls.get("exactlin.hnf", 0),
        "exactlin.transform_bits": tracer.sizes.get("exactlin.transform_bits", 0),
        "exactlin.kernel_rows": tracer.sizes.get("exactlin.kernel_rows", 0),
        "exactlin.kernel_cols": tracer.sizes.get("exactlin.kernel_cols", 0),
        "exactlin.cyclotomic_lifts": tracer.calls["exactlin.cyclotomic_lifts"],
        "series.y_monomial_s": own.get("series.y_monomial", 0.0),
        "series.quotient_s": own.get("series.quotient", 0.0),
        "series.int_power_s": own.get("series.int_power", 0.0),
        "wreath.xi_expansion_s": own.get("wreath.xi_expansion", 0.0),
        "wreath.xi_expansion_calls": calls.get("wreath.xi_expansion", 0),
        "wreath.generators_s": own.get("wreath.generators", 0.0),
        "wreath.exchange_check_s": own.get("wreath.exchange_check", 0.0),
        "wreath.e_lattice_s": own.get("wreath.e_lattice", 0.0),
        "wreath.verify_s": inclusive.get("wreath.verify", 0.0),
        "wreath.top_degree_s": last.get("wreath.verify", 0.0),
    }
    for prefix, cached in (("partitions.partitions", modsym.partitions),
                           ("modsym.x_class_value_matrix", modsym.x_class_value_matrix)):
        info = cached.cache_info()
        values[prefix + "_hits"] = info.hits
        values[prefix + "_misses"] = info.misses
    # Read after cache_info, because index_size itself calls partitions().
    values["partitions.index_size"] = index_size(cli, argv)
    for layer in LAYERS:
        values[layer + ".share"] = (totals["layer_self"].get(layer, 0.0) / totals["root_s"]
                                    if totals["root_s"] else 0.0)
    return values


def largest_self_time(spans):
    """The span name with the largest summed self time, cli.main excluded."""
    own = summarize(spans, ())["self"]
    return max((name for name in own if name != "cli.main"), key=own.get)
