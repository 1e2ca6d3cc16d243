"""Exact construction and machine verification of the graded Grothendieck rings
of projective modular representations of symmetric groups and wreath products."""

from .exactlin import Cyclotomic, IntMatrix, Rational, hnf, rational_kernel, unimodular_complete
from .partitions import MultiPartition, Partition, multipartitions, partitions, z
from .symfunc import ClassValues, SymElement, c_to_x, class_values, inner_product, x_to_c
from .series import GradedSeries, exp, int_power, p_split, quotient_y, y_explicit
from .modsym import VerificationReport, worked_examples_check, verify_theorem1
from .wreath import CharTable, ELatticeBasis, WreathElement, e_lattice, load_table, verify_theorem2

__all__ = [
    "CharTable", "ClassValues", "Cyclotomic", "ELatticeBasis", "GradedSeries",
    "IntMatrix", "MultiPartition", "Partition", "Rational", "SymElement",
    "VerificationReport", "WreathElement", "c_to_x", "class_values", "e_lattice",
    "exp", "hnf", "inner_product", "int_power", "load_table", "multipartitions",
    "p_split", "worked_examples_check", "partitions", "quotient_y",
    "rational_kernel", "unimodular_complete",
    "verify_theorem1", "verify_theorem2", "x_to_c", "y_explicit", "z",
]
