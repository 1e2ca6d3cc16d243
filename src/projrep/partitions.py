"""Partitions, multipartitions, p-regularity and the centralizer order z_lambda."""

from functools import lru_cache
from math import factorial

from .exactlin import _integer


class Partition(tuple):
    """A partition: the tuple of its parts, weakly decreasing positive ints,
    which it equals, hashes and orders as.

    The constructor checks the parts, and copy and pickle rebuild through it;
    partitions(n) and merge build their results by _trusted, which skips the
    checks because those parts are valid by construction."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(_integer, parts))
        if any(v < 1 for v in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        return tuple.__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts):
        """The partition of weakly decreasing positive ints, unchecked."""
        return tuple.__new__(cls, parts)

    @property
    def parts(self):
        """The parts as a plain tuple."""
        return tuple(self)

    @property
    def size(self):
        return sum(self)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return "[%s]" % ",".join(map(str, self))

    def multiplicities(self):
        """Map part value -> multiplicity."""
        mult = {}
        for v in self:
            mult[v] = mult.get(v, 0) + 1
        return mult

    def merge(self, other):
        """Multiset union of parts, i.e. the index of a product of monomials."""
        return Partition._trusted(sorted(self + other, reverse=True))

    def is_p_regular(self, p):
        """True iff no part is divisible by p."""
        return all(v % p != 0 for v in self)


EMPTY = Partition(())


def parts_at_most(n, count, cap):
    """The partitions of n into at most count parts, none above cap, as
    tuples of parts, in decreasing lexicographic order."""
    out = []

    def descend(remaining, count, cap, prefix):
        if not remaining:
            out.append(prefix)
        elif count:
            for v in range(min(cap, remaining), 0, -1):
                descend(remaining - v, count - 1, v, prefix + (v,))

    descend(n, count, cap, ())
    return out


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n, in decreasing lexicographic order, starting at (n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(map(Partition._trusted, parts_at_most(n, n, n)))


def p_regular_partitions(n, p):
    """Partitions of n with every part coprime to p, in enumeration order."""
    return tuple(lam for lam in partitions(n) if lam.is_p_regular(p))


def z(lam):
    """Centralizer order of the class lambda: prod over part values i of i^{n_i} * n_i!."""
    result = 1
    for value, mult in lam.multiplicities().items():
        result *= value ** mult * factorial(mult)
    return result


class MultiPartition(tuple):
    """A multipartition: the fixed-length tuple of its Partitions, indexed by
    an external index set, which it equals, hashes and orders as.  The
    constructor builds each component that is not yet a Partition through
    Partition's checks; multipartitions and merge build their results by
    _trusted."""

    __slots__ = ()

    def __new__(cls, components):
        return tuple.__new__(cls, (c if isinstance(c, Partition) else Partition(c)
                                   for c in components))

    @classmethod
    def _trusted(cls, components):
        """The multipartition of Partitions, unchecked."""
        return tuple.__new__(cls, components)

    @property
    def components(self):
        """The components as a plain tuple of Partitions."""
        return tuple(self)

    @property
    def size(self):
        return sum(c.size for c in self)

    def __repr__(self):
        return "MultiPartition(%r)" % (self.components,)

    def __str__(self):
        return "[%s]" % ",".join(map(str, self))

    def merge(self, other):
        if len(self) != len(other):
            raise ValueError("component counts differ")
        return MultiPartition._trusted(map(Partition.merge, self, other))


def count_multipartitions(k, n, part_filter=None):
    """Number of MultiPartitions of size n over k components with parts part_filter allows."""
    counts = [1] + [0] * n
    for part in filter(part_filter, range(1, n + 1)):
        for s in range(part, n + 1):
            counts[s] += counts[s - part]
    total = [1 if s == 0 else 0 for s in range(n + 1)]
    for _ in range(k):
        total = [sum(total[j] * counts[s - j] for j in range(s + 1))
                 for s in range(n + 1)]
    return total[n]


def multipartitions(k, n, part_filter=None):
    """All MultiPartitions of total size n over k components, deterministically ordered.

    The order is: size of the first component descending, then the first
    component in decreasing lex, then recursively on the rest.  part_filter
    restricts the allowed part values.
    """
    if k == 0:
        return (MultiPartition._trusted(()),) if n == 0 else ()

    def component_choices(size):
        if part_filter is None:
            return partitions(size)
        return tuple(lam for lam in partitions(size)
                     if all(map(part_filter, lam)))

    out = []

    def descend(idx, remaining, prefix):
        if idx == k - 1:
            for lam in component_choices(remaining):
                out.append(MultiPartition._trusted(prefix + (lam,)))
            return
        for s in range(remaining, -1, -1):
            choices = component_choices(s)
            if not choices:
                continue
            for lam in choices:
                descend(idx + 1, remaining - s, prefix + (lam,))

    descend(0, n, ())
    return tuple(out)
