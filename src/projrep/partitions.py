"""Partitions, multipartitions, p-regularity and the centralizer order z_lambda."""

from functools import lru_cache
from math import factorial

from .exactlin import _integer


class Partition:
    """A partition as a weakly decreasing tuple of positive integers.

    The constructor checks the parts; partitions(n) and merge build their
    results by _trusted, which skips the checks because those parts are valid
    by construction."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(_integer, parts))
        if any(v < 1 for v in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts):
        """The partition of a weakly decreasing tuple of positive ints, unchecked."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "parts", parts)
        return partition

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return "[%s]" % ",".join(str(v) for v in self.parts)

    def multiplicities(self):
        """Map part value -> multiplicity."""
        mult = {}
        for v in self.parts:
            mult[v] = mult.get(v, 0) + 1
        return mult

    def merge(self, other):
        """Multiset union of parts, i.e. the index of a product of monomials."""
        return Partition._trusted(tuple(sorted(self.parts + other.parts, reverse=True)))

    def is_p_regular(self, p):
        """True iff no part is divisible by p."""
        return all(v % p != 0 for v in self.parts)


EMPTY = Partition(())


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n, in decreasing lexicographic order, starting at (n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition._trusted(prefix))
            return
        for v in range(min(cap, remaining), 0, -1):
            descend(remaining - v, v, prefix + (v,))

    descend(n, n, ())
    return tuple(out)


def p_regular_partitions(n, p):
    """Partitions of n with every part coprime to p, in enumeration order."""
    return tuple(lam for lam in partitions(n) if lam.is_p_regular(p))


def z(lam):
    """Centralizer order of the class lambda: prod over part values i of i^{n_i} * n_i!."""
    result = 1
    for value, mult in lam.multiplicities().items():
        result *= value ** mult * factorial(mult)
    return result


class MultiPartition:
    """A fixed-length tuple of partitions, indexed by an external index set.
    The constructor builds each component that is not yet a Partition
    through Partition's checks; multipartitions and merge build their
    results by _trusted."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        object.__setattr__(self, "components", comps)

    @classmethod
    def _trusted(cls, components):
        """The multipartition of a tuple of Partitions, unchecked."""
        multipartition = object.__new__(cls)
        object.__setattr__(multipartition, "components", components)
        return multipartition

    def __setattr__(self, name, value):
        raise AttributeError("MultiPartition is immutable")

    @property
    def size(self):
        return sum(c.size for c in self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, MultiPartition) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __lt__(self, other):
        return tuple(c.parts for c in self.components) < tuple(c.parts for c in other.components)

    def __repr__(self):
        return "MultiPartition(%r)" % (self.components,)

    def __str__(self):
        return "[%s]" % ",".join(str(c) for c in self.components)

    def merge(self, other):
        if len(self) != len(other):
            raise ValueError("component counts differ")
        return MultiPartition._trusted(tuple(map(Partition.merge, self.components,
                                                 other.components)))


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


def multipartitions(k, n, part_filter=None, component_filter=None):
    """All MultiPartitions of total size n over k components, deterministically ordered.

    The order is: size of the first component descending, then the first
    component in decreasing lex, then recursively on the rest.  part_filter
    restricts the allowed part values; a component whose index fails
    component_filter is forced empty.
    """
    if k == 0:
        return (MultiPartition._trusted(()),) if n == 0 else ()

    def component_choices(idx, size):
        if component_filter is not None and not component_filter(idx):
            return (EMPTY,) if size == 0 else ()
        if part_filter is None:
            return partitions(size)
        return tuple(lam for lam in partitions(size)
                     if all(part_filter(v) for v in lam.parts))

    out = []

    def descend(idx, remaining, prefix):
        if idx == k - 1:
            for lam in component_choices(idx, remaining):
                out.append(MultiPartition._trusted(prefix + (lam,)))
            return
        for s in range(remaining, -1, -1):
            choices = component_choices(idx, s)
            if not choices:
                continue
            for lam in choices:
                descend(idx + 1, remaining - s, prefix + (lam,))

    descend(0, n, ())
    return tuple(out)
