"""Class values on packed keys (of X_n, of the generators and of every
monomial), the constraint matrix of the vanishing lattice, the closed forms
X_k and Y_k with the link that certifies them, the generator-monomial matrix
and the verification report.  One Run per (characters, lattice rows, p)
verifies degree after degree and owns every memo they share.  S_n is the
case G = 1 of G wr S_n, so verify_theorem1 and wreath.verify_theorem2 are
both a Run's verify."""

import time
from collections import defaultdict, namedtuple
from fractions import Fraction
from math import comb, factorial, prod
from functools import lru_cache
from itertools import islice
from operator import floordiv

from .exactlin import IntMatrix, cyclotomic_polynomial, hnf_basis, integer_kernel, is_unit_echelon
from .partitions import Partition, count_multipartitions, partitions, parts_at_most
from .series import power_coefficient, y_explicit
from .symfunc import SymElement, X, class_values, schur_in_x
# unused here, but perfbench/layers.py patches these modsym names
from .exactlin import rational_kernel  # noqa: F401
from .series import y_monomial  # noqa: F401


# ---------------------------------------------------------------------------
# packed keys


# Bits of one multiplicity field of a packed key.  A multiplicity in degree n
# is at most n, so below degree 2^FIELD no field carries into the next.
FIELD = 16


def part_key(ncomp, j, v):
    """The key of the part v in component j of ncomp.  The key of a
    multipartition is the sum of its parts' keys: field (v - 1) * ncomp + j,
    FIELD bits wide, holds the multiplicity of v in component j.  So the key
    of a product of monomials, whose index is the multiset union of theirs
    (x_lambda x_mu = x_(lambda u mu), Macdonald I.2), is the sum of theirs."""
    return 1 << FIELD * ((v - 1) * ncomp + j)


def lowest_part(key, ncomp):
    """(j, v) of the lowest nonzero field of a nonzero key over ncomp
    components: its smallest part v, in its first component j holding v."""
    field = ((key & -key).bit_length() - 1) // FIELD
    return field % ncomp, field // ncomp + 1


def key_fields(key, ncomp):
    """The multiplicities a key over ncomp components holds, per component:
    [j][v - 1] is the multiplicity of the part v in component j, up to the
    largest part of the key."""
    low = (1 << FIELD) - 1
    fields = [key >> FIELD * f & low for f in range(-(-key.bit_length() // FIELD))]
    return [fields[j::ncomp] for j in range(ncomp)]


def check_packable(n, width=1):
    """Refuse a degree n whose multiplicities could carry out of a FIELD, or
    values of width phi(m) whose zeta_m exponents, up to 2 * width - 2 in a
    product of packed class functions (see CycleWeight), could."""
    if n >= 1 << FIELD or 2 * width - 2 >= 1 << FIELD:
        raise ValueError("degree %d with values of width %d needs fields wider than %d bits"
                         % (n, width, FIELD))


def _key_product(a, b, out=None):
    """The product of two elements held as {packed key: coefficient}, with
    the zero coefficients of terms that cancel; added into out if given."""
    out = {} if out is None else out
    get = out.get
    for key, coeff in a.items():
        for other, value in b.items():
            at = key + other
            out[at] = get(at, 0) + coeff * value
    return out


def _scaled_product(scale, a, b, out=None):
    """scale * _key_product(a, b), the scale folded into the smaller factor;
    added into out if given."""
    small, large = sorted((a, b), key=len)
    return _key_product({key: scale * value for key, value in small.items()}, large, out)


def monomial_matrix(generator, nfamilies, n, lower, keys):
    """The integer coordinates of the degree-n generator monomials, as a
    matrix of sparse rows (see IntMatrix), one row per multipartition a of n
    over nfamilies with parts prime to p, in multipartitions order: the
    product over j and the parts v of a_j of generator(j, v), held as
    {packed key: int}, over the multipartitions of n in that order.

    keys(d) gives the rows of degree d <= n as a map from each key to its
    row index, and the keys of its columns (Run.degree_keys); lower(d) is
    this matrix in degree d < n.  A row is the generator of its lowest_part
    (its smallest part, the generator with the fewest terms) times the row
    of the rest, read from lower at its degree.  The lower degrees are asked
    for in ascending order, so a cold lower builds each from those below it."""
    if not n:
        return IntMatrix.identity(1)
    below = [(lower(d).sparse_rows,) + keys(d) for d in range(n)]
    row_index, columns = keys(n)
    positions = {key: i for i, key in enumerate(columns)}
    rows = []
    for key in row_index:
        j, v = lowest_part(key, nfamilies)
        sparse, index, column_keys = below[n - v]
        rest_columns, rest_values = sparse[index[key - part_key(nfamilies, j, v)]]
        product = {}
        get = product.get
        for gkey, g in generator(j, v).items():
            for rkey, x in zip(map(column_keys.__getitem__, rest_columns), rest_values):
                at = gkey + rkey
                product[at] = get(at, 0) + g * x
        entries = sorted((positions[at], value) for at, value in product.items() if value)
        rows.append(tuple(zip(*entries)) or ((), ()))
    return IntMatrix._trusted_sparse(rows, len(columns))


# ---------------------------------------------------------------------------
# class functions of G wr S_n, packed


CycleWeight = namedtuple("CycleWeight", "values element_orders conductor")
CycleWeight.__doc__ = """A class function psi of a finite group G, the weight of one cycle.

values[c] holds the integer power-basis coordinates of psi(C_c) over
Z[zeta_conductor], and element_orders[c] the order of the elements of C_c.
A class of G wr S_n is a multiset of cycles, each with a length r and the
class C_c of its cycle product, labelled r * N + c, N the number of classes
of G.  The key of a class is the key (see part_key) of the multipartition
nu of its cycle lengths nu[c] through C_c, over N components, which holds
the multiplicity of the label r * N + c in field (r - 1) * N + c, one field
up if phi(m) > 1.  S_n is the case G = 1: SYM_WEIGHT, one class and psi = 1.

Packed, f of degree n is {key of mu + s: F} on its nonzero F = (zeta_m^s
part of f(mu)) * n! / aut(mu), aut(mu) the product of the m_l(mu)! over the
labels l of mu.  The induction product (Macdonald I.7) of f and g, of
degree n - j, is C(n, j) * _key_product(F_f, F_g), reduced (_reduced)."""

SYM_WEIGHT = CycleWeight(((1,),), (1,), 1)

# The characters of the one-class group G = 1, whose wreath products are the
# S_n: one character, chi = 1.
SYM_CHARACTERS = (SYM_WEIGHT,)


def _label_shift(label, ncls, width):
    """The offset of the field of the cycle label r * N + c in a packed key
    (see CycleWeight), for values of the given width."""
    return FIELD * (label - ncls + (width > 1))


def _reduced(values, conductor):
    """values, a packed class function (see CycleWeight) whose zeta_m
    exponents may reach 2 * phi(m) - 2, as products leave them, with every
    exponent s >= phi(m) reduced in place modulo the m-th cyclotomic
    polynomial, the highest first; returned without its zero values."""
    poly = cyclotomic_polynomial(conductor)
    width, low = len(poly) - 1, (1 << FIELD) - 1
    terms = [(at, coeff) for at, coeff in enumerate(poly[:width], -width) if coeff]
    for s in range(2 * width - 2, width - 1, -1):
        for key in [key for key in values if key & low == s]:
            value = values.pop(key)
            for at, coeff in terms:
                values[key + at] = values.get(key + at, 0) - coeff * value
    return {key: value for key, value in values.items() if value}


def is_p_singular(label, element_orders, p):
    """True iff a cycle of label r * N + c (see CycleWeight) is p-singular:
    its length r is divisible by p, or its product lies in a class C_c of G
    of element order element_orders[c] divisible by p.  A class of G wr S_n
    is p-singular iff one of its cycles is."""
    ncls = len(element_orders)
    return label // ncls % p == 0 or element_orders[label % ncls] % p == 0


def _singular_mask(weight, p, n):
    """The bits of the packed keys of degree n (see CycleWeight) that hold
    the multiplicities of the p-singular cycle labels: a class is p-singular
    iff its key meets them."""
    ncls, width = len(weight.values), len(weight.values[0])
    return sum(((1 << FIELD) - 1) << _label_shift(label, ncls, width)
               for label in range(ncls, (n + 1) * ncls)
               if is_p_singular(label, weight.element_orders, p))


def cycle_weight(characters, exponents):
    """psi_k = sum_j e_j chi_j for the row e = phi_k, as a CycleWeight: X_{k,n}
    is prod psi_k(C) over the cycles of a class.  (SYM_CHARACTERS, (1,)) gives SYM_WEIGHT."""
    first = characters[0]
    values = tuple(tuple(sum(e * chi.values[c][t] for e, chi in zip(exponents, characters))
                         for t in range(len(first.values[0])))
                   for c in range(len(first.values)))
    return CycleWeight(values, first.element_orders, first.conductor)


def _power_rule(x, exponents):
    """True iff x = X_{k,0..n}, packed, satisfies for every j the degree-n
    part of H_j D_j X_k = e_j X_k D H_j, sum_i Phi_j(x_i) (D_j - e_j i)
    X_{k,n-i} = 0, D_j multiplying the Phi monomial rho by |rho_j|, read
    from its key_fields, as X_k = prod_j H_j^{e_j} does.  Its term i = 0 is D_j X_{k,n},
    so with X_{k,0} = 1 the rule for every j fixes X_{k,n} from the lower
    degrees, with no power_coefficient."""
    ncomp, total = len(exponents), {}
    for i, lower in enumerate(reversed(x)):
        for rho, c in lower.items():
            for j, (e, fields) in enumerate(zip(exponents, key_fields(rho, ncomp))):
                size = sum(v * m for v, m in enumerate(fields, 1))
                at = j, rho + (part_key(ncomp, j, i) if i else 0)
                total[at] = total.get(at, 0) + c * (size - e * i)
    return not any(total.values())


# ---------------------------------------------------------------------------
# the run: every memo of the engine, for one (characters, rows, p)


def _per_run(method):
    """method memoised on its arguments in the run it is called on: the
    results live in that run's memos and go with the run."""
    def memoised(run, *args):
        memo = run.memos[method]
        if args not in memo:
            memo[args] = method(run, *args)
        return memo[args]
    return memoised


class Run:
    """One verification of G wr S_n at the prime p, G given by its integer
    characters (CycleWeights) and the lattice rows phi_k, k <= M, as tuples
    (S_n: SYM_CHARACTERS and the row (1,)); row k of a method is rows[k].
    Degree n reads the closed forms, link verdicts, (a') values and matrices
    of every lower degree, so the run keeps each (_per_run) until it is
    dropped, as a command's run is when it ends.  With no rows, a run is the
    memo of one monomial_values call."""

    def __init__(self, characters, rows=(), p=None):
        self.characters, self.rows, self.p = characters, tuple(rows), p
        self.weights = [cycle_weight(characters, row) for row in self.rows]
        self.memos = defaultdict(dict)

    def matching(self, characters, p, rows=None):
        """This run, after a ValueError if its prime, its characters or, when
        rows is given, its lattice rows differ from these: a verification in
        it would be of another ring."""
        for name, mine, asked in (("prime", self.p, p),
                                  ("characters", self.characters, characters),
                                  ("lattice rows", self.rows, rows)):
            if asked is not None and mine != asked:
                raise ValueError("the run has %s %r where the arguments have %r"
                                 % (name, mine, asked))
        return self

    @_per_run
    def partition_keys(self, ncomp, p, size):
        """The keys (see part_key) of the partitions of size, parts prime to p
        unless p is None, in component 0 of ncomp and partitions order, and
        for each cap the index of the first with no part above cap: those
        with first part v extend the tail of the list of size - v from the
        index of cap v."""
        if not size:
            return (0,), (0,)
        keys, starts = [], [0] * (size + 1)
        for v in range(size, 0, -1):
            starts[v] = len(keys)
            if p is None or v % p:
                low, low_starts = self.partition_keys(ncomp, p, size - v)
                unit = part_key(ncomp, 0, v)
                keys += [unit + key for key in islice(low, low_starts[min(v, size - v)], None)]
        starts[0] = len(keys)
        return tuple(keys), tuple(starts)

    def multipartition_keys(self, ncomp, n, p=None):
        """The key (see part_key) of each of multipartitions(ncomp, n) with
        parts prime to p (all if p is None), in that order, as a tuple,
        building no MultiPartition: component j's keys are component 0's
        shifted, and component 0's are partition_keys' own ints."""
        def component(j, size):
            keys = self.partition_keys(ncomp, p, size)[0]
            return keys if not j else [key << FIELD * j for key in keys]

        # tails[s]: the keys over components j.. of total s; for j = 0, s = n
        tails = [component(ncomp - 1, s) for s in range(n + 1)]
        for j in range(ncomp - 2, -1, -1):
            tails = [[key + tail for s in range(size, -1, -1) for key in component(j, s)
                      for tail in tails[size - s]] for size in range(n if not j else 0, n + 1)]
        return tuple(tails[-1])

    @_per_run
    def degree_keys(self, n):
        """The keys of the rows of monomials(n), as a map from each to its
        row index in row order, and of its columns: enumerated once for the
        run, as every higher degree reads the rows of this one."""
        rows = self.multipartition_keys(len(self.rows), n, self.p)
        return ({key: i for i, key in enumerate(rows)},
                self.multipartition_keys(len(self.characters), n))

    @_per_run
    def cycle_products(self, weight, n):
        """The values of X_n, the character whose value on a class of G wr S_n
        is the product of psi(C) over its cycles, psi the CycleWeight weight,
        packed.  X_n is x_n (value 1) for SYM_WEIGHT, and X_{k,n} for the
        weight psi_k of cycle_weight.  n * X_n = sum over r of r * (E_r *
        X_{n-r}), E_r being psi(C) on the class of one r-cycle through C:
        packed, the key products by E_r's values times r * C(n, r) * r! / n
        = (n - 1)! r / (n - r)!."""
        ncls, width = len(weight.values), len(weight.values[0])
        if not n:
            return {0: 1}
        acc = {}
        for r in range(1, n + 1):
            cycle = {(1 << _label_shift(r * ncls + c, ncls, width)) + s: v
                     for c, coords in enumerate(weight.values) for s, v in enumerate(coords) if v}
            _scaled_product(factorial(n - 1) * r // factorial(n - r), cycle,
                            self.cycle_products(weight, n - r), acc)
        return _reduced(acc, weight.conductor)

    @_per_run
    def generator_values(self, k, n):
        """The nonzero values of the generator y_{k,n}, packed, from X(t) =
        S(t) * (1 + Y(t)) with X_j = cycle_products(psi_k, j) and S the part
        of X in degrees divisible by p:
            y_n = [p does not divide n] * X_n - sum over p | j, 0 < j < n of X_j * y_{n-j},
        the product being the induction product.  Needs no table of class
        values: degree n reads only the generators below it."""
        weight, p = self.weights[k], self.p
        acc = dict(self.cycle_products(weight, n)) if n % p else {}
        for j in range(p, n, p):
            _scaled_product(-comb(n, j), self.cycle_products(weight, j),
                            self.generator_values(k, n - j), acc)
        return _reduced(acc, weight.conductor)

    @_per_run
    def vanish(self, k, n):
        """Check (a') of the structural certificate for row k: every
        generator y_{k,i}, i <= n, vanishes on the p-singular classes (those
        with a cycle of length divisible by p, or in a p-singular class of
        G); one new degree per call, checked after degree n - 1."""
        if not n:
            return True
        mask = _singular_mask(self.weights[k], self.p, n)
        return (self.vanish(k, n - 1)
                and not any(key & mask for key in self.generator_values(k, n)))

    @_per_run
    def power_form(self, e, j, size):
        """Degree size of H_j^e, H_j = sum_i Phi_j(x_i) t^i, packed in
        component j of N: rho_j has the coefficient power_coefficient(e,
        rho_j), built only where nonzero, with at most e parts if e >= 0, as
        (e)_l = 0 for 0 <= e < l."""
        ncomp = len(self.characters)
        return {sum(part_key(ncomp, j, v) for v in parts):
                power_coefficient(e, parts)
                for parts in parts_at_most(size, size if e < 0 else e, size)}

    @_per_run
    def power_product(self, k, j, n):
        """Degree n of the product over t >= j of H_t^{e_t}, e = phi_k, packed."""
        exponents = self.rows[k]
        if j == len(exponents) - 1:
            return self.power_form(exponents[j], j, n)
        out = {}
        for s in range(n + 1):
            _key_product(self.power_form(exponents[j], j, s),
                         self.power_product(k, j + 1, n - s), out)
        return out

    def xk(self, k, n):
        """X_{k,n}, packed: rho has the coefficient prod_j power_coefficient(e_j, rho_j)."""
        return self.power_product(k, 0, n)

    @_per_run
    def y_explicit(self, n):
        """series.y_explicit(n, p), which every row substitutes into."""
        return y_explicit(n, self.p)

    @_per_run
    def x_monomial(self, k, parts):
        """x_parts with each x_i replaced by X_{k,i}, packed: one product per new call."""
        first = self.xk(k, parts[0])
        return _key_product(first, self.x_monomial(k, parts[1:])) if parts[1:] else first

    @_per_run
    def yk(self, k, n):
        """y_{k,n} as {packed key: int}: y_explicit(n), whose coefficients
        must be ints, with each x_i replaced by X_{k,i}, a ring map taking H
        to X_k, S to S_k and so 1 + Y = H / S to 1 + Y_k = X_k / S_k."""
        coeffs = {}
        for lam, coeff in self.y_explicit(n).coeffs.items():
            if type(coeff) is not int:
                raise AssertionError("non-integral coordinate %s at %s" % (coeff, lam))
            _key_product({0: coeff}, self.x_monomial(k, lam.parts), coeffs)
        return {rho: value for rho, value in coeffs.items() if value}

    @_per_run
    def linked(self, k, n):
        """The closed forms of row k are the true X_k and Y_k in every degree
        <= n, checking one new degree per call, on packed keys: X_{k,n} by
        _power_rule, then y_{k,n} by the degree-n part of the link X_k = S_k
        * (1 + Y_k), X_{k,n} = sum over p | j of X_{k,j} y_{k,n-j}, y_{k,0} = 1."""
        x = [self.xk(k, i) for i in range(n + 1)]
        if not n:
            return x[0] == {0: 1}
        if not (self.linked(k, n - 1) and _power_rule(x, self.rows[k])):
            return False
        total = {}
        for j in range(0, n + 1, self.p):
            _key_product(x[j], self.yk(k, n - j) if j < n else {0: 1}, total)
        return {rho: value for rho, value in total.items() if value} == x[n]

    @_per_run
    def monomials(self, n):
        """The coordinates of the degree-n monomials in the y_{k,v}
        (monomial_matrix): each degree's rows are read from the lower
        degrees' matrices, built once for the run."""
        return monomial_matrix(self.yk, len(self.rows), n, self.monomials, self.degree_keys)

    def verify(self, n):
        """The report on degree n (VerificationReport.decide), refusing first
        what check_packable refuses."""
        start, p, rows = time.perf_counter(), self.p, range(len(self.rows))
        check_packable(n, len(self.characters[0].values[0]))
        monomial_hnf = hnf_basis(self.monomials(n))
        generators = all(self.vanish(k, n) for k in rows) if all(
            self.linked(k, n) for k in rows) else None
        regular = sum(order % p != 0 for order in self.characters[0].element_orders)
        return VerificationReport.decide(
            n, p, lambda: singular_constraints(self.characters, p, n), monomial_hnf,
            count_multipartitions(regular, n, lambda v: v % p), start, generators)


# ---------------------------------------------------------------------------
# class values of every monomial, and the constraints of the vanishing lattice


def monomial_values(characters, n, p=None):
    """For each rho in multipartition_keys(N, n) order, the values of the
    character X_rho of G wr S_n on the p-singular classes of degree n (every
    class if p is None), in that order too: phi(m) integer coordinates over
    Z[zeta_m] per class.  characters[j] is the CycleWeight of chi_j; for
    SYM_CHARACTERS, X_rho is the permutation character x_lambda, rho = (lambda,).

    X_rho is the induction product (Macdonald I.7, I App. B) over the parts v
    of every rho_j of cycle_products(chi_j, v): the lowest_part's times the
    rest's, the products below degree n and the keys memoised for this call,
    in a Run of its own.  check_packable runs before any product."""
    ncls, width = len(characters), len(characters[0].values[0])
    check_packable(n, width)
    run = Run(characters)
    if p is not None:
        mask = _singular_mask(characters[0], p, n)
    keys, scales = [], []
    for nu in run.multipartition_keys(ncls, n):
        key = nu << FIELD * (width > 1)
        if p is None or key & mask:
            keys += range(key, key + width)
            scales += [factorial(n) // prod(factorial(m) for fields in key_fields(nu, ncls)
                                            for m in fields)] * width
    zeros = [0] * len(keys)
    memo = {0: {0: 1}}
    for rho in run.multipartition_keys(ncls, n):
        # split off lowest parts down to a known product, then build back up
        chain, rest, degree = [], rho, n
        while rest not in memo:
            j, v = lowest_part(rest, ncls)
            chain.append((rest, degree, j, v))
            rest, degree = rest - part_key(ncls, j, v), degree - v
        known = memo[rest]
        for at, degree, j, v in reversed(chain):
            known = _reduced(_scaled_product(comb(degree, v), run.cycle_products(
                characters[j], v), known), characters[0].conductor)
            if degree < n:
                memo[at] = known
        yield tuple(map(floordiv, map(known.get, keys, zeros), scales))


@lru_cache(maxsize=None)
def x_class_value_matrix(n):
    """Integer class values of the x-monomial basis: entry [i][j] is the value
    of x_{lambda_i} on class mu_j, both indexed by partitions(n); the
    monomial_values of SYM_CHARACTERS, whose multipartitions over one
    component are partitions(n) in order."""
    return tuple(monomial_values(SYM_CHARACTERS, n))


def singular_constraints(characters, p, n):
    """The integer constraint matrix E of degree n, whose integer solutions
    are the vanishing lattice: the nonzero coordinate rows of monomial_values
    on the p-singular classes, in order.  Degree 1 is the lattice of G."""
    return IntMatrix._trusted([row for row in zip(*monomial_values(characters, n, p))
                               if any(row)], count_multipartitions(len(characters), n))


class VerificationReport(namedtuple(
        "VerificationReport",
        "degree p rank expected_rank lattice_hnf monomial_hnf verdict method seconds")):
    __slots__ = ()

    def to_dict(self):
        """The JSON form, with the two matrices as IntMatrix objects, which
        cli.json_chunks writes as lists of rows.  A structural report's two
        matrices are one object, which the writer encodes once."""
        return self._asdict()

    @classmethod
    def decide(cls, degree, p, build_constraints, monomial_hnf, expected, start,
               generators=None):
        """The report on whether monomial_hnf is a basis of the vanishing
        lattice L = {v : E @ v = 0}, whose rank is `expected`, the number of
        p-regular classes; build_constraints() returns the integer matrix E
        and runs only off the structural path.  generators is the outcome of
        the structural generator checks: None if the coordinates of the
        generators fail X = S * (1 + Y) (or no checks ran), True if every
        generator of degree <= n vanishes on the p-singular classes (a'),
        False if one does not.

        Structural: the link and (a'), with monomial_hnf in echelon form with
        unit pivots (b) and `expected` rows (c').  Otherwise the kernel of E
        and a comparison of HNFs.  A failed (a') makes the verdict false; the
        kernel still fills lattice_hnf.  start is the perf_counter() reading
        the verification began at."""
        if generators and monomial_hnf.nrows == expected and is_unit_echelon(monomial_hnf):
            method, lattice_hnf = "structural", monomial_hnf
        else:
            method, lattice_hnf = "kernel", integer_kernel(build_constraints())
        verdict = (generators is not False and lattice_hnf == monomial_hnf
                   and lattice_hnf.nrows == expected)
        return cls(degree, p, lattice_hnf.nrows, expected, lattice_hnf, monomial_hnf,
                   verdict, method, time.perf_counter() - start)


def verify_theorem1(n, p, run=None):
    """Check that the y-monomials span exactly the vanishing lattice in degree
    n, in run, a Run(SYM_CHARACTERS, ((1,),), p), or else in a fresh one;
    any other run raises ValueError (Run.matching)."""
    if run is None:
        run = Run(SYM_CHARACTERS, ((1,),), p)
    return run.matching(SYM_CHARACTERS, p, ((1,),)).verify(n)


# ---------------------------------------------------------------------------
# worked identities relating the first generators to projective classes


ExampleCheck = namedtuple("ExampleCheck", "name passed detail")


class ExamplesReport(namedtuple("ExamplesReport", "checks notes")):
    __slots__ = ()

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "notes": list(self.notes),
            "all_passed": self.all_passed,
        }


def _values_tuple(element):
    return tuple(class_values(element).as_tuple())


def worked_examples_check():
    """Character-level identities relating the first generators to projective classes."""
    checks = []

    minus_y3 = -y_explicit(3, 2)
    s21 = schur_in_x(Partition((2, 1)))
    vals3 = _values_tuple(minus_y3)
    checks.append(ExampleCheck(
        "-y_3 equals the Schur element of [2,1]",
        minus_y3 == s21 and vals3 == (Fraction(2), Fraction(0), Fraction(-1)),
        "-y_3 -> %s on classes [1,1,1],[2,1],[3]" % (tuple(map(int, vals3)),)))

    y1 = y_explicit(1, 2)
    minus_y1y3 = -(y1 * y_explicit(3, 2))
    schur_sum = (schur_in_x(Partition((3, 1))) + schur_in_x(Partition((2, 2)))
                 + schur_in_x(Partition((2, 1, 1))))
    vals4 = _values_tuple(minus_y1y3)
    vanishes = all(vals4[j] == 0 for j, mu in enumerate(sorted(partitions(4)))
                   if not mu.is_p_regular(2))
    checks.append(ExampleCheck(
        "-y_1*y_3 equals s[3,1] + s[2,2] + s[2,1,1]",
        (minus_y1y3 == schur_sum
         and vals4 == tuple(map(Fraction, (8, 0, 0, -1, 0))) and vanishes),
        "-y_1*y_3 -> %s on classes [1,1,1,1],[2,1,1],[2,2],[3,1],[4]"
        % (tuple(map(int, vals4)),)))

    regular_ok = True
    for n in range(1, 7):
        values = class_values(y1 ** n)
        for mu in partitions(n):
            expected = factorial(n) if len(mu.parts) == n else 0
            if values[mu] != expected:
                regular_ok = False
    checks.append(ExampleCheck(
        "y_1^n is the regular character",
        regular_ok,
        "y_1^n -> n! on [1,...,1], 0 elsewhere, for n <= 6"))

    two_x2 = 2 * SymElement.generator(X, 2)
    y1_squared = y1 * y1
    notes = (
        "informational: the example's composition-series identity 2*x2 = y1^2 is not an "
        "ordinary-character identity (2*x2 -> %s but y1^2 -> %s on classes [1,1],[2]); "
        "it is recorded, not asserted."
        % (tuple(map(int, _values_tuple(two_x2))),
           tuple(map(int, _values_tuple(y1_squared)))),
    )
    return ExamplesReport(tuple(checks), notes)
