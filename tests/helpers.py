"""Shared random generators and readers for the test suite.

Coefficients stay small (numerators in a narrow band, denominators from
{1, 2, 3}) so exact arithmetic never blows up mid-suite.

The readers below are what only the tests ask of a matrix, a polynomial or
a Poisson structure: columns, transposes and inverses, a polynomial's
`Fraction` terms, total degree, partials and values, and a bracket entry
in either order.  Each is a function of the object's integer form (`den`,
`ints`), and each result is built with the trusted constructor `_of`.  A
polynomial's monomials are packed ints, and the readers take them apart
with `exact._unpack` and put them together with `exact._pack`; no test
reads the fields itself.

`bareiss_rank` is the oracle of `exact.generic_rank`: the rank over Q(x)
of a polynomial matrix of any shape and degree by fraction-free
elimination on integer polynomials packed by its own `packing`, in fields
as wide as its degrees need, with `pdiv` as its exact quotient.  It reads
a tensor's bracket form as `structure_matrix` builds it, a matrix of
`SparsePoly` linear forms, and `linear_forms` turns such a matrix into the
integer linear forms that `generic_rank` takes.

`reference_pivots_mod` is the oracle of `exact._pivots_mod`: the same
forward elimination mod PRIME on list rows, one entry at a time, as the
library ran it before it packed its rows.

`reference_format` is the oracle of `SparsePoly.format`: the printer as it
stood when it unpacked every exponent field of every monomial.

`mat_commutator` is the commutator by two dense products, which
`test_coordinates_oracle.reference_tensor` expands; `product_form` is the
one-sided product that fault injections put in place of
`constructions._commutator`.

`count_products` records every `RatMatrix` product, for the tests that pin
how many products a routine forms.

`coordinates` (one basis reader for many `Fraction` targets) and
`direct_sum` (two tensors whose blocks commute) are the library routines
the quasi-grading extension used to go through; they serve as oracles.
"""

from fractions import Fraction
from math import lcm, prod

from liepencil.exact import (ONE, PRIME, ZERO, RatMatrix, SparsePoly, _cleared, _Echelon,
                             _int_coordinates, _int_rows, _linear_forms, _pack, _pmuladd,
                             _ratio, _unpack, format_ratio)
from liepencil.tensors import StructureTensor

DENOMINATORS = (1, 1, 2, 3)


def rand_rat(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def rand_vector(rng, n, lo=-6, hi=6):
    return [rand_rat(rng, lo, hi) for _ in range(n)]


def rand_matrix(rng, n, lo=-6, hi=6):
    return RatMatrix([[rand_rat(rng, lo, hi) for _ in range(n)]
                      for _ in range(n)])


# matrices

def unit_vector(n, i):
    """The i-th standard basis vector of Q^n as a dense list."""
    v = [ZERO] * n
    v[i] = ONE
    return v


def col(m, j):
    return [_ratio(row[j], m.den) for row in m.ints]


def columns(m):
    d = m.den
    return [[_ratio(x, d) for x in c] for c in zip(*m.ints)]


def transpose(m):
    return RatMatrix._of(m.den, [list(c) for c in zip(*m.ints)])


def mat_commutator(a, b):
    """[a, b] = ab - ba by two dense products."""
    return a * b - b * a


def product_form(a, b, n):
    """AB alone, for n x n integer matrices in the sparse forms that
    `constructions._commutator` takes, as {row-major position: nonzero int}:
    a product that is not a commutator, to put in its place."""
    out = {}
    for r, row in a.items():
        for s, u in row.items():
            for c, v in b.get(s, {}).items():
                out[r * n + c] = out.get(r * n + c, 0) + u * v
    return {k: v for k, v in out.items() if v}


def count_products(monkeypatch):
    """The right factor of every `RatMatrix` product from here on."""
    calls = []
    real = RatMatrix.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)
    monkeypatch.setattr(RatMatrix, "__mul__", counting)
    return calls


def inverse(m):
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n, d = m.nrows, m.den
    # [ints | d I] is [m | I] with every row scaled by d
    pivots, R = _Echelon(_int_rows([row + [d * (i == j) for j in range(n)]
                                    for i, row in enumerate(m.ints)])).reduced()
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    L = lcm(*(row[i] for i, row in enumerate(R)))
    return RatMatrix._of(L, [[row.get(n + j, 0) * (L // row[i]) for j in range(n)]
                             for i, row in enumerate(R)])


def coordinates(cols):
    """read(target) solves sum_k c_k * cols[k] = target like `solve_columns`,
    every target from one reduction of the columns (`_int_coordinates`)."""
    read_ints = _int_coordinates(cols)

    def read(target):
        den, (t,) = _cleared([{j: x for j, x in enumerate(target) if x}])
        sol = read_ints(t, den)
        return None if sol is None else [sol.get(k, ZERO) for k in range(len(cols))]
    return read


# tensors

def direct_sum(t1, t2):
    """Direct sum of two structure tensors (blocks commute)."""
    n1 = t1.dim
    (d1, f1), (d2, f2) = t1.integer_form(), t2.integer_form()
    L = lcm(d1, d2)
    ints = {ij: {k: c * (L // d1) for k, c in vec.items()} for ij, vec in f1.items()}
    ints.update({(i + n1, j + n1): {k + n1: c * (L // d2) for k, c in vec.items()}
                 for (i, j), vec in f2.items()})
    labels = t1.labels + tuple("%s'" % s for s in t2.labels)
    return StructureTensor._of(n1 + t2.dim, labels, (L, ints))


# polynomials

def reference_format(p, names=None):
    """p as `SparsePoly.format` prints it, every monomial unpacked whole."""
    if not p.ints:
        return "0"
    n, den = p.nvars, p.den
    if names is None:
        names = ["x%d" % i for i in range(n)]
    parts = []
    for m in sorted(p.ints, reverse=True):
        v = p.ints[m]
        body = "*".join(names[i] if k == 1 else "%s^%d" % (names[i], k)
                        for i, k in enumerate(_unpack(m, n)) if k)
        if not body:
            chunk = format_ratio(abs(v), den)
        elif abs(v) == den:
            chunk = body
        else:
            chunk = "%s*%s" % (format_ratio(abs(v), den), body)
        parts.append(("-" if v < 0 else "+", chunk))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(" %s %s" % part for part in parts[1:])


def variable(nvars, i):
    exps = [0] * nvars
    exps[i] = 1
    return SparsePoly._of(nvars, 1, {_pack(exps): 1})


def linear(coeffs):
    """Linear form sum_i coeffs[i] * x_i."""
    n = len(coeffs)
    return SparsePoly(n, {tuple(int(j == i) for j in range(n)): c
                          for i, c in enumerate(coeffs) if c})


def monomials(p):
    """[(exponent tuple, int)] of a polynomial's form, in its key order."""
    return [(_unpack(m, p.nvars), c) for m, c in p.ints.items()]


def terms(p):
    """{exponent tuple: nonzero Fraction} of a polynomial."""
    d = p.den
    return {e: Fraction(c, d) for e, c in monomials(p)}


def total_degree(p):
    """The largest total degree of a term; 0 for the zero polynomial."""
    return max((sum(e) for e, _ in monomials(p)), default=0)


def partial(p, i):
    """Formal partial derivative with respect to variable i."""
    out = {}
    for e, c in monomials(p):
        k = e[i]
        if k:
            out[_pack(e[:i] + (k - 1,) + e[i + 1:])] = c * k
    return SparsePoly._of(p.nvars, p.den, out)


def eval_at(p, point):
    """Evaluate at a rational point given as a sequence."""
    point = [Fraction(x) for x in point]
    return sum((c * prod(x ** k for x, k in zip(point, e))
                for e, c in monomials(p)), ZERO) / p.den


def coeff_vector(p, monos):
    """Coefficients with respect to an ordered list of exponent tuples."""
    d = p.den
    return [_ratio(p.ints.get(_pack(m), 0), d) for m in monos]


def packing(nvars, width):
    """pack for `bareiss_rank`'s monomials in nvars variables, in fields of
    width bits: it maps an exponent tuple to its int, the total degree,
    then each exponent, x_0 first, one field each.  While every field of a
    product fits in width bits, which holds up to total degree
    2**width - 1, the product of monomials is the sum of their ints.
    Width 0 packs the one monomial of degree 0."""
    def pack(exps):
        m = sum(exps)
        for e in exps:
            m = (m << width) | e
        return m
    return pack


def packing_guard(nvars, width):
    """The int with the top bit of each of the nvars + 1 fields of width
    bits set, in the layout `packing` packs."""
    top_bit = 1 << width >> 1    # none in a field of width 0
    guard = 0
    for _ in range(nvars + 1):
        guard = (guard << width) | top_bit
    return guard


def pdiv(num, den, guard):
    """Exact quotient num / den of packed integer polynomials.

    guard (`packing_guard`) has the spare top bit of every field set.
    Setting it in the remainder's leading monomial before subtracting den's
    keeps each field's difference inside its own field, and the difference
    is negative exactly where that bit is borrowed.  Raises ArithmeticError
    when the quotient leaves Z[x]: a negative exponent or a coefficient
    that does not divide.
    """
    lt_d = max(den)
    lc_d = den[lt_d]
    quot = {}
    rem = dict(num)
    while rem:
        lt_r = max(rem)
        q, r = divmod(rem[lt_r], lc_d)
        if r or ((lt_r | guard) - lt_d) & guard != guard:
            raise ArithmeticError("inexact polynomial division")
        shift = lt_r - lt_d
        quot[shift] = q
        _pmuladd(rem, {shift: q}, den, -1)
    return quot


def structure_matrix(tensor):
    """The n x n matrix of linear forms B_ij = sum_k c_ij^k x_k."""
    n = tensor.dim
    den, ints = tensor.integer_form()
    linear = _linear_forms(n)
    return [[SparsePoly._of(n, den, linear(sorted(ints.get((i, j), {}).items())))
             for j in range(n)] for i in range(n)]


def linear_forms(mat):
    """A matrix of `SparsePoly` linear forms as `generic_rank` takes it: each
    entry the form {k: int} of its terms c x_k over the lcm of every
    entry's denominator, which scales the whole matrix by one constant."""
    L = lcm(*(p.den for row in mat for p in row))
    forms = []
    for row in mat:
        out = []
        for p in row:
            if any(sum(e) != 1 for e, _ in monomials(p)):
                raise ValueError("entry %s is not a linear form" % p)
            out.append({e.index(1): c * (L // p.den) for e, c in monomials(p)})
        forms.append(out)
    return forms


def bareiss_rank(mat):
    """Rank of a matrix of SparsePoly entries over the rational function field.

    Fraction-free (Bareiss) elimination with exact polynomial division; the
    pivot with the fewest terms is chosen at each step to limit growth.
    A nonzero polynomial pivot is generically invertible, so the count of
    pivots is the generic rank.

    Runs on integer polynomials with packed monomials.  Each row's forms are
    first brought over one denominator, the lcm of theirs, which
    changes neither the rank nor any entry's term count, so the pivots are
    those of the rational elimination.  A monomial is one int: its total
    degree in the top field, then one field per exponent, x_0 first, so a
    product of monomials is a sum of ints and the graded lex order is int
    order.  Every Bareiss entry is a minor of the scaled matrix, so no
    product before a division has total degree above
    2 * min(rows, cols) * (largest entry degree); each field is sized for
    that degree plus one spare bit, which `pdiv` uses to test for a
    negative exponent.  The divisions are exact; `pdiv` raises
    ArithmeticError if one is not.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    polys = [p for row in mat for p in row if p.ints]
    if not polys:
        return 0
    top = 2 * min(nrows, ncols) * max(total_degree(p) for p in polys)
    width = top.bit_length() + 1
    pack, guard = packing(polys[0].nvars, width), packing_guard(polys[0].nvars, width)
    M = []
    for row in mat:
        L = lcm(*(p.den for p in row))
        M.append([{pack(e): c * (L // p.den) for e, c in monomials(p)} for p in row])
    rank = 0
    prev = None
    for c in range(ncols):
        best = None
        for i in range(rank, nrows):
            if M[i][c] and (best is None or len(M[i][c]) < len(M[best][c])):
                best = i
        if best is None:
            continue
        M[rank], M[best] = M[best], M[rank]
        prow = M[rank]
        piv = prow[c]
        for i in range(rank + 1, nrows):
            row = M[i]
            e = row[c]
            for j in range(c + 1, ncols):
                num = _pmuladd(_pmuladd({}, piv, row[j]), e, prow[j], -1)
                row[j] = num if prev is None else pdiv(num, prev, guard)
            row[c] = {}
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_pivots_mod(rows):
    """Pivot columns of dense int rows over the field of PRIME elements,
    by forward elimination: column c is a pivot when it is independent
    of the columns left of it mod PRIME.  The pivots span the column space
    mod PRIME, and their number, the rank mod PRIME, is at most the rank
    over Q, since a minor that vanishes over Q vanishes mod PRIME.  Every
    live row drops its first entry at each step, so column c is entry 0."""
    p = PRIME
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        prow = next((row for row in rows if row[0]), None)
        if prow is None:
            rows = [row[1:] for row in rows]
            continue
        pivots.append(c)
        inv, tail = p - pow(prow[0], -1, p), prow[1:]
        rows = [[(a + f * b) % p for a, b in zip(row[1:], tail)]
                if (f := row[0] * inv % p) else row[1:]
                for row in rows if row is not prow]
    return pivots


# Poisson structures

def bracket_table(struct):
    """{(i, j): {x_i, x_j}} for i < j, the nonzero entries of a Poisson
    structure as polynomials, built from its integer form."""
    return {ij: SparsePoly._of(struct.nvars, struct.den, dict(form))
            for ij, form in struct.ints.items()}


def entry(struct, i, j):
    """{x_i, x_j} for any pair order."""
    if i > j:
        return -entry(struct, j, i)
    return SparsePoly._of(struct.nvars, struct.den, dict(struct.ints.get((i, j), {})))
