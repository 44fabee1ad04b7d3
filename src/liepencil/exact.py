"""Exact rational arithmetic: matrices, ranks, kernels, sparse polynomials.

Every coefficient this module takes or returns is a `fractions.Fraction`;
nothing here touches floating point.  A `RatMatrix` is stored as one
integer form, int rows over one positive denominator divided by their gcd,
and its arithmetic runs on those ints.  Elimination over Q runs on integers
too: one Gauss-Jordan routine clears each row's denominators (a matrix
hands over its form), and `rref`, `rank_exact`, `kernel_basis`,
`coordinates` and `RatMatrix.inverse` build a `Fraction` only for an entry
they return.  `coordinates` reduces a basis once and reads every target
from that reduction, through the nonzero entries of the target's integer
form; `solve_columns` is its one-target use.  Polynomials
are sparse maps from exponent tuples to nonzero coefficients in graded
lexicographic order; the Poisson bracket clears them to integer
polynomials and runs on the private helpers at the end of this module.
`generic_rank` runs Bareiss elimination on integer polynomials with each
monomial packed into one int (the total degree in the top field, then the
exponents), each field sized for the largest degree a product can reach
plus one spare bit that the exact quotient uses to detect a negative
exponent; a quotient that leaves Z[x] raises ArithmeticError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul

ZERO = Fraction(0)
ONE = Fraction(1)


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INTEGER.pattern + r"(?:/[0-9]+)?")


def parse_rat(text):
    """Parse a rational written as "p" or "p/q": an optional sign, ASCII
    digits, and an optional "/" followed by ASCII digits, with surrounding
    whitespace stripped.  Anything else (decimals, exponents, underscores,
    other digits) raises ValueError, and q = 0 raises ZeroDivisionError."""
    text = str(text).strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError("not a rational p or p/q: %r" % (text,))
    return Fraction(text)


def format_rat(x):
    """Render a rational as "p" or "p/q" (denominator always positive)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def unit_vector(n, i):
    """The i-th standard basis vector of Q^n as a dense list."""
    v = [ZERO] * n
    v[i] = ONE
    return v


def rational_sqrt(x):
    """Exact square root of a rational, or None when no rational root exists."""
    x = Fraction(x)
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


class RatMatrix:
    """Dense matrix over Q as one integer form: entry (i, j) is
    ints[i][j] / den with den > 0, divided by their gcd, so == and hash
    compare forms.  `RatMatrix(rows)` takes entries from outside, `_of`
    wraps forms the library builds; `rows`, `m[i, j]`, `col` and `columns`
    return `Fraction`s.  Immutable: nothing writes the form once built."""

    __slots__ = ("nrows", "ncols", "den", "ints")

    def __init__(self, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        self.nrows, self.ncols = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != self.ncols for row in rows):
            raise ValueError("ragged rows")
        # over the lcm of reduced fractions the form has gcd 1
        self.den = den = lcm(*(x.denominator for row in rows for x in row))
        self.ints = [[x.numerator * (den // x.denominator) for x in row] for row in rows]

    @classmethod
    def _of(cls, den, ints):
        """Trusted constructor: den > 0 and ints equal-length int rows, which
        are divided by their gcd and kept, no copy."""
        g = gcd(den, *(x for row in ints for x in row)) if den > 1 else 1
        if g > 1:
            den, ints = den // g, [[x // g for x in row] for row in ints]
        m = object.__new__(cls)
        m.nrows, m.ncols = len(ints), len(ints[0]) if ints else 0
        m.den, m.ints = den, ints
        return m

    @classmethod
    def zero(cls, n, m=None):
        return cls._of(1, [[0] * (n if m is None else m) for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return cls._of(1, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        return cls([[x if i == j else 0 for j in range(len(entries))]
                    for i, x in enumerate(entries)])

    @property
    def rows(self):
        """The entries as `Fraction` row lists, built on each read."""
        d = self.den
        return [[_ratio(x, d) for x in row] for row in self.ints]

    def __getitem__(self, ij):
        i, j = ij
        return _ratio(self.ints[i][j], self.den)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        return hash((self.den, tuple(map(tuple, self.ints))))

    def __add__(self, other):
        d = lcm(self.den, other.den)
        a, b = d // self.den, d // other.den
        return RatMatrix._of(d, [[a * x + b * y for x, y in zip(r, s)]
                                 for r, s in zip(self.ints, other.ints)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return RatMatrix._of(self.den, [[-x for x in r] for r in self.ints])

    def scale(self, c):
        c = Fraction(c)
        p = c.numerator
        return RatMatrix._of(self.den * c.denominator, [[p * x for x in r] for r in self.ints])

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.ints))
            return RatMatrix._of(self.den * other.den,
                                 [[sum(map(mul, row, col)) for col in cols]
                                  for row in self.ints])
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def apply(self, vec):
        """Matrix times column vector (a plain list of rationals)."""
        L = lcm(*(x.denominator for x in vec))
        t = [x.numerator * (L // x.denominator) for x in vec]
        d = self.den * L
        return [_ratio(sum(map(mul, row, t)), d) for row in self.ints]

    def col(self, j):
        return [_ratio(row[j], self.den) for row in self.ints]

    def columns(self):
        d = self.den
        return [[_ratio(x, d) for x in c] for c in zip(*self.ints)]

    def transpose(self):
        return RatMatrix._of(self.den, [list(c) for c in zip(*self.ints)])

    def is_zero(self):
        return not any(map(any, self.ints))

    def is_diagonal(self):
        return all(not x for i, row in enumerate(self.ints)
                   for j, x in enumerate(row) if i != j)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n, d = self.nrows, self.den
        # [ints | d I] is [self | I] with every row scaled by d
        pivots, R = _reduce([row + [d * (i == j) for j in range(n)]
                             for i, row in enumerate(self.ints)])
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        L = lcm(*(row[i] for i, row in enumerate(R)))
        return RatMatrix._of(L, [[x * (L // row[i]) for x in row[n:]]
                                 for i, row in enumerate(R)])

    def __repr__(self):
        return "RatMatrix(%r)" % ([[format_rat(x) for x in row] for row in self.rows],)


def mat_commutator(a, b):
    return a * b - b * a


def _reduce(rows):
    """Gauss-Jordan elimination of a rational matrix, run on integers.

    Each row is first scaled to integers by the least common multiple of its
    denominators; a row of plain ints is copied as it is.  A pivot then
    clears its column only from the rows that have a nonzero entry there,
    and every updated row is divided by its content (the gcd of its
    entries), which keeps the stored entries bounded by minors of the scaled
    matrix.  Returns (pivots, R): R[r] is an integer multiple of row r of
    the reduced row echelon form, whose entries are therefore
    R[r][j] / R[r][pivots[r]].  Entries may be ints or Fractions.
    """
    M = []
    for row in rows:
        if all(type(x) is int for x in row):
            M.append(list(row))
            continue
        den = lcm(*(x.denominator for x in row))
        M.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        prow = M[r]
        piv = prow[c]
        for i in range(nrows):
            e = M[i][c]
            if e and i != r:
                row = [piv * a - e * b for a, b in zip(M[i], prow)]
                g = gcd(*row)
                M[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots, M[:len(pivots)]


def _ratio(x, d):
    return Fraction(x, d) if x else ZERO


def rref(rows):
    """Reduced row echelon form over Q.  Returns (new rows, pivot columns)."""
    rows = list(rows)
    pivots, R = _reduce(rows)
    ncols = len(rows[0]) if rows else 0
    red = [[_ratio(x, row[c]) for x in row] for row, c in zip(R, pivots)]
    red += [[ZERO] * ncols for _ in range(len(rows) - len(pivots))]
    return red, pivots


def rank_exact(m):
    """Rank over Q of a RatMatrix or a list of rows."""
    return len(_reduce(m.ints if isinstance(m, RatMatrix) else m)[0])


def kernel_basis(m):
    """Canonical basis of the right kernel (one vector per free column).

    Each basis vector carries value 1 at its free column and the solved
    pivot values elsewhere, so rank + len(kernel) = ncols exactly.
    """
    rows = m.ints if isinstance(m, RatMatrix) else m
    ncols = len(rows[0]) if rows else 0
    pivots, R = _reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(R, pivots):
            v[pc] = _ratio(-row[fc], row[pc])
        basis.append(v)
    return basis


def coordinates(cols):
    """read(target) solves sum_k c_k * cols[k] = target like `solve_columns`,
    every target from one `_reduce` of [B | I] (B the columns side by side).

    Each reduced row carries in its I block the row operation that made it.
    A row with its pivot in the B block gives one coefficient: its I block
    times the target, over the pivot.  A row with its pivot in the I block
    must give 0 on the target, else read returns None.
    """
    read_ints = _int_coordinates(cols)

    def read(target):
        den = lcm(*(x.denominator for x in target))
        return read_ints([x.numerator * (den // x.denominator) for x in target], den)
    return read


def _int_coordinates(cols):
    """`coordinates` for a target given as its integer form: read(t, den)
    solves for the target t / den, with t a list of ints and den > 0.

    Row r's I block times t is accumulated from the nonzero entries of t
    only, through the I block's nonzeros indexed by target position."""
    k = len(cols)
    if not k:
        return lambda t, den: None if any(t) else []
    m = len(cols[0])
    pivots, R = _reduce([list(row) + [int(i == j) for j in range(m)]
                         for i, row in enumerate(zip(*cols))])
    by_entry = [[] for _ in range(m)]
    solved, checks = [], []
    for r, (row, pc) in enumerate(zip(R, pivots)):
        for j, e in enumerate(row[k:]):
            if e:
                by_entry[j].append((r, e))
        if pc < k:
            solved.append((r, pc, row[pc]))
        else:
            checks.append(r)

    def read(t, den):
        acc = [0] * len(R)
        for x, entry in zip(t, by_entry):
            if x:
                for r, e in entry:
                    acc[r] += e * x
        if any(acc[r] for r in checks):
            return None
        sol = [ZERO] * k
        for r, pc, piv in solved:
            sol[pc] = _ratio(acc[r], piv * den)
        return sol
    return read


def solve_columns(cols, target):
    """Solve sum_k c_k * cols[k] = target exactly.

    Returns the coefficient list (free coefficients set to 0) or None when the
    system is inconsistent.
    """
    return coordinates(cols)(target)


def nilpotent_index(m):
    """Smallest k >= 1 with m^k = 0, or None if m is not nilpotent."""
    n = m.nrows
    acc = m
    for k in range(1, n + 1):
        if acc.is_zero():
            return k
        acc = acc * m
    return None


def nilpotent_exp(m, s):
    """exp(s*m) as a finite exact sum; raises ValueError unless m is nilpotent."""
    k = nilpotent_index(m)
    if k is None:
        raise ValueError("matrix is not nilpotent")
    s = Fraction(s)
    acc = term = RatMatrix.identity(m.nrows)
    for p in range(1, k):
        term = (term * m).scale(s / p)    # (s m)^p / p!
        acc = acc + term
    return acc


class SparsePoly:
    """Sparse multivariate polynomial over Q.

    Terms live in a dict keyed by exponent tuples; zero coefficients are never
    stored.  Printing and leading-term selection use graded lex order.
    `SparsePoly(nvars, terms)` validates and copies terms that arrive from
    outside; the library builds its results with the trusted `_of`.

    Example: (x1 - 1)*(x1 + 1) multiplies out to x1^2 - 1::

        >>> x = SparsePoly.variable(2, 1)
        >>> one = SparsePoly.const(2, 1)
        >>> print((x - one) * (x + one))
        x1^2 - 1
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError("bad exponent vector %r" % (exps,))
                self.terms[exps] = c

    @classmethod
    def _of(cls, nvars, terms):
        """Trusted constructor: terms is already clean (nonzero Fractions on
        exponent tuples of length nvars) and is kept as it is, no copy."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): ONE})

    @classmethod
    def monomial(cls, nvars, exps, c=ONE):
        return cls(nvars, {tuple(exps): Fraction(c)})

    @classmethod
    def linear(cls, coeffs):
        """Linear form sum_i coeffs[i] * x_i."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return cls(n, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __neg__(self):
        return SparsePoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SparsePoly._of(self.nvars, out)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.const(self.nvars, -Fraction(other)))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = Fraction(other)
            return SparsePoly._of(self.nvars, {e: c * v for e, v in self.terms.items()}
                                  if c else {})
        return SparsePoly._of(self.nvars, _muladd({}, self.terms, other.terms))

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        acc = SparsePoly.const(self.nvars, 1)
        for _ in range(k):
            acc = acc * self
        return acc

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def partial(self, i):
        """Formal partial derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return SparsePoly._of(self.nvars, out)

    def eval_at(self, point):
        """Evaluate at a rational point given as a sequence."""
        point = [Fraction(x) for x in point]
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def leading(self):
        """Leading (exponents, coeff) in graded lex order; None for zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def exact_div(self, divisor):
        """Exact polynomial quotient; raises ArithmeticError if not divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = SparsePoly(self.nvars)
        rem = self
        lt_d, lc_d = divisor.leading()
        while not rem.is_zero():
            lt_r, lc_r = rem.leading()
            diff = tuple(a - b for a, b in zip(lt_r, lt_d))
            if any(d < 0 for d in diff):
                raise ArithmeticError("inexact polynomial division")
            mono = SparsePoly.monomial(self.nvars, diff, lc_r / lc_d)
            quot = quot + mono
            rem = rem - divisor * mono
        return quot

    def coeff_vector(self, monomials):
        """Coefficients with respect to an ordered monomial list."""
        return [self.terms.get(m, ZERO) for m in monomials]

    def format(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ["x%d" % i for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append("%s^%d" % (names[i], k))
            body = "*".join(factors)
            if not body:
                chunk = format_rat(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = "%s*%s" % (format_rat(abs(c)), body)
            sign = "-" if c < 0 else "+"
            parts.append((sign, chunk))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, chunk in parts[1:]:
            text += " %s %s" % (sign, chunk)
        return text

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "SparsePoly(%d, %s)" % (self.nvars, self.format())


def generic_rank(mat):
    """Rank of a matrix of SparsePoly entries over the rational function field.

    Fraction-free (Bareiss) elimination with exact polynomial division; the
    pivot with the fewest terms is chosen at each step to limit growth.
    A nonzero polynomial pivot is generically invertible, so the count of
    pivots is the generic rank.

    Runs on integer polynomials with packed monomials.  Each row is first
    scaled to integer coefficients by the lcm of its denominators, which
    changes neither the rank nor any entry's term count, so the pivots are
    those of the rational elimination.  A monomial is one int: its total
    degree in the top field, then one field per exponent, x_0 first, so a
    product of monomials is a sum of ints and the graded lex order is int
    order.  Every Bareiss entry is a minor of the scaled matrix, so no
    product before a division has total degree above
    2 * min(rows, cols) * (largest entry degree); each field is sized for
    that degree plus one spare bit, which `_pdiv` uses to test for a
    negative exponent.  The divisions are exact; `_pdiv` raises
    ArithmeticError if one is not.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    polys = [p for row in mat for p in row if p.terms]
    if not polys:
        return 0
    pack, guard = _packing(polys[0].nvars,
                           2 * min(nrows, ncols) * max(p.total_degree() for p in polys))
    M = []
    for row in mat:
        _, ints = _cleared(p.terms for p in row)
        M.append([{pack(e): c for e, c in t.items()} for t in ints])
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
                row[j] = num if prev is None else _pdiv(num, prev, guard)
            row[c] = {}
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


# Polynomials as {exponent tuple: nonzero coefficient} dicts: `SparsePoly`
# multiplies its Fraction terms with `_muladd`, and the Poisson kernels clear
# a polynomial's denominators once, run it on ints and build a Fraction only
# for a coefficient they return.  The clearing rule `_cleared` is shared with
# the tensor kernels.

def _cleared(dicts):
    """(L, [d times L for d in dicts]) for {key: Fraction} dicts, L the lcm
    of all their denominators; integer arithmetic only, keys keep their
    order."""
    dicts = list(dicts)
    L = lcm(*(c.denominator for d in dicts for c in d.values()))
    return L, [{k: c.numerator * (L // c.denominator) for k, c in d.items()}
               for d in dicts]


def _muladd(acc, a, b, sign=1):
    """acc += sign * a * b on polynomial dicts, in place; returns acc."""
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


# Packed integer polynomials {monomial int: nonzero int}, the monomials packed
# by `generic_rank`: a product of monomials is a sum of ints and the graded
# lex order is int order.

def _packing(nvars, top):
    """(pack, guard) for monomials in nvars variables of total degree <= top.

    pack maps an exponent tuple to its int: the total degree, then each
    exponent, in fields of top.bit_length() + 1 bits.  The spare top bit of
    every field is set in guard and clear in every packed monomial.
    """
    width = top.bit_length() + 1
    guard = 0
    for _ in range(nvars + 1):
        guard = (guard << width) | (1 << (width - 1))

    def pack(exps):
        m = sum(exps)
        for e in exps:
            m = (m << width) | e
        return m
    return pack, guard


def _pmuladd(acc, a, b, sign=1):
    """acc += sign * a * b on packed integer polynomials, in place; returns acc."""
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = e1 + e2
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


def _pdiv(num, den, guard):
    """Exact quotient num / den of packed integer polynomials.

    guard has the spare top bit of every field set.  Setting it in the
    remainder's leading monomial before subtracting den's keeps each field's
    difference inside its own field, and the difference is negative exactly
    where that bit is borrowed.  Raises ArithmeticError when the quotient
    leaves Z[x]: a negative exponent or a coefficient that does not divide.
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
