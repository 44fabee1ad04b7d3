"""Exact rational arithmetic: matrices, ranks, kernels, sparse polynomials.

Every coefficient this module takes or returns is a `fractions.Fraction`;
nothing here touches floating point.  A `RatMatrix` and a `SparsePoly` are
each stored as one integer form, ints over one positive denominator divided
by their gcd, and their arithmetic runs on those ints; `rows` and `terms`
are `Fraction` views built from the form on each read, as a structure
tensor's `table` is.  `_cleared` is the one rule that clears rationals to a
form (a tensor's validating constructor goes through it too) and
`_reduced` the one rule that divides a form by its gcd; other modules read
the forms, `den` and `ints`.  Elimination over Q runs on
integers too: one sparse Gauss-Jordan routine takes list or {column: entry}
dict rows (a matrix hands over its form), clears each once to a dict of its
nonzero ints and visits no zero entry, so the connected components of a
sparse system are eliminated independently; rows with one nonzero entry
are pivots before any arithmetic.  `rref`, `rank_exact`,
`kernel_basis`, `coordinates` and `RatMatrix.inverse` build a `Fraction`
only for an entry they return.  `coordinates` reduces a basis once and
reads every target from that reduction; `solve_columns` is its one-target
use.  `generic_rank` runs Bareiss elimination on integer polynomials with
each monomial packed into one int (the total degree in the top field, then
the exponents), each field sized for the largest degree a product can
reach plus one spare bit that the exact quotient uses to detect a negative
exponent; a quotient that leaves Z[x] raises ArithmeticError.  The same
packing (`_packing`, `_pmuladd`) carries `poisson.pc_verify`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import add, mul

ZERO = Fraction(0)
ONE = Fraction(1)


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile("(%s)(?:/([0-9]+))?" % _INTEGER.pattern)


def parse_rat(text):
    """Parse a rational written as "p" or "p/q": an optional sign, ASCII
    digits, and an optional "/" followed by ASCII digits, with surrounding
    whitespace stripped.  Anything else (decimals, exponents, underscores,
    other digits) raises ValueError, and q = 0 raises ZeroDivisionError."""
    return Fraction(*_parse_rat_form(text))


def _parse_rat_form(text):
    """(p, q) ints of a rational written as `parse_rat` reads it, q > 0 and
    not reduced: one regex match, and no `Fraction`."""
    text = str(text).strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ValueError("not a rational p or p/q: %r" % (text,))
    p, q = m.group(1, 2)
    q = int(q or 1)
    if not q:
        raise ZeroDivisionError("rational with denominator 0: %r" % (text,))
    return int(p), q


def format_rat(x):
    """Render a rational as "p" or "p/q" (denominator always positive)."""
    x = Fraction(x)
    return format_ratio(x.numerator, x.denominator)


def format_ratio(p, q):
    """Render p / q, for ints p and q > 0, as `format_rat` renders it."""
    g = gcd(p, q)
    return str(p // g) if g == q else "%d/%d" % (p // g, q // g)


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
        self.den, self.ints = _cleared(rows)

    @classmethod
    def _of(cls, den, ints):
        """Trusted constructor: den > 0 and ints equal-length int rows, which
        are divided by their gcd and kept, no copy."""
        m = object.__new__(cls)
        m.nrows, m.ncols = len(ints), len(ints[0]) if ints else 0
        m.den, m.ints = _reduced(den, ints)
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
        L, (t,) = _cleared([vec])
        return [_ratio(sum(map(mul, row, t)), self.den * L) for row in self.ints]

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
    """Sparse Gauss-Jordan elimination of a rational matrix, run on integers.

    Rows are {column: entry} dicts or equal-length lists; either is cleared
    once to a {column: int} dict of its nonzero entries, scaled by the lcm
    of their denominators, except an `_IntRows` list, which is eliminated
    in place as it is.  holders[c] indexes the rows with a nonzero in
    column c and is kept current through fill-in and cancellation, so no
    zero entry is visited and an update touches only rows of its own
    connected component of the row/column graph: the components are
    eliminated independently.  First a presolve: a row with one nonzero
    entry forces its column to 0, so it is that column's pivot row, and the
    column is deleted from every other row, with no arithmetic; each
    touched row is divided by its content, and a row left with one entry
    joins the queue, so the presolve cascades.  On the rest, pivots are
    taken in ascending column order, each in the shortest unused row with a
    nonzero there (it fills in least), and each clears its column from the
    unused rows.  Then, last pivot first, each pivot clears its column from
    the earlier pivot rows; a pivot row is by then free of every later
    pivot column, so this back-substitution adds no entry in a pivot
    column, and it updates fewer and shorter rows than clearing above each
    pivot as it is taken.  Every updated row is divided by its content
    (the gcd of its entries), which keeps the entries bounded by minors of
    the scaled matrix.  The reduced row echelon form is canonical, so
    neither the row order nor the choice of pivot row changes the result;
    the presolve's pivots and the rest's are merged in ascending column
    order.

    Returns (pivots, R): R[r] is an integer multiple of row r of the reduced
    row echelon form, whose entries are therefore R[r][j] / R[r][pivots[r]];
    R[r] is a {column: int} dict of its nonzeros for dict rows and a list
    for list rows.
    """
    listed = bool(rows) and not isinstance(rows[0], dict)
    if type(rows) is _IntRows:
        M = rows
    else:
        M = [_int_row(enumerate(row) if listed else row.items()) for row in rows]
    holders = {}
    for i, row in enumerate(M):
        for c in row:
            holders.setdefault(c, set()).add(i)

    def clear(i, p, c):
        """Row i becomes a * row i - b * row p in place, where a / b is
        M[p][c] / M[i][c] in lowest terms, so its entry in column c cancels;
        then it is divided by its content."""
        prow, row = M[p], M[i]
        piv, e = prow[c], row[c]
        g = gcd(piv, e)
        a, b = piv // g, e // g
        if a != 1:
            for k in row:
                row[k] *= a
        for k, x in prow.items():
            y = row.get(k)
            if y is None:
                row[k] = -b * x
                holders[k].add(i)
            else:
                y -= b * x
                if y:
                    row[k] = y
                else:
                    del row[k]
                    holders[k].discard(i)
        if row:
            g = gcd(*row.values())
            if g > 1:
                M[i] = {k: y // g for k, y in row.items()}

    # singleton presolve: a row with one nonzero is its column's pivot, and
    # deleting that column from another row subtracts a multiple of it
    fixed = {}
    queue = [i for i, row in enumerate(M) if len(row) == 1]
    while queue:
        i = queue.pop()
        if not M[i]:
            continue    # a second singleton of a column already fixed
        (c,) = M[i]
        fixed[c] = i
        for k in holders.pop(c):
            if k == i:
                continue
            row = M[k]
            del row[c]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    M[k] = {j: y // g for j, y in row.items()}
                if len(row) == 1:
                    queue.append(k)
    unused = set(range(len(M))).difference(fixed.values())
    pivots, used = [], []
    for c in sorted(holders):
        live = [i for i in holders[c] if i in unused]
        if not live:
            continue
        p = min(live, key=lambda i: len(M[i]))
        unused.discard(p)
        for i in live:
            if i != p:
                clear(i, p, c)
        pivots.append(c)
        used.append(p)
    for c, p in zip(reversed(pivots), reversed(used)):
        for i in list(holders[c]):
            if i != p:
                clear(i, p, c)
    if fixed:
        merged = sorted([*fixed.items(), *zip(pivots, used)])
        pivots, used = [c for c, _ in merged], [p for _, p in merged]
    if listed:
        ncols = len(rows[0])
        return pivots, [[M[p].get(j, 0) for j in range(ncols)] for p in used]
    return pivots, [M[p] for p in used]


class _IntRows(list):
    """Rows of {column: nonzero int} built for one elimination.  `_reduce`
    (and so `kernel_basis` and `rank_exact`) takes them as they are, with
    no cleared copy, and updates them in place: whoever built them must
    not read them afterwards.  Rows of any other type are copied first and
    never changed."""


def _int_row(items):
    """{column: int} of the nonzero (column, entry) items, cleared by
    `_cleared` unless every entry is an int already."""
    row = {c: x for c, x in items if x}
    return row if all(type(x) is int for x in row.values()) else _cleared([row])[1][0]


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


def kernel_basis(m, ncols=None):
    """Canonical basis of the right kernel (one vector per free column).

    Each basis vector carries value 1 at its free column and the solved
    pivot values elsewhere, so rank + len(kernel) = ncols exactly.  m is a
    RatMatrix, a list of equal-length rows, or a list of {column: entry}
    dict rows with their column count ncols.
    """
    rows = m.ints if isinstance(m, RatMatrix) else m
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, R = _reduce(rows)
    pivoted = set(pivots)
    basis = {c: [ZERO] * ncols for c in range(ncols) if c not in pivoted}
    for fc, v in basis.items():
        v[fc] = ONE
    for row, pc in zip(R, pivots):
        piv = row[pc]
        for c, x in (row.items() if isinstance(row, dict) else enumerate(row)):
            if x and c in basis:
                basis[c][pc] = Fraction(-x, piv)
    return list(basis.values())


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
        den, (t,) = _cleared([target])
        return read_ints(t, den)
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
    """Sparse multivariate polynomial over Q as one integer form: the
    coefficient of x^e is ints[e] / den, with ints {exponent tuple: nonzero
    int} and den > 0 divided by their gcd, so == compares forms.
    `SparsePoly(nvars, terms)` validates terms that arrive from outside; the
    library builds its results with the trusted `_of`.  `terms` and the
    other readers return `Fraction`s, and every operation runs on the ints.
    Printing and leading-term selection use graded lex order.

    Example: (x1 - 1)*(x1 + 1) multiplies out to x1^2 - 1::

        >>> x = SparsePoly.variable(2, 1)
        >>> one = SparsePoly.const(2, 1)
        >>> print((x - one) * (x + one))
        x1^2 - 1
    """

    __slots__ = ("nvars", "den", "ints")

    def __init__(self, nvars, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector %r" % (exps,))
            clean[exps] = c
        self.nvars = nvars
        self.den, (self.ints,) = _cleared([clean])

    @classmethod
    def _of(cls, nvars, den, ints):
        """Trusted constructor: den > 0 and ints nonzero ints on exponent
        tuples of length nvars, divided by their gcd and kept, no copy."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.den, (p.ints,) = _reduced(den, [ints])
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, 1, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls._of(nvars, 1, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars, exps, c=ONE):
        return cls(nvars, {tuple(exps): Fraction(c)})

    @classmethod
    def linear(cls, coeffs):
        """Linear form sum_i coeffs[i] * x_i."""
        n = len(coeffs)
        return cls(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs) if c})

    @property
    def terms(self):
        """{exponent tuple: nonzero Fraction}, built on each read."""
        d = self.den
        return {e: Fraction(c, d) for e, c in self.ints.items()}

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.den == other.den and self.ints == other.ints)

    def __neg__(self):
        return SparsePoly._of(self.nvars, self.den, {e: -c for e, c in self.ints.items()})

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.nvars, other)
        d = lcm(self.den, other.den)
        out = {e: d // self.den * c for e, c in self.ints.items()}
        _muladd(out, {(0,) * self.nvars: d // other.den}, other.ints)
        return SparsePoly._of(self.nvars, d, out)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.const(self.nvars, -Fraction(other)))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = Fraction(other)
            p = c.numerator
            return SparsePoly._of(self.nvars, self.den * c.denominator,
                                  {e: p * v for e, v in self.ints.items()} if p else {})
        return SparsePoly._of(self.nvars, self.den * other.den,
                              _muladd({}, self.ints, other.ints))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        acc = SparsePoly.const(self.nvars, 1)
        for _ in range(k):
            acc = acc * self
        return acc

    def total_degree(self):
        return max((sum(e) for e in self.ints), default=0)

    def partial(self, i):
        """Formal partial derivative with respect to variable i."""
        out = {}
        for e, c in self.ints.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return SparsePoly._of(self.nvars, self.den, out)

    def eval_at(self, point):
        """Evaluate at a rational point given as a sequence."""
        point = [Fraction(x) for x in point]
        return sum((c * prod(x ** k for x, k in zip(point, e))
                    for e, c in self.ints.items()), ZERO) / self.den

    def leading(self):
        """Leading (exponents, coeff) in graded lex order; None for zero."""
        if not self.ints:
            return None
        e = max(self.ints, key=lambda t: (sum(t), t))
        return e, Fraction(self.ints[e], self.den)

    def exact_div(self, divisor):
        """Exact polynomial quotient; raises ArithmeticError if not divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = SparsePoly.zero(self.nvars), self
        lt_d, lc_d = divisor.leading()
        while rem:
            lt_r, lc_r = rem.leading()
            diff = tuple(a - b for a, b in zip(lt_r, lt_d))
            if any(d < 0 for d in diff):
                raise ArithmeticError("inexact polynomial division")
            mono = SparsePoly.monomial(self.nvars, diff, lc_r / lc_d)
            quot, rem = quot + mono, rem - divisor * mono
        return quot

    def coeff_vector(self, monomials):
        """Coefficients with respect to an ordered monomial list."""
        d = self.den
        return [_ratio(self.ints.get(m, 0), d) for m in monomials]

    def format(self, names=None):
        if not self.ints:
            return "0"
        if names is None:
            names = ["x%d" % i for i in range(self.nvars)]
        parts = []
        for e in sorted(self.ints, key=lambda t: (sum(t), t), reverse=True):
            c = Fraction(self.ints[e], self.den)
            body = "*".join(names[i] if k == 1 else "%s^%d" % (names[i], k)
                            for i, k in enumerate(e) if k)
            if not body:
                chunk = format_rat(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = "%s*%s" % (format_rat(abs(c)), body)
            parts.append(("-" if c < 0 else "+", chunk))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return text + "".join(" %s %s" % part for part in parts[1:])

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

    Runs on integer polynomials with packed monomials.  Each row's forms are
    first brought over one denominator, the lcm of theirs, which
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
    polys = [p for row in mat for p in row if p.ints]
    if not polys:
        return 0
    top = 2 * min(nrows, ncols) * max(p.total_degree() for p in polys)
    pack, guard = _packing(polys[0].nvars, top.bit_length() + 1)
    M = []
    for row in mat:
        L = lcm(*(p.den for p in row))
        M.append([{pack(e): c * (L // p.den) for e, c in p.ints.items()} for p in row])
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


# Integer forms, whose rows are all lists of ints or all {key: int} dicts.

def _cleared(rows):
    """(L, [row times L for row in rows]) for rows of rationals, all lists or
    all {key: rational} dicts, L the lcm of all their denominators, so the
    form has gcd 1 (a prime's highest power in L divides some denominator).
    Integer arithmetic only; shapes and key order are kept."""
    rows = list(rows)
    dicts = bool(rows) and isinstance(rows[0], dict)
    L = lcm(*(x.denominator for row in rows for x in (row.values() if dicts else row)))
    if dicts:
        return L, [{k: x.numerator * (L // x.denominator) for k, x in row.items()}
                   for row in rows]
    return L, [[x.numerator * (L // x.denominator) for x in row] for row in rows]


def _reduced(den, rows):
    """The form (den, rows) divided by its gcd: rows is a list or a dict of
    rows, and comes back in its own shape, the very object when the gcd
    is 1."""
    if den == 1:
        return den, rows
    vecs = list(rows.values()) if isinstance(rows, dict) else rows
    dicts = bool(vecs) and isinstance(vecs[0], dict)
    g = gcd(den, *(x for v in vecs for x in (v.values() if dicts else v)))
    if g == 1:
        return den, rows
    div = ([{k: x // g for k, x in v.items()} for v in vecs] if dicts
           else [[x // g for x in v] for v in vecs])
    return den // g, dict(zip(rows, div)) if isinstance(rows, dict) else div


# Integer polynomials {exponent tuple: nonzero int}: a `SparsePoly`'s form,
# and the Poisson kernels' partials and sums.

def _muladd(acc, a, b, sign=1):
    """acc += sign * a * b on integer polynomial dicts, in place; returns acc."""
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
# by `_packing` (in `generic_rank` and `poisson.pc_verify`): a product of
# monomials is a sum of ints and the graded lex order is int order.

def _packing(nvars, width):
    """(pack, guard) for monomials in nvars variables, in fields of width bits.

    pack maps an exponent tuple to its int: the total degree, then each
    exponent, x_0 first, one field each.  While every field of a product
    fits in width bits, which holds up to total degree 2**width - 1, the
    product of monomials is the sum of their ints.  guard has the top bit
    of every field set; width 0 packs the one monomial of degree 0.
    """
    top_bit = 1 << width >> 1    # none in a field of width 0
    guard = 0
    for _ in range(nvars + 1):
        guard = (guard << width) | top_bit

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
