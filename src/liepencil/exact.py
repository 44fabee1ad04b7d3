"""Exact rational arithmetic: matrices, ranks, kernels, sparse polynomials.

Every coefficient this module takes or returns is a `fractions.Fraction`;
nothing here touches floating point.  A `RatMatrix` and a `SparsePoly` are
each stored as one integer form, ints over one positive denominator divided
by their gcd, and their arithmetic runs on those ints; a matrix's `rows`
is a `Fraction` view built from the form on each read, as a structure
tensor's `table` is.  `_cleared` is the one rule that clears rationals to a
form (a tensor's validating constructor goes through it too) and
`_reduced` the one rule that divides a form by its gcd; other modules read
the forms, `den` and `ints`.  Elimination over Q runs on integers in one
state, `_Echelon`: it owns {column: nonzero int} rows in reduced row
echelon form and the rows holding each column, so it visits no zero entry
and eliminates the components of a sparse system independently.  Its one
elimination order is `add(row)`, which says whether the rank grew and
copies no row it owns; every nonempty row of a system goes through it,
in the caller's order, which sets the fill-in.  It is the one entry to
elimination: engine code hands it its own {column: int} rows, and `rref`,
`rank_exact`, `kernel_basis` and `_int_coordinates` copies cleared by
`_int_rows`; its kernel is read as integer forms (`kernel_forms`), which
the centre search takes with no `Fraction` at all.
`_int_coordinates` reduces a basis once and reads every sparse integer
target from that reduction; `solve_columns` is its one-target use.  A point
rank, the rank of a dense int matrix read at one point, runs apart from
`_Echelon`, by forward elimination mod one prime in `_pivots_mod`: a rank
mod the prime is a lower bound on the rank over Q.  Each row is packed
once into one int, an entry mod the prime per 64-bit field, and a row
update is one multiply-add on the whole row and two Mersenne folds that
reduce every field at once (`_row_update`).
`generic_rank`, the rank over Q(x) of a skew matrix of integer linear
forms {k: int}, such as a tensor's bracket form read off its integer
form, takes the rank at one integer point and proves it generic by
Pfaffians: no Pfaffian of the point's nonsingular principal block
bordered by two more indices may be nonzero.  A `SparsePoly`'s monomials
are ints in one layout that only this module reads: the total degree in
the top field, then x_0, ..., x_(n-1), `_WIDTH` bits each.  So a product of
monomials is a sum of ints, and `_pmuladd` is the one polynomial product
(`generic_rank`'s Pfaffians pack apart, in narrower fields).
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

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
    wraps forms the library builds; `rows` and `m[i, j]` return `Fraction`s.
    Immutable: nothing writes the form once built."""

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

    def is_zero(self):
        return not any(map(any, self.ints))

    def is_diagonal(self):
        return all(not x for i, row in enumerate(self.ints)
                   for j, x in enumerate(row) if i != j)

    def __repr__(self):
        return "RatMatrix(%r)" % ([[format_rat(x) for x in row] for row in self.rows],)


class _Echelon:
    """The reduced row echelon form over Q of a growing set of int rows.

    It owns the {column: nonzero int} rows it is given, in `owned`, and
    updates them in place, so their builder must not read them again.  Row
    pivot[c] holds no other pivot column and none left of c: divided by its
    entry at c it is a row of the canonical reduced row echelon form.
    holders[c] indexes the rows with a nonzero in column c, kept current
    through fill-in and cancellation, so no zero entry is visited and an
    update stays in its connected component of the row/column graph.  Each
    updated row is divided by its content (the gcd of its entries), which
    bounds the entries by minors of the scaled matrix.  `add` is the one
    route in: the reduced row echelon form does not depend on the order of
    the rows, but the fill-in on the way does (Markowitz 1957), so a caller that has
    measured a better order hands its rows in that order.
    """

    __slots__ = ("owned", "holders", "pivot")

    def __init__(self, rows):
        """Every nonempty row goes through `add`, in the order given."""
        self.owned, self.holders, self.pivot = [], {}, {}
        for row in rows:
            if row:
                self.add(row)

    def _clear(self, i, p, c):
        """Row i becomes a * row i - b * row p in place, where a / b is
        row p's entry in column c over row i's in lowest terms, so its entry
        in column c cancels; then it is divided by its content.  If row p
        holds column c alone, that is row i less its entry at c, so divided."""
        row, prow, holders = self.owned[i], self.owned[p], self.holders
        if len(prow) == 1:
            del row[c]
            holders[c].discard(i)
        else:
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
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
        _primitive(row)

    def add(self, row):
        """Take one more {column: nonzero int} row and clear every pivot column
        from it.  If anything is left, its first column becomes a pivot,
        cleared from the other rows, and add returns True: the rank grew.
        Else it returns False.  No other row is copied."""
        M, holders, pivot = self.owned, self.holders, self.pivot
        i = len(M)
        M.append(row)
        for c in row:
            holders.setdefault(c, set()).add(i)
        for c in [c for c in row if c in pivot]:    # no clear adds a pivot column
            self._clear(i, pivot[c], c)
        if not row:
            return False
        c = min(row)
        pivot[c] = i
        for k in list(holders[c]):
            if k != i:
                self._clear(k, i, c)
        return True

    def reduced(self):
        """(pivots ascending, their owned rows uncopied): row r, divided by
        its entry at pivots[r], is row r of the reduced row echelon form."""
        pivots = sorted(self.pivot)
        return pivots, [self.owned[self.pivot[c]] for c in pivots]

    def kernel_forms(self, ncols):
        """The canonical kernel basis in ncols columns as integer forms: per
        free column f, in order, (den, {column: int}), the vector over den
        with 1 at f and -x / row[pc] at the pivot column pc of each row with
        x at f.  den is the lcm of those row[pc], so every entry is an int;
        the terms are in ascending column order, since a row's pivot is its
        first column."""
        free = {c: [] for c in range(ncols) if c not in self.pivot}
        for pc in sorted(self.pivot):
            row = self.owned[self.pivot[pc]]
            for c, x in row.items():
                entries = free.get(c)
                if entries is not None:
                    entries.append((pc, x, row[pc]))
        out = []
        for f, entries in free.items():
            den = lcm(*(p for _, _, p in entries))
            form = {pc: -x * (den // p) for pc, x, p in entries}
            form[f] = den
            out.append((den, form))
        return out

    def kernel(self, ncols):
        """`kernel_basis` of the rows, read in ncols columns: the forms of
        `kernel_forms` as `Fraction` vectors."""
        return [[_ratio(form.get(c, 0), den) for c in range(ncols)]
                for den, form in self.kernel_forms(ncols)]


def _int_rows(rows):
    """Fresh {column: nonzero int} rows of list or {column: entry} dict
    rows, each cleared by `_cleared` unless its entries are ints already."""
    listed = bool(rows) and not isinstance(rows[0], dict)
    out = [{c: x for c, x in (enumerate(row) if listed else row.items()) if x} for row in rows]
    return [row if all(type(x) is int for x in row.values()) else _cleared([row])[1][0]
            for row in out]


def _primitive(row):
    """Divide a {column: int} row by its content, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _ratio(x, d):
    return Fraction(x, d) if x else ZERO


def rref(rows):
    """Reduced row echelon form over Q.  Returns (new rows, pivot columns)."""
    rows = list(rows)
    pivots, R = _Echelon(_int_rows(rows)).reduced()
    ncols = len(rows[0]) if rows else 0
    red = [[_ratio(row.get(j, 0), row[c]) for j in range(ncols)] for row, c in zip(R, pivots)]
    red += [[ZERO] * ncols for _ in range(len(rows) - len(pivots))]
    return red, pivots


def rank_exact(m):
    """Rank over Q of a RatMatrix or a list of rows."""
    return len(_Echelon(_int_rows(m.ints if isinstance(m, RatMatrix) else m)).pivot)


PRIME = 2 ** 31 - 1
_ROW_WIDTH = 64                         # bits per entry of a packed row, struct's "Q"
_FOLD = (1 << (_ROW_WIDTH - 31)) - 1    # a field's bits from bit 31 up


def _pivots_mod(rows):
    """Pivot columns of dense int rows over the field of PRIME elements,
    by forward elimination: column c is a pivot when it is independent
    of the columns left of it mod PRIME.  The pivots span the column space
    mod PRIME, and their number, the rank mod PRIME, is at most the rank
    over Q, since a minor that vanishes over Q vanishes mod PRIME.

    Each row of m columns is packed once into one int of 64-bit fields
    (`_ROW_WIDTH`), its entry in column c reduced into [0, p), p = PRIME,
    in field m - 1 - c, so a live row's leading entry is its top field.  At
    step c every live row drops that field.  A row whose leading entry is
    nonzero takes one multiply-add x + f * tail on the whole row, where
    tail is the pivot row below its leading field, and then two Mersenne
    folds on every field at once, v -> (v & p) + (v >> 31 & 2^33 - 1)
    (`_row_update`); any other row drops the field by a mask.  A field may
    hold p itself, so a leading entry is read as field % p.

    Width: every field stays in [0, p].  Packing gives [0, p).  With f in
    [1, p - 1], a field of x + f * tail is at most p + (p - 1) p = p^2 <
    2^62, and so is each partial product of f * tail, so no field carries
    into its neighbour.  A fold writes a field v as lo + 2^31 hi with
    lo < 2^31 and maps it to lo + hi.  From v <= p^2 = 2^62 - 2^32 + 1,
    hi <= 2^31 - 2, so the first fold leaves at most 2^32 - 3.  Then
    hi <= 1, and hi = 1 leaves lo <= 2^31 - 3, so the second fold leaves at
    most p.  Since 2^31 = 1 (mod p), each fold keeps every field's residue.
    The fold masks cover only the fields below the leading one, so the
    folds also drop the leading field.
    """
    p = PRIME
    ncols = len(rows[0]) if rows else 0
    fmt = ">%dQ" % ncols
    rows = [int.from_bytes(struct.pack(fmt, *[x % p for x in row]), "big") for row in rows]
    ones = ((1 << _ROW_WIDTH * ncols) - 1) // ((1 << _ROW_WIDTH) - 1)  # 1 in each field
    lows, highs = p * ones, _FOLD * ones
    pivots = []
    for c in range(ncols):
        s = _ROW_WIDTH * (ncols - 1 - c)
        below = (1 << s) - 1
        for i, x in enumerate(rows):
            if (x >> s) % p:
                break
        else:
            rows = [x & below for x in rows]
            continue
        pivots.append(c)
        prow = rows.pop(i)
        inv, tail = p - pow((prow >> s) % p, -1, p), prow & below
        lo, hi = lows & below, highs & below
        rows = [_row_update(x, f, tail, lo, hi) if (f := (x >> s) % p * inv % p) else x & below
                for x in rows]
    return pivots


def _row_update(x, f, tail, lo, hi):
    """x + f * tail on packed rows, then two Mersenne folds on every field
    that the masks cover: lo holds p = PRIME and hi 2^33 - 1 in each field
    below x's leading one.  Fields of x and tail in [0, p] and f in
    [1, p - 1] give fields in [0, p] (the width proof is `_pivots_mod`'s)."""
    x += f * tail
    x = (x & lo) + (x >> 31 & hi)
    return (x & lo) + (x >> 31 & hi)


def kernel_basis(m, ncols=None):
    """Canonical basis of the right kernel: per free column, the vector with
    1 there and the solved pivot values elsewhere, so rank + len(kernel) =
    ncols exactly.  m is a RatMatrix, a list of equal-length rows, or a list
    of {column: entry} dict rows with their column count ncols."""
    rows = m.ints if isinstance(m, RatMatrix) else m
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return _Echelon(_int_rows(rows)).kernel(ncols)


def _int_coordinates(cols):
    """read(t, den) solves sum_k c_k * cols[k] = t / den like
    `solve_columns`, sparse in and out: the target is its integer form (t a
    {position: nonzero int} dict, den > 0) and the answer {k: c_k} holds
    the nonzero c_k in ascending k.  Every target is read from one
    `_Echelon` of [B | I] (B the columns side by side), cleared by `_int_rows`.

    Each reduced row carries in its I block the row operation that made it.
    A row with its pivot in the B block gives one coefficient: its I block
    times the target, over the pivot.  A row with its pivot in the I block
    must give 0 on the target, else read returns None.  The I blocks times
    t are accumulated from the entries of t only, through the I blocks'
    nonzeros indexed by target position, so only the rows they reach are
    visited; the rows are in pivot order, so the coefficients are too."""
    k = len(cols)
    if not k:
        return lambda t, den: None if t else {}
    pivots, R = _Echelon(_int_rows([{**dict(enumerate(row)), k + i: 1}
                                    for i, row in enumerate(zip(*cols))])).reduced()
    by_entry = [[] for _ in cols[0]]
    for r, row in enumerate(R):
        for j, e in row.items():
            if j >= k:
                by_entry[j - k].append((r, e))
    # (pivot column, pivot) of a row that solves a coefficient, None for a check row
    solves = [(pc, row[pc]) if pc < k else None for row, pc in zip(R, pivots)]

    def read(t, den):
        acc = {}
        for j, x in t.items():
            for r, e in by_entry[j]:
                acc[r] = acc.get(r, 0) + e * x
        sol = {}
        for r, x in sorted(acc.items()):
            if x:
                if solves[r] is None:
                    return None
                pc, piv = solves[r]
                sol[pc] = Fraction(x, piv * den)
        return sol
    return read


def solve_columns(cols, target):
    """Solve sum_k c_k * cols[k] = target exactly.

    Returns the coefficient list (free coefficients set to 0) or None when the
    system is inconsistent.
    """
    den, (t,) = _cleared([{j: x for j, x in enumerate(target) if x}])
    sol = _int_coordinates(cols)(t, den)
    return None if sol is None else [sol.get(k, ZERO) for k in range(len(cols))]


def nilpotent_powers(m):
    """The powers m, m^2, ... before the first zero one, or None if m is
    not nilpotent (an n x n nilpotent m has m^n = 0); one product each."""
    powers = [m]
    while not powers[-1].is_zero() and len(powers) < m.nrows:
        powers.append(powers[-1] * m)
    return powers[:-1] if powers[-1].is_zero() else None


class SparsePoly:
    """Sparse multivariate polynomial over Q as one integer form: the
    coefficient of x^e is ints[m] / den, m the packed monomial of e
    (`_pack`), with nonzero ints and den > 0 divided by their gcd, so ==
    compares forms.  `SparsePoly(nvars, terms)` validates and packs
    {exponent tuple: coefficient} terms from outside; the library builds
    its results with the trusted `_of`.  Every operation runs on the ints;
    graded lex order, for printing and `leading`, is int order.

    Both constructors refuse a total degree above DEGREE_CAP =
    2^(_WIDTH - 2) - 1 with ValueError, and that keeps every product of
    the kernels exact.  A monomial of degree d < 2^_WIDTH holds at most d
    in each field, so adding the ints of such monomials carries no field
    over: the sum is the int of their product, and distinct monomials keep
    distinct ints.  A partial lowers the degree, so a product of k factors,
    each a `SparsePoly`, a partial of one or a table entry, has degree at
    most k * DEGREE_CAP < 2^_WIDTH for k <= 3.  No kernel forms more:
    `poisson_bracket` ({x_i, x_j} df/dx_i dg/dx_j) and `pc_verify` (df_a/dx_i
    {x_i, x_j} df_b/dx_j) form three, a product, pi grad f and the orbit
    derivations two.

    Example: (x1 - 1)*(x1 + 1) multiplies out to x1^2 - 1::

        >>> x = SparsePoly.monomial(2, (0, 1))
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
            clean[_pack(exps)] = c
        self.nvars = nvars
        self.den, (self.ints,) = _cleared([_capped(nvars, clean)])

    @classmethod
    def _of(cls, nvars, den, ints):
        """Trusted constructor: den > 0 and ints nonzero ints on packed
        monomials in nvars variables, divided by their gcd and kept, no
        copy; a total degree above DEGREE_CAP raises ValueError."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.den, (p.ints,) = _reduced(den, [_capped(nvars, ints)])
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._of(nvars, 1, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def monomial(cls, nvars, exps, c=ONE):
        return cls(nvars, {tuple(exps): Fraction(c)})

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.den == other.den and self.ints == other.ints)

    def __neg__(self):
        return SparsePoly._of(self.nvars, self.den, {m: -c for m, c in self.ints.items()})

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.nvars, other)
        d = lcm(self.den, other.den)
        out = {m: d // self.den * c for m, c in self.ints.items()}
        _pmuladd(out, {0: d // other.den}, other.ints)
        return SparsePoly._of(self.nvars, d, out)

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.const(self.nvars, -Fraction(other)))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = Fraction(other)
            p = c.numerator
            return SparsePoly._of(self.nvars, self.den * c.denominator,
                                  {m: p * v for m, v in self.ints.items()} if p else {})
        return SparsePoly._of(self.nvars, self.den * other.den,
                              _pmuladd({}, self.ints, other.ints))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        acc = SparsePoly.const(self.nvars, 1)
        for _ in range(k):
            acc = acc * self
        return acc

    def leading(self):
        """Leading (exponents, coeff) in graded lex order; None for zero."""
        if not self.ints:
            return None
        m = max(self.ints)
        return _unpack(m, self.nvars), Fraction(self.ints[m], self.den)

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

    def format(self, names=None):
        """The terms in descending graded lex order, x_i named names[i].
        A monomial's nonzero exponent fields are read from the top: the
        highest set bit below the degree field lies in the field of the
        lowest i with a nonzero exponent, which is read and cleared."""
        if not self.ints:
            return "0"
        n, den = self.nvars, self.den
        if names is None:
            names = ["x%d" % i for i in range(n)]
        low = (1 << _WIDTH * n) - 1
        parts = []
        for m in sorted(self.ints, reverse=True):
            v = self.ints[m]
            factors = []
            r = m & low
            while r:
                f = (r.bit_length() - 1) // _WIDTH
                k = r >> _WIDTH * f
                r -= k << _WIDTH * f
                name = names[n - 1 - f]
                factors.append(name if k == 1 else "%s^%d" % (name, k))
            body = "*".join(factors)
            if not body:
                chunk = format_ratio(abs(v), den)
            elif abs(v) == den:
                chunk = body
            else:
                chunk = "%s*%s" % (format_ratio(abs(v), den), body)
            parts.append(("-" if v < 0 else "+", chunk))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return text + "".join(" %s %s" % part for part in parts[1:])

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "SparsePoly(%d, %s)" % (self.nvars, self.format())


def generic_rank(forms, point=None):
    """Rank over the rational function field of a square skew-symmetric
    matrix of integer linear forms, each entry {k: int} standing for
    sum_k c_k x_k, such as the bracket form B_ij = sum_k c_ij^k x_k read
    off a tensor's integer form; a matrix that is not square or not skew
    raises ValueError.

    The rank at one integer point (`point`, one value per variable, by
    default a fixed one that no seed changes) is checked by Pfaffians, so
    the result is exact at any point and the point sets only the speed.
    Let P be the pivot columns, by `_pivots_mod`, of the matrix A's value
    at the point taken mod PRIME, where it is skew too.  For a skew matrix,
    columns P that span the column space give a nonsingular principal
    block on P.  A block nonsingular mod PRIME is nonsingular over Q, so
    the polynomial Pf(A[P]) is nonzero at the point and the generic rank
    is at least |P|.  The Schur complement of A[P, P] is skew with entries
    +-Pf(A[P + {k, l}]) / Pf(A[P]), so the rank is |P| exactly when every
    Pf(A[P + {k, l}]) vanishes for k < l outside P; a nonzero one adds
    {k, l} to P, and the check runs again.  So a rank mod PRIME below the
    rank at the point over Q, where PRIME divides every maximal minor,
    only makes P grow here: like the point, the prime sets only the
    speed.

    A Pfaffian is expanded along its smallest index and memoised on the
    bitmask of its indices, on integer polynomials whose monomials are
    packed into one int, x_k as 2^(w k), and multiplied by `_pmuladd`: a
    Pfaffian of order 2m has degree at most m <= n / 2, so fields of
    w = bits(n // 2) hold every exponent of a product, and no division is
    taken.
    """
    n = len(forms)
    if any(len(row) != n for row in forms):
        raise ValueError("generic_rank needs a square matrix")
    if any(forms[j][i] != {k: -c for k, c in forms[i][j].items()}
           for i in range(n) for j in range(i, n)):
        raise ValueError("generic_rank needs a skew-symmetric matrix")
    if point is None:
        nvars = max((k + 1 for row in forms for form in row for k in form), default=0)
        point = [pow(48271, k + 1, 2 ** 31 - 1) % 2001 - 1000 for k in range(nvars)]
    w = (n // 2).bit_length()
    packed = [[{1 << w * k: c for k, c in form.items() if c} for form in row] for row in forms]
    values = [[sum(c * point[k] for k, c in form.items()) for form in row] for row in forms]
    memo = {0: {0: 1}}    # Pf of the empty matrix is 1; 0 packs the monomial 1
    kept = set(_pivots_mod(values))
    while True:
        base = sum(1 << p for p in kept)
        outside = [k for k in range(n) if k not in kept]
        grown = next(((k, l) for a, k in enumerate(outside) for l in outside[a + 1:]
                      if _pfaffian(base | 1 << k | 1 << l, packed, memo)), None)
        if grown is None:
            return len(kept)
        kept.update(grown)


def _pfaffian(mask, packed, memo):
    """Pf of the principal submatrix of packed on the set bits of mask,
    expanded along its smallest index and memoised in memo by mask.  A
    plain function, not a closure over memo, so the memo goes with the
    caller's frame and no reference cycle keeps it."""
    got = memo.get(mask)
    if got is None:
        low = mask & -mask
        i, rest = low.bit_length() - 1, mask ^ low
        got, sign, left = {}, 1, rest
        while left:
            bit = left & -left
            a = packed[i][bit.bit_length() - 1]
            if a:
                sub = _pfaffian(rest ^ bit, packed, memo)
                if sub:
                    _pmuladd(got, a, sub, sign)
            sign, left = -sign, left ^ bit
        memo[mask] = got
    return got


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
    is 1, which ends the scan of the rows."""
    vecs, g = rows.values() if isinstance(rows, dict) else rows, den
    for v in vecs:                  # the gcd so far, until it is 1
        if g == 1:
            return den, rows
        g = gcd(g, *(v.values() if isinstance(v, dict) else v))
    if g == 1:
        return den, rows
    div = [{k: x // g for k, x in v.items()} if isinstance(v, dict) else [x // g for x in v]
           for v in vecs]
    return den // g, dict(zip(rows, div)) if isinstance(rows, dict) else div


# Packed integer polynomials {monomial int: nonzero int}, in the layout of
# the module docstring: a `SparsePoly`'s form, and the Poisson kernels'
# partials and sums.

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
DEGREE_CAP = (1 << _WIDTH - 2) - 1


def _pack(exps):
    """The packed monomial of an exponent tuple, x_0 first."""
    m = sum(exps)
    for e in exps:
        m = (m << _WIDTH) | e
    return m


def _unpack(m, nvars):
    """The exponent tuple, x_0 first, of a packed monomial in nvars variables."""
    return tuple([m >> s & _FIELD for s in range(_WIDTH * (nvars - 1), -1, -_WIDTH)])


def _capped(nvars, ints):
    """ints, once its largest monomial in nvars variables, and so every
    one, is of total degree (its top field) at most DEGREE_CAP."""
    top = max(ints, default=0) >> _WIDTH * nvars
    if top > DEGREE_CAP:
        raise ValueError("total degree %d is above the cap %d" % (top, DEGREE_CAP))
    return ints


def _gradient(f):
    """The partials of f as packed integer polynomials over f.den, x_0
    first: dividing x^e by x_i subtracts 1 from field i and from the top."""
    n, top = f.nvars, 1 << _WIDTH * f.nvars
    lower = [(s, top + (1 << s)) for s in range(_WIDTH * (n - 1), -1, -_WIDTH)]
    grad = [{} for _ in range(n)]
    for m, c in f.ints.items():
        for part, (shift, drop) in zip(grad, lower):
            k = m >> shift & _FIELD
            if k:
                part[m - drop] = c * k
    return grad


def _variables(n):
    """The packed monomials x_0, ..., x_(n-1) in n variables."""
    return [(1 << _WIDTH * n) + (1 << _WIDTH * (n - 1 - k)) for k in range(n)]


def _linear_forms(n):
    """form(pairs): the packed integer polynomial of the linear form
    sum x * x_k in n variables, from (k, x) pairs with k ascending; a zero
    x is dropped."""
    unit = _variables(n)
    return lambda pairs: {unit[k]: x for k, x in pairs if x}


def _weight_zero(n, max_degree, weights):
    """For d = 1, ..., max_degree, the list of packed monomials x^m of
    degree d in n variables with m . w = 0 for every int vector w in
    weights, in the order of `combinations_with_replacement(range(n), d)`.

    Each degree is enumerated from the one before as x^m x_k, k at least
    the last variable of x^m, and each monomial carries one packed weight
    key, sum_f (m . w_f) 2^(b f) over the weights w_f, added up as
    key + wkey[k]; a monomial is kept when its key is 0.  b is the bit
    length of max_degree * max|w|, and with 2^b above every |m . w_f| the
    key is 0 exactly when every field is (the proof is in
    `poisson.centre_candidates`)."""
    unit = _variables(n)
    b = (max_degree * max((abs(x) for w in weights for x in w), default=0)).bit_length()
    wkey = [sum(w[k] << b * f for f, w in enumerate(weights)) for k in range(n)]
    level = [(0, 0, 0)]     # (packed monomial, weight key, last variable)
    for _ in range(max_degree):
        level = [(m + unit[k], key + wkey[k], k) for m, key, last in level
                 for k in range(last, n)]
        yield [m for m, key, _ in level if not key]


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
