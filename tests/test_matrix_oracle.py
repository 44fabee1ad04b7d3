"""`RatMatrix` on its integer form against a `Fraction` reference.

`Reference` below is the matrix class as it stood when every entry was a
`Fraction` in a row list, kept here as the oracle.  On generated matrices,
including 0 x 0, 1 x n, n x 0, zero rows and mixed denominators, the tests
check that:

* every operation gives the reference's entries, shape and verdicts, and
  that every entry read back is a `Fraction`;
* forms are canonical: den > 0 and gcd(den, ints) = 1, so
  `m.scale(F(2, 3)).scale(F(3, 2)) == m` with equal hashes, and `==`
  agrees with the reference;
* no operation changes its operands' form.
"""

import copy
from fractions import Fraction as F
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.exact import RatMatrix, kernel_basis, rank_exact, rref

from helpers import col, columns, inverse, nilpotent_exp, transpose

# the example budget is the "liepencil" profile in conftest.py


class Reference:
    """Dense matrix over Q as rows of `Fraction`s."""

    def __init__(self, rows):
        self.rows = [[F(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    def __eq__(self, other):
        return self.rows == other.rows

    def __add__(self, other):
        return Reference([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Reference([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return Reference([[-a for a in r] for r in self.rows])

    def scale(self, c):
        c = F(c)
        return Reference([[c * a for a in r] for r in self.rows])

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Reference([[sum((a * b for a, b in zip(row, col)), F(0)) for col in cols]
                          for row in self.rows])

    def apply(self, vec):
        return [sum((a * x for a, x in zip(row, vec)), F(0)) for row in self.rows]

    def col(self, j):
        return [row[j] for row in self.rows]

    def columns(self):
        return [list(c) for c in zip(*self.rows)] if self.rows else []

    def transpose(self):
        return Reference([list(c) for c in zip(*self.rows)])

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def is_diagonal(self):
        return all(not self.rows[i][j] for i in range(self.nrows)
                   for j in range(self.ncols) if i != j)

    def inverse(self):
        """Gauss-Jordan on [self | I] over `Fraction`s."""
        n = self.nrows
        aug = [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(self.rows)]
        for c in range(n):
            p = next((i for i in range(c, n) if aug[i][c]), None)
            if p is None:
                raise ValueError("singular matrix")
            aug[c], aug[p] = aug[p], aug[c]
            aug[c] = [x / aug[c][c] for x in aug[c]]
            for i in range(n):
                if i != c and aug[i][c]:
                    e = aug[i][c]
                    aug[i] = [a - e * b for a, b in zip(aug[i], aug[c])]
        return Reference([row[n:] for row in aug])


ENTRIES = st.one_of(st.just(F(0)), st.integers(-4, 4),
                    st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def shaped(draw, nrows, ncols):
    """Row lists of the given shape with forced zero rows."""
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=1))
    return [[0] * ncols if i in zero_rows else row for i, row in enumerate(rows)]


SIDES = st.integers(0, 4)


def pair(rows):
    return RatMatrix(rows), Reference(rows)


def assert_same(m, ref):
    """Same shape and entries as the reference, on a canonical form."""
    assert (m.nrows, m.ncols) == (ref.nrows, ref.ncols)
    assert m.rows == ref.rows
    assert all(type(x) is F for row in m.rows for x in row)
    assert m.den > 0 and gcd(m.den, *(x for row in m.ints for x in row)) == 1
    assert all(type(x) is int for row in m.ints for x in row)


def form(m):
    return m.den, copy.deepcopy(m.ints)


@given(SIDES, SIDES, st.data())
def test_unary_operations_match_the_reference(nrows, ncols, data):
    rows = data.draw(shaped(nrows, ncols), label="rows")
    c = data.draw(ENTRIES, label="c")
    vec = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols), label="vec")
    m, ref = pair(rows)
    before = form(m)
    assert_same(m, ref)
    assert_same(-m, -ref)
    assert_same(m.scale(c), ref.scale(c))
    assert_same(m * c, ref.scale(c))
    assert_same(c * m, ref.scale(c))
    assert_same(transpose(m), ref.transpose())
    assert m.apply(vec) == ref.apply(vec)
    assert all(type(x) is F for x in m.apply(vec))
    assert columns(m) == ref.columns()
    for j in range(m.ncols):
        assert col(m, j) == ref.col(j)
    assert [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)] == ref.rows
    assert m.is_zero() == ref.is_zero()
    assert m.is_diagonal() == ref.is_diagonal()
    assert rank_exact(m) == rank_exact(ref.rows)
    assert kernel_basis(m) == kernel_basis(ref.rows)
    assert repr(m) == repr(RatMatrix(ref.rows))
    assert form(m) == before


@given(SIDES, SIDES, SIDES, st.data())
def test_binary_operations_match_the_reference(nrows, inner, ncols, data):
    a_rows = data.draw(shaped(nrows, inner), label="a")
    b_rows = data.draw(shaped(nrows, inner), label="b")
    c_rows = data.draw(shaped(inner, ncols), label="c")
    (a, ra), (b, rb), (c, rc) = pair(a_rows), pair(b_rows), pair(c_rows)
    before = [form(a), form(b), form(c)]
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a - a, ra - ra)
    if ra.ncols == rc.nrows:    # a 0-row matrix is 0 x 0
        assert_same(a * c, ra * rc)
    else:
        with pytest.raises(ValueError, match="shape mismatch"):
            a * c
    assert (a == b) == (ra == rb)
    assert a == RatMatrix(a_rows) and hash(a) == hash(RatMatrix(a_rows))
    assert [form(a), form(b), form(c)] == before
    if a.ncols != a.nrows:
        with pytest.raises(ValueError, match="shape mismatch"):
            a * a


@given(SIDES, st.data())
def test_square_operations_match_the_reference(n, data):
    m, ref = pair(data.draw(shaped(n, n), label="m"))
    before = form(m)
    try:
        expected = ref.inverse()
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        inv = inverse(m)
        assert_same(inv, expected)
        assert m * inv == RatMatrix.identity(n)
    assert form(m) == before
    if not n:
        return    # no 0 x 0 matrix counts as nilpotent, here as in the reference
    strict = RatMatrix([[x if j > i else 0 for j, x in enumerate(row)]
                        for i, row in enumerate(m.rows)])
    s = data.draw(ENTRIES, label="s")
    # exp(s N) of a strictly upper triangular N as the finite sum s^p N^p / p!
    ref_exp = power = Reference([[int(i == j) for j in range(n)] for i in range(n)])
    fact = 1
    for p in range(1, n + 1):
        power = power * Reference(strict.rows)
        fact *= p
        ref_exp = ref_exp + power.scale(F(s) ** p / fact)
    assert_same(nilpotent_exp(strict, s), ref_exp)


@given(SIDES, SIDES, st.data())
def test_forms_are_canonical(nrows, ncols, data):
    m, _ = pair(data.draw(shaped(nrows, ncols), label="m"))
    back = m.scale(F(2, 3)).scale(F(3, 2))
    assert back == m and hash(back) == hash(m)
    assert form(back) == form(m)
    assert form(m.scale(0)) == (1, [[0] * m.ncols for _ in range(m.nrows)])
    # the same form times k, handed to the trusted constructor
    k = data.draw(st.integers(2, 30), label="k")
    spelled = RatMatrix._of(m.den * k, [[x * k for x in row] for row in m.ints])
    assert spelled == m and hash(spelled) == hash(m)
    diag = data.draw(st.lists(ENTRIES, max_size=4), label="diag")
    assert_same(RatMatrix.diagonal(diag),
                Reference([[x if i == j else 0 for j in range(len(diag))]
                           for i, x in enumerate(diag)]))


def test_edge_shapes():
    assert_same(RatMatrix([]), Reference([]))
    assert_same(RatMatrix([[], []]), Reference([[], []]))
    assert_same(RatMatrix([[F(1, 2), 3, F(-5, 6)]]), Reference([[F(1, 2), 3, F(-5, 6)]]))
    assert RatMatrix([[F(1, 2), F(1, 3)]]).den == lcm(2, 3)
    assert RatMatrix.zero(2, 3).rows == [[0] * 3] * 2
    assert RatMatrix.identity(0) == RatMatrix([])
    assert inverse(RatMatrix([])) == RatMatrix([])
    with pytest.raises(ValueError, match="ragged"):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="not square"):
        inverse(RatMatrix([[1, 2]]))
    assert rref(RatMatrix([[F(1, 2), 1]]).rows) == ([[1, 2]], [0])
