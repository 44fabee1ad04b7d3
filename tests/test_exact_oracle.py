"""The elimination engine against sympy on generated rational matrices.

sympy's rref(), rank(), nullspace() and gauss_jordan_solve() use the same
canonical forms as rref, rank_exact, kernel_basis and solve_columns, so the
results must agree exactly.  The point-rank kernel `_pivots_mod`, which
eliminates mod PRIME, is checked against `rank_exact` and `rref`: equal on
small entries, a lower bound once PRIME divides entries, and `generic_rank`
exact at a point where every value is 0 mod PRIME.  The packed kernel is
also checked against `reference_pivots_mod`, the list-row elimination it
replaced, on wide entries and on the sampled bracket forms `lie_index`
ranks, and its row update `_row_update` at the largest field value its
width proof allows.  sympy and Hypothesis are test-only; the library
itself stays stdlib-only.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from helpers import reference_pivots_mod
from liepencil.analysis import SAMPLE_BOUND
from liepencil.constructions import build_classical
from liepencil.exact import (_FOLD, _ROW_WIDTH, PRIME, _pivots_mod, _row_update, generic_rank,
                             kernel_basis, rank_exact, rref, solve_columns)

# the example budget is the "liepencil" profile in conftest.py; the two
# sympy tests together take about 1.5 s

ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def matrices(draw):
    """Rational matrices up to 6 x 7, tall or wide, with forced zero rows
    and columns."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def from_sympy(entry):
    return Fraction(int(entry.p), int(entry.q))


def columns_of(rows):
    return [list(col) for col in zip(*rows)]


@given(matrices())
def test_rref_rank_kernel_match_sympy(rows):
    ncols = len(rows[0])
    ref = to_sympy(rows)
    ref_red, ref_pivots = ref.rref()
    red, pivots = rref(rows)
    assert pivots == list(ref_pivots)
    assert red == [[from_sympy(x) for x in ref_red.row(i)] for i in range(len(rows))]
    rank = rank_exact(rows)
    assert rank == ref.rank()
    kernel = kernel_basis(rows)
    assert kernel == [[from_sympy(x) for x in v] for v in ref.nullspace()]
    assert rank + len(kernel) == ncols


@given(matrices(), st.data())
def test_solve_columns_matches_sympy(rows, data):
    nrows, ncols = len(rows), len(rows[0])
    if data.draw(st.booleans(), label="consistent"):
        coeffs = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        target = [sum((a * c for a, c in zip(row, coeffs)), Fraction(0)) for row in rows]
    else:
        target = data.draw(st.lists(ENTRIES, min_size=nrows, max_size=nrows))
    sol = solve_columns(columns_of(rows), target)
    try:
        ref, params = to_sympy(rows).gauss_jordan_solve(to_sympy([[t] for t in target]))
    except ValueError:
        assert sol is None
        return
    ref = ref.subs({p: 0 for p in params})   # free coefficients set to 0
    assert sol == [from_sympy(x) for x in ref]


# _pivots_mod against the rank over Q.  With at most 6 columns and entries
# of at most 9 in size, Hadamard's bound puts every minor below
# (9 sqrt 6)^6 < 1.2e8 < PRIME, so a minor vanishes mod PRIME only where it
# vanishes over Q: the rank and the pivot columns (each the leftmost
# column independent of those before it) must agree exactly.  Adding
# multiples of PRIME to the entries leaves the pivots mod PRIME alone and
# can only raise the rank over Q.

@st.composite
def int_matrices(draw):
    """Integer matrices up to 7 x 6 with entries in [-9, 9], or skew ones
    up to 6 x 6, with forced zero rows."""
    ints = st.integers(-9, 9)
    if draw(st.booleans(), label="skew"):
        n = draw(st.integers(1, 6))
        upper = iter(draw(st.lists(ints, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = next(upper)
                rows[j][i] = -rows[i][j]
    else:
        nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    zero = draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
    return [[0] * len(row) if i in zero else row for i, row in enumerate(rows)]


@given(int_matrices(), st.data())
def test_pivots_mod_match_rank_exact(rows, data):
    pivots = _pivots_mod(rows)
    assert len(pivots) == rank_exact(rows)
    assert pivots == rref(rows)[1]
    shifts = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows[0]),
                                         max_size=len(rows[0])),
                                min_size=len(rows), max_size=len(rows)), label="shifts")
    moved = [[x + PRIME * k for x, k in zip(row, ks)] for row, ks in zip(rows, shifts)]
    assert _pivots_mod(moved) == pivots
    assert len(pivots) <= rank_exact(moved)


def test_pivots_mod_is_a_lower_bound():
    # diag(p, 1) has rank 2 over Q and 1 mod p; the skew [[0, p], [-p, 0]]
    # has rank 2 over Q and 0 mod p
    assert (_pivots_mod([[PRIME, 0], [0, 1]]), rank_exact([[PRIME, 0], [0, 1]])) == ([1], 2)
    assert (_pivots_mod([[0, PRIME], [-PRIME, 0]]), rank_exact([[0, PRIME], [-PRIME, 0]])) == ([], 2)


# the packed _pivots_mod against the list-row elimination it replaced, on
# entries of any size: small ints, multiples of PRIME plus small offsets
# (0 mod PRIME and its neighbours), and ints up to 2^100

WIDE_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda k, d: k * PRIME + d, st.integers(-4, 4), st.integers(-2, 2)),
    st.integers(-2 ** 100, 2 ** 100))


@st.composite
def wide_matrices(draw):
    """Integer matrices from 0 x 0 up to 12 x 12, tall or wide, some with
    one more row that is a combination of two others."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12)) if nrows else 0
    rows = draw(st.lists(st.lists(WIDE_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 2 and draw(st.booleans(), label="dependent"):
        a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = draw(st.integers(-3, 3))
        rows.append([x + k * y for x, y in zip(rows[a], rows[b])])
    return rows


@given(wide_matrices())
def test_pivots_mod_matches_the_list_rows(rows):
    assert _pivots_mod(rows) == reference_pivots_mod(rows)


def bracket_values(tensor, point):
    """The skew matrix of the bracket form's integer values at point, as
    `lie_index` builds a sample."""
    _, tab = tensor.integer_form()
    n = tensor.dim
    rows = [[0] * n for _ in range(n)]
    for (i, j), vec in tab.items():
        rows[i][j] = sum(c * point[k] for k, c in vec.items())
    return rows


@given(st.sampled_from([("sl", 3), ("sp", 4), ("gl", 3)]), st.integers(0, 2 ** 32))
def test_pivots_mod_matches_the_list_rows_on_bracket_samples(algebra, seed):
    tensor = build_classical(*algebra)
    rng = random.Random(seed)
    point = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(tensor.dim)]
    rows = bracket_values(tensor, point)
    assert _pivots_mod(rows) == reference_pivots_mod(rows)


def test_row_update_at_the_width_bound():
    # fields of x and tail at most p and f = p - 1: a field before the
    # folds is at most p + (p - 1) p = p^2.  All fields at p reach p^2,
    # which one fold already takes to p; x's field p - 2 reaches p^2 - 2,
    # which one fold takes to 2^32 - 4, so only the second fold brings
    # every field back to [0, p]
    p, n, w = PRIME, 6, _ROW_WIDTH
    mask = (1 << w) - 1
    ones = sum(1 << w * k for k in range(n))
    lo, hi = p * ones, _FOLD * ones
    tail = p * ones
    for fields in ([p] * n, [p - k for k in range(n)]):
        row = sum(v << w * k for k, v in enumerate(fields))
        row += p << w * n                   # a leading field, which the update drops
        got = _row_update(row, p - 1, tail, lo, hi)
        out = [got >> w * k & mask for k in range(n)]
        assert got >> w * n == 0
        assert all(v <= p for v in out)
        assert [v % p for v in out] == [(v + (p - 1) * p) % p for v in fields]


@pytest.mark.parametrize("family, n, rank", [("sl", 2, 2), ("sl", 3, 6), ("gl", 3, 6),
                                             ("sp", 4, 8), ("so", 4, 4)])
def test_generic_rank_grows_past_a_point_zero_mod_p(family, n, rank):
    # every variable at PRIME: the bracket form's value is 0 mod PRIME, so
    # the point gives no pivot, and the bordered Pfaffians grow P from the
    # empty set to the generic rank
    tensor = build_classical(family, n)
    _, tab = tensor.integer_form()
    dim = tensor.dim
    forms = [[tab.get((i, j), {}) for j in range(dim)] for i in range(dim)]
    point = [PRIME] * dim
    values = [[sum(c * point[k] for k, c in form.items()) for form in row] for row in forms]
    assert _pivots_mod(values) == []
    assert generic_rank(forms, point) == generic_rank(forms) == rank
