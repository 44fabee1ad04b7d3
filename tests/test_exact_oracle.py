"""The elimination engine against sympy on generated rational matrices.

sympy's rref(), rank(), nullspace() and gauss_jordan_solve() use the same
canonical forms as rref, rank_exact, kernel_basis and solve_columns, so the
results must agree exactly.  sympy and Hypothesis are test-only; the
library itself stays stdlib-only.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.exact import kernel_basis, rank_exact, rref, solve_columns

# the example budget is the "liepencil" profile in conftest.py; both tests
# together take about 1.5 s

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
