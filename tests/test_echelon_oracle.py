"""The incremental elimination state against whole-system ranks.

`exact._Echelon.add` takes one row at a time, into an empty state or into
one built in bulk from a prefix of the rows.  On the generated systems of
`tests/test_reduce_oracle.py` (`systems()` and `presolve_systems()`), each
`add` must return True exactly when `rank_exact` of the rows so far grows,
must leave every row the state already owns in place, uncopied, and the
final reduced rows and kernel must equal those of `_reduce` and
`kernel_basis` on all the rows.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.exact import _Echelon, _int_rows, _reduce, kernel_basis, rank_exact

from test_reduce_oracle import normalised, presolve_systems, systems

# the example budget is the "liepencil" profile in conftest.py


def check_added(rows, start):
    ncols = len(rows[0])
    state = _Echelon(_int_rows(rows[:start]))
    for k in range(start, len(rows)):
        held = list(state.owned)
        (row,) = _int_rows([rows[k]])
        grew = state.add(row)
        assert grew == (rank_exact(rows[:k + 1]) > rank_exact(rows[:k]))
        assert state.owned[-1] is row
        assert all(mine is now for mine, now in zip(held, state.owned))
    pivots, R = state.reduced()
    ref_pivots, ref_R = _reduce(rows)
    assert pivots == ref_pivots
    assert normalised(R, pivots, ncols) == normalised(ref_R, ref_pivots, ncols)
    assert state.kernel(ncols) == kernel_basis(rows)


@given(systems())
def test_rows_added_one_at_a_time(rows):
    check_added(rows, 0)


@given(presolve_systems())
def test_presolve_rows_added_one_at_a_time(rows):
    check_added(rows, 0)


@given(st.one_of(systems(), presolve_systems()), st.data())
def test_rows_added_to_a_bulk_built_state(rows, data):
    check_added(rows, data.draw(st.integers(0, len(rows)), label="bulk rows"))

