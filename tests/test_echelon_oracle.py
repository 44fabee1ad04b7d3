"""The incremental elimination state against the dense Gauss-Jordan oracle.

`exact._Echelon.add` takes one row at a time, into an empty state or into
one built in bulk from a prefix of the rows.  On the generated systems of
`tests/test_reduce_oracle.py` (`systems()` and `presolve_systems()`), each
`add` must return True exactly when the rank of the rows so far grows, by
`reference_reduce`, and must leave every row the state already owns in
place, uncopied; the final reduced rows must equal `reference_reduce`'s,
and the kernel the one read off its rows (`reference_kernel`).  Rows that
enter primitive (content 1) stay primitive after each `add`: the reduced
rows are compared once normalised, which would hide a cleared row left
undivided by its content.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from liepencil.exact import _Echelon, _int_rows

from test_reduce_oracle import (normalised, presolve_systems, reference_kernel,
                                reference_reduce, systems)

# the example budget is the "liepencil" profile in conftest.py


def check_added(rows, start):
    ncols = len(rows[0])
    state = _Echelon(_int_rows(rows[:start]))
    rank = len(reference_reduce(rows[:start])[0])
    for k in range(start, len(rows)):
        held = list(state.owned)
        (row,) = _int_rows([rows[k]])
        grew = state.add(row)
        before, rank = rank, len(reference_reduce(rows[:k + 1])[0])
        assert grew == (rank > before)
        assert state.owned[-1] is row
        assert all(mine is now for mine, now in zip(held, state.owned))
    pivots, R = state.reduced()
    ref_pivots, ref_R = reference_reduce(rows)
    assert pivots == ref_pivots
    assert normalised(R, pivots, ncols) == normalised(ref_R, ref_pivots, ncols)
    assert state.kernel(ncols) == reference_kernel(rows, ncols)


@given(systems())
def test_rows_added_one_at_a_time(rows):
    check_added(rows, 0)


@given(presolve_systems())
def test_presolve_rows_added_one_at_a_time(rows):
    check_added(rows, 0)


@given(st.one_of(systems(), presolve_systems()), st.data())
def test_rows_added_to_a_bulk_built_state(rows, data):
    check_added(rows, data.draw(st.integers(0, len(rows)), label="bulk rows"))


@given(st.one_of(systems(), presolve_systems()))
@example([[5, 0, 0], [3, 2, 4]])    # the one-entry pivot row leaves 2, 4: content 2
def test_owned_rows_stay_primitive(rows):
    state = _Echelon([])
    for row in _int_rows(rows):
        if row:
            g = gcd(*row.values())
            state.add({c: x // g for c, x in row.items()})
        assert all(gcd(*mine.values()) == 1 for mine in state.owned if mine)
