"""The sparse elimination against the dense Gauss-Jordan it replaced.

`reference_reduce` below is the dense Gauss-Jordan that `exact` ran when
every row was a dense list, kept as the oracle.  On generated systems with
several components whose rows and columns are permuted, with zero and duplicate
rows, on all-zero systems, on one dense component, on singleton cascades
(cascades of singletons, repeated singletons of one column, rows that the
fixed singletons empty, singletons beside a dense block), which `add` alone
must eliminate in whatever order they come, and on the dense skew point
matrices of classical Lie tables, the pivots, the reduced rows, the ranks
and the kernel bases must equal the reference's, whether the rows arrive as
lists (through `rref`) or as {column: entry} dicts (through `_int_rows` and
`_Echelon.reduced`), with int or `Fraction` entries, or as int rows that an
`_Echelon` takes uncopied.  An `_Echelon` keeps its holders and pivot rows
current.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.constructions import build_classical
from liepencil.exact import (ONE, ZERO, _Echelon, _int_rows, _ratio, kernel_basis,
                             rank_exact, rref)

# the example budget is the "liepencil" profile in conftest.py


def reference_reduce(rows):
    """Dense Gauss-Jordan on integer-cleared list rows: (pivots, R)."""
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


def reference_kernel(rows, ncols):
    pivots, R = reference_reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(R, pivots):
            v[pc] = _ratio(-row[fc], row[pc])
        basis.append(v)
    return basis


def normalised(R, pivots, ncols):
    """The reduced row echelon form read from R, as dense `Fraction` rows."""
    dense = [[row.get(j, 0) for j in range(ncols)] if isinstance(row, dict) else row
             for row in R]
    return [[_ratio(x, row[c]) for x in row] for row, c in zip(dense, pivots)]


def as_dicts(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


# about half the entries of a sparse block are zero, so updates fill in
INTS = st.just(0) | st.integers(-9, 9)
FRACTIONS = st.just(0) | st.fractions(min_value=-9, max_value=9, max_denominator=6)
NONZERO_INTS = st.integers(1, 9) | st.integers(-9, -1)


@st.composite
def blocks(draw, entries):
    """One block of a block-diagonal system: 1-5 rows by 1-5 columns."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@st.composite
def systems(draw):
    """A list-row system: blocks set on the diagonal, then zero and
    duplicate rows appended and the rows and columns permuted.  "dense" is
    one block with no zero entry, "zero" an all-zero system."""
    kind = draw(st.sampled_from(["components", "components", "dense", "zero"]))
    fractions = draw(st.booleans())
    if kind == "zero":
        width = draw(st.integers(1, 6))
        parts = [[[0] * width for _ in range(draw(st.integers(1, 5)))]]
    elif kind == "dense":
        nonzero = NONZERO_INTS.map(Fraction) if fractions else NONZERO_INTS
        parts = [draw(blocks(nonzero.filter(bool)))]
    else:
        parts = draw(st.lists(blocks(FRACTIONS if fractions else INTS), min_size=2, max_size=4))
    ncols = sum(len(b[0]) for b in parts)
    rows, offset = [], 0
    for block in parts:
        width = len(block[0])
        rows += [[0] * offset + row + [0] * (ncols - offset - width) for row in block]
        offset += width
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(ncols)))
    return [[rows[i][j] for j in col_order] for i in row_order]


@st.composite
def presolve_systems(draw):
    """A list-row system of singleton cascades, a hard case for `add`
    alone, which takes the rows in their permuted order and so may meet a
    singleton only after the rows it empties.  Row k of a cascade has its
    last nonzero in chain column k and its others in earlier chain columns,
    so it is a singleton once those are fixed; singletons of chain columns
    are repeated with other values; rows in two or more chain columns only
    are emptied by the fixed singletons; and a dense block's rows may carry
    chain entries too.  Zero rows are appended and the rows and columns
    permuted."""
    fractions = draw(st.booleans())
    nonzero = (FRACTIONS.filter(bool) if fractions else NONZERO_INTS)
    chain = draw(st.integers(1, 5))
    width = draw(st.integers(0, 4))
    ncols = chain + width
    earlier = lambda k: st.lists(st.integers(0, k - 1), unique=True) if k else st.just([])
    rows = []
    for k in range(chain):
        rows.append({j: draw(nonzero) for j in draw(earlier(k)) + [k]})
    for k in draw(st.lists(st.integers(0, chain - 1), max_size=3)):
        rows.append({k: draw(nonzero)})
    if chain >= 2:
        for _ in range(draw(st.integers(0, 2))):
            cols = draw(st.lists(st.integers(0, chain - 1), unique=True, min_size=2))
            rows.append({j: draw(nonzero) for j in cols})
    for _ in range(draw(st.integers(0, 4)) if width else 0):
        row = {j: draw(nonzero) for j in range(chain, ncols)}
        row.update({j: draw(nonzero) for j in draw(earlier(chain))})
        rows.append(row)
    rows = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(ncols)))
    return [[rows[i][j] for j in col_order] for i in row_order]


def check_list_rows(rows):
    ncols = len(rows[0])
    ref_pivots, ref_R = reference_reduce(rows)
    before = [list(row) for row in rows]
    red, pivots = rref(rows)
    assert rows == before
    assert pivots == ref_pivots
    assert len(red) == len(rows) and all(len(row) == ncols for row in red)
    assert red[:len(pivots)] == normalised(ref_R, ref_pivots, ncols)
    assert not any(map(any, red[len(pivots):]))
    assert rank_exact(rows) == len(ref_pivots)
    assert kernel_basis(rows) == reference_kernel(rows, ncols)


def check_dict_rows(rows):
    ncols = len(rows[0])
    ref_pivots, ref_R = reference_reduce(rows)
    sparse = as_dicts(rows)
    before = [dict(row) for row in sparse]
    pivots, R = _Echelon(_int_rows(sparse)).reduced()
    assert sparse == before
    assert pivots == ref_pivots
    assert all(isinstance(row, dict) and all(type(x) is int and x for x in row.values())
               for row in R)
    assert normalised(R, pivots, ncols) == normalised(ref_R, ref_pivots, ncols)
    assert rank_exact(sparse) == len(ref_pivots)
    assert kernel_basis(sparse, ncols) == reference_kernel(rows, ncols)


def check_owned_rows(rows):
    # rows of {column: nonzero int} given to an `_Echelon` are eliminated in place, uncopied
    ncols = len(rows[0])
    ref_pivots, ref_R = reference_reduce(rows)
    L = lcm(*(Fraction(x).denominator for row in rows for x in row))
    owned = [{j: int(x * L) for j, x in row.items()} for row in as_dicts(rows)]
    pivots, R = _Echelon(owned).reduced()
    assert pivots == ref_pivots
    assert normalised(R, pivots, ncols) == normalised(ref_R, ref_pivots, ncols)
    assert all(any(row is mine for mine in owned) for row in R)    # the list's own rows
    scaled = [{j: int(x * L) for j, x in row.items()} for row in as_dicts(rows)]
    assert _Echelon(scaled).kernel(ncols) == reference_kernel(rows, ncols)


@given(systems())
def test_list_rows_match_the_dense_reference(rows):
    check_list_rows(rows)


@given(systems())
def test_dict_rows_match_the_dense_reference(rows):
    check_dict_rows(rows)


@given(systems())
def test_owned_int_rows_match_the_dense_reference(rows):
    check_owned_rows(rows)


@given(presolve_systems())
def test_presolve_systems_match_the_dense_reference(rows):
    check_list_rows(rows)
    check_dict_rows(rows)
    check_owned_rows(rows)


def test_empty_and_all_zero_dict_systems():
    assert _Echelon(_int_rows([])).reduced() == ([], [])
    assert rref([]) == ([], [])
    assert kernel_basis([], 2) == [[ONE, ZERO], [ZERO, ONE]]
    assert _Echelon(_int_rows([{}, {1: 0}])).reduced() == ([], [])
    assert rank_exact([{}, {}]) == 0
    assert kernel_basis([{}, {0: 0}], 1) == [[ONE]]


def test_columns_in_no_row_are_free():
    # columns 1 and 3 appear in no row; dict rows need their column count
    rows = [{0: 2, 2: -4}, {2: Fraction(1, 3)}]
    assert _Echelon(_int_rows(rows)).reduced() == ([0, 2], [{0: 1}, {2: 1}])
    assert kernel_basis(rows, 4) == [[ZERO, ONE, ZERO, ZERO], [ZERO, ZERO, ZERO, ONE]]


def check_state(state):
    """The invariants of an `_Echelon`: holders[c] indexes exactly the owned
    rows with a nonzero in column c (an emptied set may stay), and each
    pivot row holds its pivot column and no other pivot column.  A
    dependent row that `add` took stays owned, emptied."""
    held = {}
    for i, row in enumerate(state.owned):
        assert all(type(x) is int and x for x in row.values())
        for c in row:
            held.setdefault(c, set()).add(i)
    assert {c: rows for c, rows in state.holders.items() if rows} == held
    for c, p in state.pivot.items():
        assert c in state.owned[p]
        assert not any(d in state.pivot for d in state.owned[p] if d != c)


CLASSICAL = [("sl", 2), ("sl", 3), ("gl", 3), ("so", 4), ("sp", 4)]


@st.composite
def lie_points(draw):
    """pi(xi) = (sum_k c_ij^k xi_k)_ij on the integer form of a classical
    Lie table, |xi_k| <= 10^6, taken as P^T pi(xi) P for P a lower times an
    upper unitriangular integer matrix: the point rank of the algebra on the
    basis P, a dense skew integer matrix: dense skew systems for
    `_Echelon`.  `analysis.lie_index` ranks such points mod p with
    `exact._pivots_mod`, whose own oracle is in `tests/test_exact_oracle.py`."""
    tensor = build_classical(*draw(st.sampled_from(CLASSICAL)))
    n, ints = tensor.dim, tensor.integer_form()[1]
    xi = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n))
    pi = [[sum(c * xi[k] for k, c in ints.get((i, j), {}).items()) for j in range(n)]
          for i in range(n)]
    entries = st.integers(-3, 3)
    lower = [[draw(entries) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(entries) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    P = [[sum(a * b for a, b in zip(row, col)) for col in zip(*upper)] for row in lower]
    moved = [[sum(P[a][i] * pi[a][b] * P[b][j] for a in range(n) for b in range(n))
              for j in range(n)] for i in range(n)]
    return moved


@given(lie_points())
def test_dense_point_ranks_match_the_dense_reference(rows):
    check_list_rows(rows)
    check_dict_rows(rows)
    check_owned_rows(rows)
    check_state(_Echelon(as_dicts(rows)))


@given(st.one_of(systems(), presolve_systems()))
def test_the_state_keeps_its_invariants(rows):
    L = lcm(*(Fraction(x).denominator for row in rows for x in row))
    state = _Echelon([{j: int(x * L) for j, x in row.items()} for row in as_dicts(rows)])
    check_state(state)
    state.add({j: int(x * L) for j, x in enumerate(rows[0]) if x} or {0: 1})
    check_state(state)
