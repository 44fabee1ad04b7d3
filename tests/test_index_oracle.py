"""Both index modes against their references.

The exact index is `generic_rank`: the rank at one integer point, proved
generic by Pfaffians.  Its oracle is `helpers.bareiss_rank`, Bareiss
elimination on integer polynomials with packed monomials, and the oracle's
own reference below is the plain Fraction version it replaced: Bareiss over
`SparsePoly` with `exact_div`.  The probabilistic `lie_index` evaluates the
structure matrix on integers, against `eval_at` at a Fraction point.  On
generated inputs (polynomial matrices of any shape with zero rows, mixed
denominators and entries up to degree 4 in one variable for the oracle;
skew matrices of linear forms, from Lie algebras moved to rational bases,
for `generic_rank`) the results must agree exactly.  The matrices are
`SparsePoly` matrices (`helpers.structure_matrix` for a tensor's bracket
form), and `generic_rank` reads each as integer linear forms
(`helpers.linear_forms`).  Hypothesis is test-only; the library itself
stays stdlib-only.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil import analysis
from liepencil.analysis import lie_centre, lie_index
from liepencil.constructions import (build_classical, nilpotent_square, sl2_complete,
                                     tensor_from_matrix_basis, unit_matrix)
from liepencil.io import algebra_from_dict
from liepencil.exact import SparsePoly, generic_rank, rank_exact

from helpers import (bareiss_rank, eval_at, linear_forms, packing, packing_guard, pdiv,
                     structure_matrix, terms, variable)
from test_cli_golden import FILES
from test_tensor_oracle import (LIE, NONZERO, change_of_basis, fixed_lists, standard,
                                transport)

# the example budget is the "liepencil" profile in conftest.py


def reference_generic_rank(mat):
    """Fraction-free Bareiss over SparsePoly entries, fewest-terms pivots."""
    M = [list(row) for row in mat]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    rank = 0
    prev = None
    for c in range(ncols):
        best = None
        for i in range(rank, nrows):
            if not M[i][c].is_zero():
                if best is None or len(terms(M[i][c])) < len(terms(M[best][c])):
                    best = i
        if best is None:
            continue
        M[rank], M[best] = M[best], M[rank]
        piv = M[rank][c]
        for i in range(rank + 1, nrows):
            e = M[i][c]
            for j in range(c + 1, ncols):
                num = piv * M[i][j] - e * M[rank][j]
                M[i][j] = num if prev is None else num.exact_div(prev)
            M[i][c] = SparsePoly.zero(piv.nvars)
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_prob_index(tensor, samples, seed):
    """(rank, index): the best rank of the structure matrix evaluated with
    `eval_at` at Fraction points drawn as `lie_index` draws them."""
    n = tensor.dim
    rng = random.Random(seed)
    mat = structure_matrix(tensor)
    best = 0
    for _ in range(samples):
        point = [Fraction(rng.randint(-analysis.SAMPLE_BOUND, analysis.SAMPLE_BOUND))
                 for _ in range(n)]
        rows = [[eval_at(entry, point) for entry in row] for row in mat]
        r = rank_exact(rows)
        if r > best:
            best = r
            if best == n:
                break
    return best, n - best


@st.composite
def polynomials(draw, nvars, heavy):
    """Zero, or up to three terms with mixed denominators; the heavy
    variable takes exponents up to 4, the others up to 1."""
    if draw(st.integers(0, 3)) == 0:
        return SparsePoly.zero(nvars)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.integers(0, 4 if v == heavy else 1)) for v in range(nvars))
        terms[exps] = draw(NONZERO)
    return SparsePoly(nvars, terms)


@st.composite
def poly_matrices(draw):
    """Matrices up to 4 x 4 of any shape, some rows zero, and sometimes a
    last row that is a polynomial combination of the first two."""
    nvars = draw(st.integers(1, 3))
    heavy = draw(st.integers(0, nvars - 1))
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    entries = polynomials(nvars, heavy)
    zero = SparsePoly.zero(nvars)
    rows = []
    for _ in range(nrows):
        if draw(st.integers(0, 4)) == 0:
            rows.append([zero] * ncols)
        else:
            rows.append(draw(fixed_lists(entries, ncols)))
    if nrows >= 3 and draw(st.booleans()):
        p, q = draw(entries), draw(entries)
        rows[-1] = [p * a + q * b for a, b in zip(rows[0], rows[1])]
    return rows


@given(poly_matrices())
def test_generic_rank_matches_reference(mat):
    assert bareiss_rank(mat) == reference_generic_rank(mat)


def test_generic_rank_small_shapes():
    x = variable(1, 0)
    assert bareiss_rank([]) == reference_generic_rank([]) == 0
    assert bareiss_rank([[]]) == reference_generic_rank([[]]) == 0
    assert bareiss_rank([[SparsePoly.zero(1)]]) == 0
    assert bareiss_rank([[x * Fraction(2, 3)]]) == 1


def test_generic_rank_fills_the_field_width():
    # every entry has degree 4 in one variable and two terms, and the
    # leading coefficients are generic, so the products of the second step
    # reach total degree 16: the top value that fields sized for
    # 2 * 3 * 4 = 24 hold below their spare bit
    x = variable(1, 0)
    one = SparsePoly.const(1, 1)
    q = x ** 4
    mat = [[q + one, q * 2 + x, q - x ** 2],
           [q * 3 + x ** 3, q + one * 2, q * 5 + x],
           [q + x, q * 7 - one, q * 2 + x ** 2 * Fraction(3, 4)]]
    assert bareiss_rank(mat) == reference_generic_rank(mat) == 3


def borel(n):
    """The Borel subalgebra of sl_n: E_ij for i < j and E_ii - E_i+1,i+1."""
    mats = [unit_matrix(n, i, j) for i in range(n) for j in range(i + 1, n)]
    mats += [unit_matrix(n, i, i) - unit_matrix(n, i + 1, i + 1) for i in range(n - 1)]
    return tensor_from_matrix_basis(mats, ["b%d" % k for k in range(len(mats))])


def derived_bracket(n, partition):
    triple = sl2_complete("sl", n, partition)
    return nilpotent_square(triple.tensor, triple.e)[1].derived


ORACLE_CASES = {
    "sl3": lambda: build_classical("sl", 3),
    "sp4": lambda: build_classical("sp", 4),
    "so5": lambda: build_classical("so", 5),
    "gl3": lambda: build_classical("gl", 3),
    "so4": lambda: build_classical("so", 4),
    "sl2-rational": lambda: algebra_from_dict(FILES["sl2-rational.json"])[0],
    "borel-sl3": lambda: borel(3),
    "borel-sl4": lambda: borel(4),
    "derived-sl4": lambda: derived_bracket(4, (2, 2)),
    "derived-sl5": lambda: derived_bracket(5, (2, 2, 1)),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_generic_rank_matches_the_bareiss_oracle(name):
    mat = structure_matrix(ORACLE_CASES[name]())
    assert generic_rank(linear_forms(mat)) == bareiss_rank(mat)


@given(st.sampled_from(LIE), st.data())
def test_generic_rank_from_any_start_point(algebra, data):
    # a start point in {-1, 0, 1}^n can have a rank below the generic one,
    # and the point 0 always has rank 0, so the Pfaffian check has to grow
    # the pivot set
    base = standard(algebra)
    mat = structure_matrix(transport(base, data.draw(change_of_basis(base.dim), label="P")))
    point = data.draw(fixed_lists(st.sampled_from([-1, 0, 1]), base.dim), label="point")
    forms = linear_forms(mat)
    assert generic_rank(forms, point) == generic_rank(forms, [0] * base.dim) == bareiss_rank(mat)


@st.composite
def skew_linear_matrices(draw):
    """Skew matrices up to 6 x 6 of linear forms in 1-3 variables, most
    entries zero, with mixed denominators: no Lie bracket is asked of them."""
    n = draw(st.integers(0, 6))
    nvars = draw(st.integers(1, 3))
    zero = SparsePoly.zero(nvars)
    mat = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)) == 0:
                coeffs = draw(fixed_lists(st.sampled_from([0, 0, 1, -1, Fraction(2, 3)]), nvars))
                form = SparsePoly(nvars, {tuple(int(v == k) for v in range(nvars)): c
                                          for k, c in enumerate(coeffs) if c})
                mat[i][j], mat[j][i] = form, -form
    return mat, draw(fixed_lists(st.sampled_from([-1, 0, 1]), nvars))


@given(skew_linear_matrices())
def test_generic_rank_of_skew_linear_matrices(case):
    mat, point = case
    forms = linear_forms(mat)
    assert generic_rank(forms, point) == generic_rank(forms) == bareiss_rank(mat)


def test_generic_rank_from_the_zero_point():
    # every entry vanishes at 0, so the point rank is 0 and each pair of
    # pivots comes from a nonzero Pfaffian: three rounds on sl3
    mat = structure_matrix(build_classical("sl", 3))
    assert generic_rank(linear_forms(mat), [0] * 8) == bareiss_rank(mat) == 6


def test_generic_rank_refuses_what_it_cannot_check():
    # x0 and x1 as integer linear forms
    x, y = {0: 1}, {1: 1}
    with pytest.raises(ValueError, match="skew"):
        generic_rank([[x, y], [y, {0: -1}]])
    with pytest.raises(ValueError, match="skew"):
        generic_rank([[{}, x], [x, {}]])
    with pytest.raises(ValueError, match="square"):
        generic_rank([[{}, x]])


def test_exact_index_leaves_no_pfaffian_memo_behind():
    # with the cycle collector off, only reference counts free what the
    # call made: the Pfaffian memo (about 1.1 MB on sl4) must go with it
    sl4 = build_classical("sl", 4)
    lie_index(sl4, mode="exact", max_exact_dim=16)    # warm every lazy cache
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert lie_index(sl4, mode="exact", max_exact_dim=16).index == 3
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert left < 100_000


@given(st.sampled_from(LIE), st.data())
def test_prob_index_matches_reference(algebra, data):
    base = standard(algebra)
    tensor = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    samples = data.draw(st.integers(1, 3), label="samples")
    # a small sample box makes the rank at a point fall below the generic
    # rank often, so the two sides agree only if they draw the same points
    bound = data.draw(st.sampled_from([1, 2, analysis.SAMPLE_BOUND]), label="bound")
    saved = analysis.SAMPLE_BOUND
    analysis.SAMPLE_BOUND = bound
    try:
        want = reference_prob_index(tensor, samples, seed)
        rep = lie_index(tensor, mode="prob", samples=samples, seed=seed)
    finally:
        analysis.SAMPLE_BOUND = saved
    assert (rep.rank, rep.index) == want


def assert_index_bounds(tensor, seed):
    """dim z <= index <= index_prob: each centre vector is a constant kernel
    vector of the structure matrix, and the rank at a point is at most the
    generic rank."""
    exact = lie_index(tensor, "exact", max_exact_dim=tensor.dim).index
    assert len(lie_centre(tensor)) <= exact <= lie_index(tensor, "prob", seed=seed).index


@given(st.sampled_from(LIE), st.data())
def test_centre_and_prob_index_bound_the_exact_index(algebra, data):
    base = standard(algebra)
    tensor = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    # a small sample box lets the probabilistic index overshoot
    bound = data.draw(st.sampled_from([1, analysis.SAMPLE_BOUND]), label="bound")
    saved = analysis.SAMPLE_BOUND
    analysis.SAMPLE_BOUND = bound
    try:
        assert_index_bounds(tensor, seed)
    finally:
        analysis.SAMPLE_BOUND = saved


@pytest.mark.parametrize("n, partition", [(2, (2,)), (3, (2, 1)), (4, (2, 2)), (5, (2, 2, 1))],
                         ids=["sl2", "sl3", "sl4", "sl5"])
def test_centre_and_prob_index_bound_the_exact_index_of_derived_brackets(n, partition):
    triple = sl2_complete("sl", n, partition)
    derived = nilpotent_square(triple.tensor, triple.e)[1].derived
    for seed in range(3):
        assert_index_bounds(derived, seed)


def test_exact_index_of_so5_and_sp4_agree():
    # so5 and sp4 are isomorphic (B2 = C2) of rank 2
    so5 = lie_index(build_classical("so", 5), mode="exact")
    sp4 = lie_index(build_classical("sp", 4), mode="exact")
    assert (so5.dim, so5.index) == (sp4.dim, sp4.index) == (10, 2)


def test_packed_quotient_raises_when_inexact():
    pack, guard = packing(2, 4), packing_guard(2, 4)
    x, y, one = pack((1, 0)), pack((0, 1)), pack((0, 0))
    # (x^2 - y^2) / (x + y) = x - y
    assert (pdiv({pack((2, 0)): 1, pack((0, 2)): -1}, {x: 1, y: 1}, guard)
            == {x: 1, y: -1})
    with pytest.raises(ArithmeticError):
        pdiv({x: 1}, {y: 1}, guard)            # x / y: exponent of y below 0
    with pytest.raises(ArithmeticError):
        pdiv({x: 1, one: 1}, {y: 1}, guard)    # same degree, x still ahead
    with pytest.raises(ArithmeticError):
        pdiv({x: 2}, {x: 3}, guard)            # 2x / 3x leaves Z[x]
    with pytest.raises(ArithmeticError):
        pdiv({pack((2, 0)): 1, one: 1}, {x: 1}, guard)   # (x^2 + 1) / x
