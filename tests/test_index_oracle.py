"""Both index modes against their Fraction references.

`generic_rank` runs Bareiss elimination on integer polynomials with packed
monomials, and the probabilistic `lie_index` evaluates the structure matrix
on integers.  The references below are the plain Fraction versions they
replaced: Bareiss over `SparsePoly` with `exact_div`, and `eval_at` at a
Fraction point.  On generated inputs (polynomial matrices of any shape with
zero rows, mixed denominators and entries up to degree 4 in one variable;
Lie algebras moved to rational bases) the results must agree exactly.
Hypothesis is test-only; the library itself stays stdlib-only.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil import analysis
from liepencil.analysis import lie_index, structure_matrix
from liepencil.constructions import build_classical
from liepencil.exact import SparsePoly, _packing, _pdiv, generic_rank, rank_exact

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
                if best is None or len(M[i][c].terms) < len(M[best][c].terms):
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
        rows = [[entry.eval_at(point) for entry in row] for row in mat]
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
    assert generic_rank(mat) == reference_generic_rank(mat)


def test_generic_rank_small_shapes():
    x = SparsePoly.variable(1, 0)
    assert generic_rank([]) == reference_generic_rank([]) == 0
    assert generic_rank([[]]) == reference_generic_rank([[]]) == 0
    assert generic_rank([[SparsePoly.zero(1)]]) == 0
    assert generic_rank([[x * Fraction(2, 3)]]) == 1


def test_generic_rank_fills_the_field_width():
    # every entry has degree 4 in one variable and two terms, and the
    # leading coefficients are generic, so the products of the second step
    # reach total degree 16: the top value that fields sized for
    # 2 * 3 * 4 = 24 hold below their spare bit
    x = SparsePoly.variable(1, 0)
    one = SparsePoly.const(1, 1)
    q = x ** 4
    mat = [[q + one, q * 2 + x, q - x ** 2],
           [q * 3 + x ** 3, q + one * 2, q * 5 + x],
           [q + x, q * 7 - one, q * 2 + x ** 2 * Fraction(3, 4)]]
    assert generic_rank(mat) == reference_generic_rank(mat) == 3


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


def test_exact_index_of_so5_and_sp4_agree():
    # so5 and sp4 are isomorphic (B2 = C2) of rank 2
    so5 = lie_index(build_classical("so", 5), mode="exact")
    sp4 = lie_index(build_classical("sp", 4), mode="exact")
    assert (so5.dim, so5.index) == (sp4.dim, sp4.index) == (10, 2)


def test_packed_quotient_raises_when_inexact():
    pack, guard = _packing(2, 4)
    x, y, one = pack((1, 0)), pack((0, 1)), pack((0, 0))
    # (x^2 - y^2) / (x + y) = x - y
    assert (_pdiv({pack((2, 0)): 1, pack((0, 2)): -1}, {x: 1, y: 1}, guard)
            == {x: 1, y: -1})
    with pytest.raises(ArithmeticError):
        _pdiv({x: 1}, {y: 1}, guard)            # x / y: exponent of y below 0
    with pytest.raises(ArithmeticError):
        _pdiv({x: 1, one: 1}, {y: 1}, guard)    # same degree, x still ahead
    with pytest.raises(ArithmeticError):
        _pdiv({x: 2}, {x: 3}, guard)            # 2x / 3x leaves Z[x]
    with pytest.raises(ArithmeticError):
        _pdiv({pack((2, 0)): 1, one: 1}, {x: 1}, guard)   # (x^2 + 1) / x
