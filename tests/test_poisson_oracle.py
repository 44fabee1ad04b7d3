"""The integer Poisson kernels against Fraction references.

The references below are the plain Fraction versions of `poisson_bracket`,
`centre_candidates` and the Jacobi gate of `from_tensor`.  The library
runs the same computations on integers over common denominators, so on
generated inputs (polynomials with mixed denominators and zero terms;
linear tables of Lie algebras moved to random rational bases, abelian
tables and non-Lie tables) the results must agree exactly:
equal term dicts, only `Fraction` coefficients, the same kernel-basis order
and the same verdicts.  Hypothesis is test-only; the library itself stays
stdlib-only.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.analysis import structure_matrix
from liepencil.exact import ZERO, RatMatrix, SparsePoly, generic_rank, kernel_basis
from liepencil.poisson import (PoissonStructure, centre_candidates, from_tensor,
                               poisson_bracket)
from liepencil.tensors import StructureTensor

from test_tensor_oracle import (ENTRIES, LIE, NON_LIE, change_of_basis, standard,
                                tensors, transport)

# the example budget is the "liepencil" profile in conftest.py


def reference_poisson_bracket(struct, f, g):
    """Leibniz sum in SparsePoly (Fraction) arithmetic."""
    n = struct.nvars
    df = [f.partial(i) for i in range(n)]
    dg = [g.partial(i) for i in range(n)]
    total = SparsePoly.zero(n)
    for (i, j), b in struct.table.items():
        piece = df[i] * dg[j] - df[j] * dg[i]
        if not piece.is_zero():
            total = total + b * piece
    return total


def reference_centre_candidates(struct, max_degree):
    """Centrality system from Fraction brackets of every monomial with every
    generator, solved as a RatMatrix."""
    n = struct.nvars
    out = []
    for d in range(1, max_degree + 1):
        monos = []
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in combo:
                e[i] += 1
            monos.append(tuple(e))
        mono_polys = [SparsePoly.monomial(n, m) for m in monos]
        brackets = [[reference_poisson_bracket(struct, mp, SparsePoly.variable(n, i))
                     for i in range(n)] for mp in mono_polys]
        result_monos = sorted({mm for row in brackets for p in row for mm in p.terms},
                              key=lambda t: (sum(t), t))
        if not result_monos:
            out.extend(mono_polys)
            continue
        rows = []
        for i in range(n):
            for rm in result_monos:
                rows.append([brackets[c][i].terms.get(rm, ZERO)
                             for c in range(len(monos))])
        for vec in kernel_basis(RatMatrix(rows)):
            out.append(SparsePoly(n, {m: c for m, c in zip(monos, vec) if c}))
    return out


def linear_table(tensor):
    """The Poisson structure of the upper triangle i < j, with no gate."""
    n = tensor.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = tensor.bracket(i, j)
            if vec:
                table[(i, j)] = SparsePoly.linear([vec.get(k, ZERO) for k in range(n)])
    return PoissonStructure(n, table)


def reference_jacobi_verdict(tensor):
    """Jacobi on generator triples of the linear table, by Fraction brackets."""
    struct = linear_table(tensor)
    n = struct.nvars
    x = [SparsePoly.variable(n, i) for i in range(n)]

    def br(f, g):
        return reference_poisson_bracket(struct, f, g)

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = (br(br(x[i], x[j]), x[k]) + br(br(x[j], x[k]), x[i])
                     + br(br(x[k], x[i]), x[j]))
                if not s.is_zero():
                    return False
    return True


@st.composite
def polys(draw, n, max_exp=2, max_terms=5):
    """A polynomial in n variables with mixed denominators; some drawn
    coefficients are zero, so the term dict drops them."""
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return SparsePoly(n, draw(st.dictionaries(exps, ENTRIES, max_size=max_terms)))


# the Heisenberg algebra with its centre in the middle, [x0, x2] = x1: x0
# commutes with x0 and x1 but not with x2, so the last generator's equations
# are not implied by the others (they are for any algebra that n - 1 of its
# basis vectors generate, such as a Lie algebra on a generic basis)
HEISENBERG_MIDDLE = (3, [(0, 2, 1, 1)])


@st.composite
def linear_tensors(draw):
    """A Lie algebra or the non-Lie tensor moved to a random basis, or an
    abelian tensor of dim 1..4."""
    kind = draw(st.sampled_from(["lie", "non-lie", "abelian"]))
    if kind == "abelian":
        return StructureTensor.zero(draw(st.integers(1, 4)))
    base = standard(draw(st.sampled_from(LIE + [HEISENBERG_MIDDLE]))
                    if kind == "lie" else NON_LIE)
    return transport(base, draw(change_of_basis(base.dim)))


@st.composite
def lower_junk(draw):
    """A linear tensor whose diagonal and lower triangle are partly replaced
    by arbitrary entries; the Poisson table reads only the upper triangle."""
    base = draw(linear_tensors())
    n = base.dim
    table = {(i, j): vec for (i, j), vec in base.table.items() if i < j}
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    for ij in draw(st.lists(st.sampled_from(lower), unique=True, min_size=1, max_size=3)):
        table[ij] = draw(st.dictionaries(st.integers(0, n - 1), ENTRIES,
                                         min_size=1, max_size=2))
    return StructureTensor(n, table)


@st.composite
def structures(draw):
    """A linear table of a linear tensor, or a table of arbitrary
    polynomials (the bracket does not need Jacobi)."""
    if draw(st.booleans()):
        return linear_table(draw(linear_tensors()))
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PoissonStructure(n, {ij: draw(polys(n)) for ij in chosen})


def term_layout(p):
    return p.nvars, list(p.terms.items())


def only_fractions(p):
    return all(type(c) is Fraction for c in p.terms.values())


@given(structures(), st.data())
def test_poisson_bracket_matches_reference(struct, data):
    n = struct.nvars
    f = data.draw(polys(n), label="f")
    g = data.draw(polys(n), label="g")
    got = poisson_bracket(struct, f, g)
    # term order is not compared: a term that cancels partway through the
    # Leibniz sum may come back in another place, and io and format sort
    assert got.terms == reference_poisson_bracket(struct, f, g).terms
    assert got.nvars == n and only_fractions(got)


def check_centre_candidates(tensor, degree):
    struct = linear_table(tensor)
    got = centre_candidates(struct, degree)
    assert ([term_layout(p) for p in got]
            == [term_layout(p) for p in reference_centre_candidates(struct, degree)])
    assert all(only_fractions(p) for p in got)


@given(linear_tensors(), st.data())
def test_centre_candidates_matches_reference(tensor, data):
    check_centre_candidates(tensor, data.draw(
        st.integers(1, 3 if tensor.dim <= 4 else 2), label="degree"))


@pytest.mark.parametrize("algebra", LIE + [HEISENBERG_MIDDLE, NON_LIE])
def test_centre_candidates_on_standard_bases(algebra):
    check_centre_candidates(standard(algebra), 3 if algebra[0] <= 4 else 2)


@given(st.sampled_from(LIE), st.data())
def test_generic_rank_on_moved_structure_matrices(algebra, data):
    base = standard(algebra)
    moved = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    # the generic rank of the bracket form does not depend on the basis
    assert generic_rank(structure_matrix(moved)) == generic_rank(structure_matrix(base))


@given(st.one_of(tensors(), linear_tensors(), lower_junk()))
def test_from_tensor_gate_matches_reference(tensor):
    verdict = reference_jacobi_verdict(tensor)
    if not verdict:
        with pytest.raises(ValueError):
            from_tensor(tensor)
        return
    struct = from_tensor(tensor)
    assert struct.jacobi_verified
    assert struct.table == linear_table(tensor).table
