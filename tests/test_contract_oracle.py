"""The integer contraction kernel `contract` against dense Fraction references.

`contract` evaluates sum_t c_t * O_t psi(A_t x_i, B_t x_j) on integers and,
for a skew psi and a term list unchanged by swapping A and B, computes only
the pairs i < j.  The references below evaluate every ordered basis pair
densely in `Fraction`: the torsion expansion of tests/test_nijenhuis.py, the
conjugation O psi(A., A.) and the right side of the nilpotent exponential
identity as they were written before the kernel existed, and a generic
term-list evaluator.  Generated tensors and operators are those of
tests/test_tensor_oracle.py (skew and not, mixed denominators, zero entries,
Lie and forced non-Lie).
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.exact import RatMatrix
from liepencil.nijenhuis import torsion, torsion_decomposition
from liepencil.tensors import StructureTensor, contract

from helpers import col, columns
from test_nijenhuis import expanded_torsion
from test_tensor_oracle import ENTRIES, operators, tensors

# the example budget is the "liepencil" profile in conftest.py


def _dense_table(n, entry):
    table = {}
    for i in range(n):
        for j in range(n):
            vec = {k: c for k, c in enumerate(entry(i, j)) if c}
            if vec:
                table[(i, j)] = vec
    return table


def reference_conjugated(tensor, outer, inner):
    """outer . T(inner x, inner y) on every ordered basis pair."""
    cols = columns(inner)
    return StructureTensor(tensor.dim, _dense_table(
        tensor.dim, lambda i, j: outer.apply(tensor.apply(cols[i], cols[j]))))


def reference_exp_rhs(tensor, E):
    """T(E x, y) + T(x, E y) - E T(x, y) on every ordered basis pair."""
    n = tensor.dim
    cols = columns(E)
    unit = columns(RatMatrix.identity(n))

    def entry(i, j):
        return [a + b - c for a, b, c in zip(tensor.apply(cols[i], unit[j]),
                                            tensor.apply(unit[i], cols[j]),
                                            E.apply(tensor.apply(unit[i], unit[j])))]

    return StructureTensor(n, _dense_table(n, entry))


def reference_contract(tensor, terms):
    """sum_t c_t * O_t T(A_t x, B_t y) on every ordered basis pair."""
    n = tensor.dim
    unit = RatMatrix.identity(n)

    def entry(i, j):
        total = [Fraction(0)] * n
        for c, O, A, B in terms:
            A, B, O = A or unit, B or unit, O or unit
            vec = O.apply(tensor.apply(col(A, i), col(B, j)))
            total = [t + c * v for t, v in zip(total, vec)]
        return total

    return StructureTensor(n, _dense_table(n, entry))


def fractions_only(tensor):
    return all(type(c) is Fraction for vec in tensor.table.values() for c in vec.values())


@given(tensors(), st.data())
def test_torsion_matches_expansion(tensor, data):
    op = data.draw(operators(tensor.dim), label="op")
    got = torsion(tensor, op)
    assert got == expanded_torsion(tensor, op)
    assert fractions_only(got)


@given(tensors(), st.data())
def test_torsion_decomposition_holds(tensor, data):
    # rho(N)^2 psi = 2 tau_N - rho(N^2) psi for every bilinear psi, Lie or not
    op = data.draw(operators(tensor.dim), label="op")
    assert torsion_decomposition(tensor, op).ok


@given(tensors(), st.data())
def test_conjugation_matches_reference(tensor, data):
    outer = data.draw(operators(tensor.dim), label="outer")
    inner = data.draw(operators(tensor.dim), label="inner")
    got = contract(tensor, [(1, outer, inner, inner)])
    assert got == reference_conjugated(tensor, outer, inner)
    assert fractions_only(got)


@given(tensors(), st.data())
def test_exp_rhs_matches_reference(tensor, data):
    E = data.draw(operators(tensor.dim), label="E")
    got = contract(tensor, [(1, None, E, None), (1, None, None, E), (-1, E, None, None)])
    assert got == reference_exp_rhs(tensor, E)


@given(tensors().filter(StructureTensor.is_skew), st.data())
def test_term_list_not_swap_closed_keeps_every_pair(tensor, data):
    # D psi(D x, y) is not skew in general although psi is: no mirroring
    op = data.draw(operators(tensor.dim), label="op")
    assert contract(tensor, [(1, op, op, None)]) == reference_contract(tensor, [(1, op, op, None)])


def term_lists(n):
    maybe_op = st.one_of(st.none(), operators(n))
    return st.lists(st.tuples(ENTRIES, maybe_op, maybe_op, maybe_op), min_size=1, max_size=3)


@given(tensors(), st.data())
def test_term_lists_match_reference(tensor, data):
    terms = data.draw(term_lists(tensor.dim), label="terms")
    got = contract(tensor, terms)
    assert got == reference_contract(tensor, terms)
    assert fractions_only(got)
