"""The packed kernel's slot sums against the Fraction references.

`_contraction` sums each operator slot, sum_k E_ki psi_kj, over the smaller
of {k : E_ki != 0} and {k : psi_kj != 0}, and on a skew psi one table of
such sums serves both slots, psi(x_i, E x_j) = -left_ji.  Each shape that
picks a side is checked here against `reference_classify` and
`reference_contract` (dense `Fraction` loops over every ordered pair):

* a sparse T with a dense E, the benchmark's classify-dense shape (the
  classical algebras on their standard bases with a conjugated grading
  operator or a seeded dense one), where the table side is the shorter;
* a dense T (a Lie algebra moved to a random basis) with at most one
  nonzero entry in each column of E, the nilpotent squares' shape, where
  the operator side is;
* a T that is not skew, where every pair is computed and no slot is read
  as the mirror of the other;
* a `not-near` operator whose only failing pair is the last one the check
  pass reaches, skew and not.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.constructions import build_classical
from liepencil.exact import RatMatrix
from liepencil.tensors import StructureTensor, contract

from test_contract_oracle import reference_contract
from test_lazy_table import conjugated_grading
from test_tensor_oracle import (LIE, NONZERO, change_of_basis, check_classify, operators,
                                reference_classify, reference_derived, standard, tensors,
                                transport)

# the example budget is the "liepencil" profile in conftest.py


def rho_terms(op):
    """The terms of rho(D).T = D T - T(D., .) - T(., D.), for `contract`."""
    return [(1, op, None, None), (-1, None, op, None), (-1, None, None, op)]


def check_both(tensor, op):
    """classify_operator and contract's rho(D).T agree with the references."""
    check_classify(tensor, op)
    assert contract(tensor, rho_terms(op)) == reference_contract(tensor, rho_terms(op))


def column_supports(tensor):
    """{j: the k with T(x_k, x_j) != 0}: the lines a left slot sum reads."""
    found = {}
    for k, j in tensor.integer_form()[1]:
        found.setdefault(j, set()).add(k)
    return found


def seeded_dense(n, seed):
    rng = random.Random(seed)
    return RatMatrix([[Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                       for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("family, n, seed", [("sl", 3, 1), ("gl", 3, 2), ("sp", 4, 3)])
def test_sparse_tensor_with_a_dense_operator(family, n, seed):
    # every column of D is full and every column of T is shorter, so the
    # sums run over T's side; a seeded D is not near, so the check pass
    # stops early
    tensor = build_classical(family, n)
    op = seeded_dense(tensor.dim, seed)
    assert all(len(ks) < tensor.dim for ks in column_supports(tensor).values())
    assert all(all(row) for row in op.ints)
    check_both(tensor, op)


@pytest.mark.parametrize("family", ["sl", "gl"])
def test_sparse_tensor_with_a_conjugated_grading(family):
    # the classify-dense operators on sl3 and gl3: near, every pair checked
    tensor = build_classical(family, 3)
    op = conjugated_grading(tensor, [1, -1, 1, 1, -1, -1])
    assert sum(map(bool, op.ints[0])) > 1 and op.den > 1
    check_both(tensor, op)


def test_benchmark_shape_on_sl4():
    # one of the benchmark's own operators: sl4, near with (a, b) = (0, -4)
    tensor = build_classical("sl", 4)
    op = conjugated_grading(tensor, [1, -1, -1, 1, 1, -1, 1, 1, -1, -1, 1, -1])
    act = check_classify(tensor, op)
    assert (act.tag, act.a, act.b) == ("near", 0, -4)


@st.composite
def one_per_column(draw, n):
    """Operators with at most one nonzero entry in each column."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][j] = draw(NONZERO)
    return RatMatrix(rows)


@given(st.sampled_from(LIE), st.data())
def test_dense_tensor_with_one_entry_per_column(algebra, data):
    # a Lie algebra moved to a random basis has full lines, so the sums run
    # over the operator's one entry
    base = standard(algebra)
    tensor = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    check_both(tensor, data.draw(one_per_column(tensor.dim), label="op"))


def dense_plain(n, seed):
    """A tensor that is not skew with every vector full."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3))
    return StructureTensor(n, {(i, j): {k: entry() for k in range(n)}
                               for i in range(n) for j in range(n)})


@pytest.mark.parametrize("seed", [1, 2])
def test_tensor_that_is_not_skew(seed):
    # every pair is computed: a right slot read as the negated mirror of
    # a left one would be wrong on every off-diagonal pair
    tensor = dense_plain(4, seed)
    assert not tensor.is_skew()
    for op in (seeded_dense(4, seed), RatMatrix.diagonal([1, 2, 0, -1])):
        check_both(tensor, op)


@given(tensors().filter(lambda t: not t.is_skew()), st.data())
def test_generated_tensors_that_are_not_skew(tensor, data):
    check_both(tensor, data.draw(operators(tensor.dim), label="op"))


def failing_pairs(tensor, op, a, b):
    """The pairs where T'' = a T + b T' fails, by reference_derived."""
    t1 = reference_derived(tensor, op)
    t0, t1, t2 = tensor.table, t1.table, reference_derived(t1, op).table
    return sorted(ij for ij in set(t0) | set(t1) | set(t2)
                  if any(t2.get(ij, {}).get(k, 0) != a * t0.get(ij, {}).get(k, 0)
                         + b * t1.get(ij, {}).get(k, 0) for k in range(tensor.dim)))


# D = diag(0, 1, 2, 5) puts T(x_i, x_j) = x_0 at level -d_i - d_j: -1 on
# (0, 1) and -2 on (0, 2) fit (a, b) = (-2, -3), the roots of t^2 + 3t + 2;
# the last pair, (2, 3) for the skew T and (3, 3) for the plain one, sits
# at level -7 or -10 and fails alone
LAST_PAIR = [
    (StructureTensor(4, {(0, 1): {0: 1}, (1, 0): {0: -1}, (0, 2): {0: 1}, (2, 0): {0: -1},
                         (2, 3): {0: 1}, (3, 2): {0: -1}}), [(2, 3), (3, 2)]),
    (StructureTensor(4, {(0, 1): {0: 1}, (0, 2): {0: 1}, (3, 3): {0: 1}}), [(3, 3)]),
]


@pytest.mark.parametrize("tensor, fails", LAST_PAIR)
def test_not_near_fails_at_the_last_pair_only(tensor, fails):
    op = RatMatrix.diagonal([0, 1, 2, 5])
    assert failing_pairs(tensor, op, -2, -3) == fails
    assert reference_classify(tensor, op)[0][0] == "not-near"
    check_both(tensor, op)
    # the same pencil without its last pair is near
    kept = {ij: vec for ij, vec in tensor.table.items() if ij not in fails}
    act = check_classify(StructureTensor(4, kept), op)
    assert (act.tag, act.a, act.b) == ("near", -2, -3)
