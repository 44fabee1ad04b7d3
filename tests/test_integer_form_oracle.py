"""Integer forms, the packed Jacobi kernel and the integer pencil solve.

Every tensor carries one integer form (den, {(i, j): {k: int}}), computed
once or handed over by the kernel that built the tensor.  The tests below
check, on generated inputs, that:

* the form stands for the `Fraction` table, up to a common factor of the
  clearing rule `exact._cleared`, for every producer: the constructor, `io`,
  `contract`, `tensor_combination` and `scale`;
* `__eq__`, which compares forms across their denominators, agrees with
  `Fraction` table equality;
* the packed `check_jacobi` gives the verdict and witness of the plain
  `Fraction` reference on skew tensors, also on tensors whose Jacobi sums
  reach the width of the packed fields, and refuses any other;
* `classify_operator` gives the tag, (a, b) and scalar of a `rank_exact`
  plus `solve_columns` reference, for every tag.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.exact import RatMatrix, _cleared, rank_exact, solve_columns
from liepencil.io import algebra_from_dict, algebra_to_dict
from liepencil.nijenhuis import torsion
from liepencil.tensors import (TAG_DERIVATION, TAG_NEAR, TAG_NOT_NEAR, TAG_QUASI,
                               TAG_SCALAR, StructureTensor, ad, check_jacobi,
                               classify_operator, derived, tensor_combination)

from helpers import inverse
from test_tensor_oracle import (ENTRIES, LIE, NON_LIE, assert_jacobi_matches_reference,
                                change_of_basis, fixed_lists, operators,
                                reference_check_jacobi, skew_table, standard, tensors,
                                transport)

# the example budget is the "liepencil" profile in conftest.py


def assert_form_matches(tensor):
    """The integer form is the cleared table times one positive factor, with
    the table's key order at both levels, and it reads back as the table."""
    den, ints = tensor.integer_form()
    table = tensor.table
    L, vecs = _cleared(table.values())
    assert den > 0 and den % L == 0
    factor = den // L
    assert list(ints) == list(table)
    for (ij, vec), cleared in zip(ints.items(), vecs):
        assert list(vec) == list(table[ij])
        assert vec == {k: factor * v for k, v in cleared.items()}
        assert {k: Fraction(v, den) for k, v in vec.items()} == table[ij]


def refresh(tensor):
    """The same table through the validating constructor, cleared to a new form."""
    return StructureTensor(tensor.dim, tensor.table, tensor.labels)


def skew_tensors():
    return tensors().filter(lambda t: t.is_skew())


@given(tensors(), st.data())
def test_integer_form_of_every_producer(tensor, data):
    op = data.draw(operators(tensor.dim), label="op")
    other = derived(tensor, op)
    c, d = data.draw(ENTRIES, label="c"), data.draw(ENTRIES, label="d")
    produced = [
        refresh(tensor),                                   # the constructor
        other,                                             # contract, three terms
        torsion(tensor, op),                               # contract, four terms
        tensor_combination([(c, tensor), (d, other)]),
        tensor_combination([(1, tensor), (-1, tensor)]),   # cancels to zero
        tensor.scale(c),
        tensor.scale(Fraction(1, 6)),
    ]
    for t in produced:
        assert_form_matches(t)


@given(skew_tensors())
def test_integer_form_after_io(tensor):
    doc = json.loads(json.dumps(algebra_to_dict(tensor)))
    loaded, _ = algebra_from_dict(doc)
    assert loaded.table == tensor.table
    assert_form_matches(loaded)


def with_form(tensor, factor):
    """The tensor again, handed a form that is not reduced: den and every
    entry times factor."""
    den, ints = refresh(tensor).integer_form()
    scaled = {ij: {k: factor * v for k, v in vec.items()} for ij, vec in ints.items()}
    return StructureTensor._of(tensor.dim, tensor.labels, (factor * den, scaled))


@given(tensors(), st.data())
def test_equality_matches_fraction_tables(tensor, data):
    c = data.draw(ENTRIES.filter(bool), label="c")
    other = derived(tensor, data.draw(operators(tensor.dim), label="op"))
    factor = data.draw(st.integers(2, 30), label="factor")
    candidates = [
        tensor, refresh(tensor), with_form(tensor, factor), other,
        with_form(other, factor), tensor.scale(c), tensor.scale(c).scale(1 / c),
        tensor_combination([(1, tensor), (1, other), (-1, other)]),
        tensor_combination([(1, tensor), (c, other)]),
    ]
    for a in candidates:
        for b in candidates:
            assert (a == b) is (a.table == b.table)


# Jacobi sums at the field width.  check_jacobi packs each vector into
# fields of w = bit_length(3 n B^2) bits, B the largest cleared entry.  On
# the skew table EDGE (n = 5, entries +-1, so w = 4) the first failing
# triple is (0, 1, 2), with Jacobi sum (0, 0, 0, 8, -1): its field 3 is
# 2^(w - 1), and with fields one bit narrower, 8 - 1 * 2^3 would pack to 0
# and move the witness to (0, 1, 3).
EDGE = {
    (0, 1): (0, -1, 1, 1, -1), (0, 2): (-1, -1, -1, -1, 0), (0, 3): (-1, 0, 1, 1, 1),
    (0, 4): (-1, 0, 1, -1, 0), (1, 2): (1, 0, 1, -1, 0), (1, 3): (-1, 1, -1, -1, 1),
    (1, 4): (1, 0, 0, -1, 1), (2, 3): (-1, 0, 1, -1, 0), (2, 4): (0, 1, -1, 1, 0),
    (3, 4): (-1, -1, -1, 1, 1),
}


def signed(signs):
    """EDGE on the basis s_k x_k: c_ij^k times s_i s_j s_k.  The Jacobi sum
    on (0, 1, 2) becomes s_0 s_1 s_2 s_r J_r, so with s_3 = s_4 it is
    +-(0, 0, 0, 8, -1), still at the field width."""
    return {(i, j): tuple(signs[i] * signs[j] * signs[k] * c for k, c in enumerate(vec))
            for (i, j), vec in EDGE.items()}


AT_THE_BOUND = [signed(signs) for signs in [(1, 1, 1, 1, 1), (-1, 1, 1, 1, 1),
                                            (1, 1, -1, 1, 1), (1, 1, 1, -1, -1)]]


def edge_tensor(entries, scale=1):
    return StructureTensor(5, skew_table(5, [(i, j, k, scale * Fraction(c))
                                             for (i, j), vec in entries.items()
                                             for k, c in enumerate(vec)]))


def jacobi_sum(tensor, i, j, k):
    """sum_cyc T(T(x_i, x_j), x_k) as a Fraction vector."""
    def e(a):
        return [Fraction(int(a == b)) for b in range(tensor.dim)]
    terms = [tensor.apply(tensor.apply(e(a), e(b)), e(c))
             for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
    return [sum(column) for column in zip(*terms)]


@pytest.mark.parametrize("entries", AT_THE_BOUND)
@pytest.mark.parametrize("scale", [Fraction(1), Fraction(-1), Fraction(1, 7),
                                   Fraction(-1, 12)])
def test_jacobi_sums_at_the_field_width(entries, scale):
    # a common scale +-1/q leaves the cleared entries, hence B and w, as they
    # are, and scales every Jacobi sum by scale^2
    tensor = edge_tensor(entries, scale)
    at_bound = [scale * scale * c for c in (0, 0, 0, 8, -1)]
    assert jacobi_sum(tensor, 0, 1, 2) in (at_bound, [-c for c in at_bound])
    assert reference_check_jacobi(tensor) == (False, (0, 1, 2))
    assert check_jacobi(tensor) == (False, (0, 1, 2))


@st.composite
def bound_tensors(draw):
    """Tensors of dim <= 4 (5 for the edge table) whose entries are 0 or
    +-B / q, so that many Jacobi sums are near 3 n B^2: skew tables, "full"
    skew tables with every upper entry B / q, the edge tables scaled by
    +-1 / q, and "plain" tables that are not skew, which check_jacobi
    refuses."""
    kind = draw(st.sampled_from(["skew", "plain", "full", "edge"]))
    q = draw(st.integers(1, 12))
    if kind == "edge":
        sign = draw(st.sampled_from([1, -1]))
        return edge_tensor(draw(st.sampled_from(AT_THE_BOUND)), Fraction(sign, q))
    dim = draw(st.integers(1, 4))
    B = draw(st.integers(1, 9))
    upper = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if kind == "full":
        return StructureTensor(dim, skew_table(dim, [(i, j, k, Fraction(B, q))
                                                     for i, j in upper for k in range(dim)]))
    value = st.sampled_from([Fraction(-B, q), Fraction(0), Fraction(B, q)])
    if kind == "skew":
        rows = draw(fixed_lists(fixed_lists(value, dim), len(upper)))
        return StructureTensor(dim, skew_table(dim, [
            (i, j, k, c) for (i, j), row in zip(upper, rows) for k, c in enumerate(row)]))
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    rows = draw(fixed_lists(fixed_lists(value, dim), len(pairs)))
    return StructureTensor(dim, {ij: dict(enumerate(row)) for ij, row in zip(pairs, rows)})


@given(st.one_of(tensors(), bound_tensors()))
def test_packed_jacobi_matches_reference(tensor):
    assert_jacobi_matches_reference(tensor)


def reference_classify(tensor, op):
    """(tag, a, b, scalar) from the rank and solve of the Fraction
    system, on coordinates in sorted (i, j, k) order."""
    t1 = derived(tensor, op)
    if t1.is_zero():
        return TAG_DERIVATION, None, None, None
    t2 = derived(t1, op)
    tables = [t.table for t in (tensor, t1, t2)]
    keys = sorted({(i, j, k) for table in tables for (i, j), vec in table.items() for k in vec})
    v0, v1, v2 = ([table.get((i, j), {}).get(k, 0) for (i, j, k) in keys] for table in tables)
    if rank_exact([v0, v1]) == 1:
        idx = next(i for i, c in enumerate(v0) if c)
        return TAG_SCALAR, None, None, v1[idx] / v0[idx]
    sol = solve_columns([v0, v1], v2)
    if sol is None:
        return TAG_NOT_NEAR, None, None, None
    a, b = sol
    return (TAG_QUASI if a == 0 and b == 0 else TAG_NEAR), a, b, None


def summary(act):
    return act.tag, act.a, act.b, act.scalar


def moved(tensor, op, P):
    """The tensor on the basis of P's columns, and op on that basis."""
    return transport(tensor, P), inverse(P) * op * P


SL2 = standard(LIE[0])          # x0 = e, x1 = h, x2 = f
HEISENBERG = standard(LIE[1])


def _diag(*entries):
    return RatMatrix.diagonal([Fraction(x) for x in entries])


def _ad(tensor, i):
    return ad(tensor, [Fraction(int(k == i)) for k in range(tensor.dim)])


# (tensor, operator, tag) with a known tag each: ad x is a derivation, c * I
# scales a bracket by -c, (ad e)^2 on sl2 is a quasi-derivation, the Z2
# grading (1, 0, 1) of sl2 is near with (a, b) = (0, -2) and stays near
# when shifted by the identity, and a generic operator leaves the pencil
KNOWN = [
    (SL2, _ad(SL2, 1), TAG_DERIVATION),
    (HEISENBERG, _diag(1, 1, 2), TAG_DERIVATION),
    (SL2, _diag(3, 3, 3), TAG_SCALAR),
    (standard(NON_LIE), _diag("-1/2", "-1/2", "-1/2"), TAG_SCALAR),
    (SL2, _ad(SL2, 0) * _ad(SL2, 0), TAG_QUASI),
    (SL2, _diag(1, 0, 1), TAG_NEAR),
    (SL2, _diag(1, 0, 1) + _diag(*["2/3"] * 3), TAG_NEAR),
    (SL2, RatMatrix([[Fraction(x) for x in row]
                     for row in ([1, 2, 0], [0, "1/2", -1], [3, 0, 1])]), TAG_NOT_NEAR),
]


@pytest.mark.parametrize("case", range(len(KNOWN)))
def test_pencil_solve_for_every_tag(case):
    tensor, op, tag = KNOWN[case]
    act = classify_operator(tensor, op)
    assert act.tag == tag
    assert summary(act) == reference_classify(tensor, op)


@given(st.sampled_from(KNOWN), st.data())
def test_pencil_solve_on_a_new_basis(case, data):
    # the tag does not depend on the basis
    tensor, op, tag = case
    tensor, op = moved(tensor, op, data.draw(change_of_basis(tensor.dim), label="P"))
    act = classify_operator(tensor, op)
    assert act.tag == tag
    assert summary(act) == reference_classify(tensor, op)


@given(tensors(), st.data())
def test_pencil_solve_matches_reference(tensor, data):
    op = data.draw(operators(tensor.dim), label="op")
    assert summary(classify_operator(tensor, op)) == reference_classify(tensor, op)
