"""A tensor's `.table` is a view, built from its integer form on each read.

`contract` (hence `derived` and `torsion`), `tensor_combination` and `scale`
hand back a tensor that holds only its integer form (den, ints), and `io`
loads one the same way.  Each read of `.table` builds
{ij: {k: Fraction(v, den)}} from that form.  The tests below count table
reads by replacing the property for the length of a block, and check, on
generated inputs, that:

* the table is the dict the kernels used to build eagerly from their
  reduced form: the same key order at both levels and `Fraction` entries;
  each read is a new dict, so writing into one leaves the tensor as it was;
* that table equals a `Fraction` reference for every producer;
* the kernels read no table of their inputs or of their results;
* `classify_operator` plus `normalize_pencil` on the dense sl3 operator of
  the golden fixtures, with sl3 loaded from its file, never reads the table
  of the loaded algebra or of T', and names the degenerate lines by their
  (alpha, beta);
* on dense conjugated Z4-grading operators of gl4 and sl4 the packed pass
  gives the known answers without ever running `derived` for T'' or
  reading T''s table, and T'' built from the proved (a, b) as a T + b T',
  with no `contract`, has the table of derived(T', D), key order included.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import liepencil.tensors as kernels
from liepencil.constructions import build_classical
from liepencil.exact import ZERO, RatMatrix, nilpotent_exp
from liepencil.io import algebra_from_dict, algebra_to_dict, operator_from_dict
from liepencil.nijenhuis import torsion
from liepencil.tensors import (MODE_SEMISIMPLE, TAG_NEAR, StructureTensor, ad,
                               classify_operator, derived, normalize_pencil,
                               tensor_combination)

from test_cli_golden import FILES
from test_contract_oracle import reference_contract
from test_tensor_oracle import ENTRIES, operators, reference_derived, tensors

# the example budget is the "liepencil" profile in conftest.py


@contextmanager
def table_reads():
    """The list of every tensor whose `.table` is read inside the block."""
    reads = []
    view = StructureTensor.table.fget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StructureTensor, "table",
                      property(lambda t: reads.append(t) or view(t)))
        yield reads


def read_among(reads, tensors):
    """The names of the tensors ({name: tensor}) that are in reads."""
    return [name for name, t in tensors.items() if any(r is t for r in reads)]


def layout(table):
    """The table with its key order at both levels made visible."""
    return [(ij, list(vec.items())) for ij, vec in table.items()]


def eager_table(form):
    """The `Fraction` table of a reduced integer form, built eagerly."""
    den, ints = form
    return {ij: {k: Fraction(v, den) for k, v in vec.items()} for ij, vec in ints.items()}


def reference_combination(pairs):
    """sum_t c_t * T_t accumulated in `Fraction`, in pair order."""
    acc = {}
    for c, t in pairs:
        for ij, vec in t.table.items():
            slot = acc.setdefault(ij, {})
            for k, v in vec.items():
                s = slot.get(k, 0) + Fraction(c) * v
                if s:
                    slot[k] = s
                else:
                    slot.pop(k, None)
    return {ij: vec for ij, vec in acc.items() if vec}


def check_table(tensor, reference):
    """tensor's table equals reference, with the key order and the
    `Fraction` entries of its form's eager table."""
    table = tensor.table
    assert layout(table) == layout(eager_table(tensor.integer_form()))
    assert all(type(c) is Fraction for vec in table.values() for c in vec.values())
    assert table == reference
    table.clear()       # a new dict on each read: the tensor is as it was
    assert tensor.table == reference


@given(tensors(), st.data())
def test_lazy_table_of_every_producer(tensor, data):
    op = data.draw(operators(tensor.dim), label="op")
    c = data.draw(ENTRIES, label="c")
    d = data.draw(ENTRIES, label="d")
    other = derived(tensor, op)
    check_table(other, reference_derived(tensor, op).table)
    tors_terms = [(1, None, op, op), (-1, op, op, None), (-1, op, None, op),
                  (1, op * op, None, None)]
    check_table(torsion(tensor, op), reference_contract(tensor, tors_terms).table)
    pairs = [(c, tensor), (d, other)]
    check_table(tensor_combination(pairs), reference_combination(pairs))
    check_table(tensor_combination([(1, tensor), (-1, tensor)]), {})
    check_table(tensor.scale(c), reference_combination([(c, tensor)]))


@given(tensors(), st.data())
def test_kernel_input_without_a_table(tensor, data):
    # a result serves as a kernel's input with no table read on the way,
    # and the second result's table has the reference's key order: each
    # vector in ascending key order, the pairs in row-major order
    op = data.draw(operators(tensor.dim), label="op")
    with table_reads() as reads:
        first = derived(tensor, op)
        second = derived(first, op)
    assert reads == []
    assert layout(second.table) == layout(reference_derived(first, op).table)


def test_classify_builds_no_table_it_does_not_read():
    tensor, _ = algebra_from_dict(algebra_to_dict(build_classical("sl", 3)))
    op = operator_from_dict(FILES["sl3-conjugated-op.json"])
    with table_reads() as reads:
        action = classify_operator(tensor, op)
        norm = normalize_pencil(action)
    assert (action.tag, action.a, action.b) == (TAG_NEAR, 0, -3)
    assert norm.degenerate_lines == [(0, 1), (-3, -1)]
    assert norm.derived is action.derived
    unread = {"loaded algebra": tensor, "T'": action.derived}
    assert read_among(reads, unread) == []
    # T'' is the proved a T + b T'
    second = tensor_combination([(action.a, tensor), (action.b, action.derived)])
    assert second.table == derived(action.derived, op).table


def conjugated_grading(tensor, signs):
    """D = A G A^-1 on gl_n or sl_n: G is the Z4 grading w(E_ij) = (i - j)
    mod 4 (0 on every H_k), and A = exp(ad x) exp(ad y), an automorphism, for
    x strictly upper and y strictly lower triangular with entries from
    signs.  D has the class of G: near, (a, b) = (0, -4)."""
    labels = tensor.labels
    weights = [(int(s[1]) - int(s[2])) % 4 if s[0] == "E" else 0 for s in labels]
    signs = iter(signs)
    x = [Fraction(next(signs)) if s[0] == "E" and s[1] < s[2] else ZERO for s in labels]
    y = [Fraction(next(signs)) if s[0] == "E" and s[1] > s[2] else ZERO for s in labels]
    ax, ay = ad(tensor, x), ad(tensor, y)
    A = nilpotent_exp(ax, 1) * nilpotent_exp(ay, 1)
    A_inv = nilpotent_exp(ay, -1) * nilpotent_exp(ax, -1)
    return A * RatMatrix.diagonal(weights) * A_inv


@pytest.mark.parametrize("family", ["gl", "sl"])
def test_dense_grading_answers_without_the_dict_pass(family, monkeypatch):
    # the classify-dense workload's operators, built here: the known answers
    # hold, T'' is never built by `contract` on the way, and a T + b T' from
    # the proof, built with no `contract`, gives exactly derived(T', D)'s table
    tensor = build_classical(family, 4)
    op = conjugated_grading(tensor, [1, -1, -1, 1, 1, -1, 1, 1, -1, -1, 1, -1])
    assert op.den > 100 and all(all(row) for row in op.ints[:4])   # dense, rational
    contracted = []
    real_contract = kernels.contract
    monkeypatch.setattr(kernels, "contract",
                        lambda t, terms: contracted.append(t) or real_contract(t, terms))
    with table_reads() as reads:
        action = classify_operator(tensor, op)
        norm = normalize_pencil(action)
    assert (action.tag, action.a, action.b) == (TAG_NEAR, 0, -4)
    assert (norm.mode, norm.degenerate_lines) == (MODE_SEMISIMPLE, [(0, 1), (-4, -1)])
    assert contracted == [tensor]            # T' only
    assert read_among(reads, {"T'": action.derived}) == []
    table = tensor_combination([(action.a, tensor), (action.b, action.derived)]).table
    assert contracted == [tensor]
    assert layout(table) == layout(derived(action.derived, op).table)


def test_quasi_second_is_empty_without_a_pass(monkeypatch):
    # (ad e)^2 on sl2 is quasi: the proved (a, b) = (0, 0) names T'' = 0,
    # which builds as the empty form with no `contract`, as derived(T', D)
    # confirms; normalizing runs none either
    tensor = build_classical("sl", 2)
    e = ad(tensor, [Fraction(1), ZERO, ZERO])
    contracted = []
    real_contract = kernels.contract
    monkeypatch.setattr(kernels, "contract",
                        lambda t, terms: contracted.append(t) or real_contract(t, terms))
    action = classify_operator(tensor, e * e)
    norm = normalize_pencil(action)
    assert (action.tag, action.a, action.b) == ("quasi", 0, 0)
    assert (norm.mode, norm.degenerate_lines) == ("nilpotent", [(0, 1)])
    second = tensor_combination([(action.a, tensor), (action.b, action.derived)])
    assert second.table == {} and second.integer_form() == (1, {})
    assert contracted == [tensor]
    assert derived(action.derived, e * e).is_zero()
