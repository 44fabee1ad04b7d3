"""Kernel results carry only their integer form; `.table` is built on first read.

`contract` (hence `derived` and `torsion`), `tensor_combination` and `scale`
hand back a tensor whose `table` slot is unset.  The first read of `.table`
builds {ij: {k: Fraction(v, den)}} from the integer form (den, ints) and
stores it in the slot.  The tests below check, on generated inputs, that:

* the slot is unset until the first read, and the built table is the dict
  the kernels used to build eagerly from their reduced form: the same key
  order at both levels, `Fraction` entries, and one dict for every read;
* that table equals a `Fraction` reference for every producer;
* `classify_operator` plus `normalize_pencil` on the dense sl3 operator of
  the golden fixtures never builds the table of T', T'' or the second
  degenerate line, which the classify path reads only through their forms;
* on dense conjugated Z4-grading operators of gl4 and sl4 the packed pass
  gives the known answers without ever running the dict route for T'',
  and a later read of T'' has the table of derived(T', D), key order
  included.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import liepencil.tensors as kernels
from liepencil.constructions import build_classical
from liepencil.exact import ZERO, RatMatrix, nilpotent_exp
from liepencil.io import operator_from_dict
from liepencil.nijenhuis import torsion
from liepencil.tensors import (MODE_SEMISIMPLE, TAG_NEAR, StructureTensor, ad,
                               classify_operator, derived, normalize_pencil,
                               tensor_combination)

from test_cli_golden import FILES
from test_contract_oracle import reference_contract
from test_tensor_oracle import ENTRIES, operators, reference_derived, tensors

# the example budget is the "liepencil" profile in conftest.py


def materialised(tensor):
    """Whether the table slot is set, read past the `__getattr__` fill."""
    try:
        StructureTensor.table.__get__(tensor)
    except AttributeError:
        return False
    return True


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


def check_lazy(tensor, reference):
    """tensor is a fresh kernel result whose table equals reference."""
    assert not materialised(tensor)
    expected = eager_table(tensor.integer_form())
    table = tensor.table
    assert materialised(tensor) and tensor.table is table
    assert layout(table) == layout(expected)
    assert all(type(c) is Fraction for vec in table.values() for c in vec.values())
    assert table == reference


@given(tensors(), st.data())
def test_lazy_table_of_every_producer(tensor, data):
    op = data.draw(operators(tensor.dim), label="op")
    c = data.draw(ENTRIES, label="c")
    d = data.draw(ENTRIES, label="d")
    other = derived(tensor, op)
    check_lazy(other, reference_derived(tensor, op).table)
    tors_terms = [(1, None, op, op), (-1, op, op, None), (-1, op, None, op),
                  (1, op * op, None, None)]
    check_lazy(torsion(tensor, op), reference_contract(tensor, tors_terms).table)
    pairs = [(c, tensor), (d, other)]
    check_lazy(tensor_combination(pairs), reference_combination(pairs))
    check_lazy(tensor_combination([(1, tensor), (-1, tensor)]), {})
    check_lazy(tensor.scale(c), reference_combination([(c, tensor)]))


@given(tensors(), st.data())
def test_kernel_input_without_a_table(tensor, data):
    # a result whose table was never built serves as a kernel's input, and
    # the second result's table has the reference's key order
    op = data.draw(operators(tensor.dim), label="op")
    first = derived(tensor, op)
    second = derived(first, op)
    assert not materialised(first)
    assert layout(second.table) == layout(reference_derived(first, op).table)


def test_classify_builds_no_table_it_does_not_read():
    tensor = build_classical("sl", 3)
    op = operator_from_dict(FILES["sl3-conjugated-op.json"])
    action = classify_operator(tensor, op)
    assert (action.tag, action.a, action.b) == (TAG_NEAR, 0, -3)
    norm = normalize_pencil(action)
    assert len(norm.degenerate_lines) == 2
    assert norm.derived is action.derived
    unread = {"T'": action.derived, "T''": action.second,
              "second degenerate line": norm.degenerate_lines[1]}
    assert [name for name, t in unread.items() if materialised(t)] == []
    # a read still gives the table, built once
    assert action.second.table == derived(action.derived, op).table
    assert materialised(action.second)


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
    # hold, T'' is never built by the dict route on the way, and a later
    # read gives exactly derived(T', D)'s table
    tensor = build_classical(family, 4)
    op = conjugated_grading(tensor, [1, -1, -1, 1, 1, -1, 1, 1, -1, -1, 1, -1])
    assert op.den > 100 and all(all(row) for row in op.ints[:4])   # dense, rational
    contracted = []
    real_contract = kernels.contract
    monkeypatch.setattr(kernels, "contract",
                        lambda t, terms: contracted.append(t) or real_contract(t, terms))
    action = classify_operator(tensor, op)
    norm = normalize_pencil(action)
    assert (action.tag, action.a, action.b) == (TAG_NEAR, 0, -4)
    assert (norm.mode, len(norm.degenerate_lines)) == (MODE_SEMISIMPLE, 2)
    assert contracted == [tensor]            # T' only
    assert not materialised(action.second)
    table = action.second.table
    assert contracted == [tensor, action.derived]
    assert layout(table) == layout(derived(action.derived, op).table)


def test_quasi_second_is_empty_without_a_pass(monkeypatch):
    # (ad e)^2 on sl2 is quasi: T'' = 0 comes with the empty form, and no
    # read of it runs the dict route
    tensor = build_classical("sl", 2)
    e = ad(tensor, [Fraction(1), ZERO, ZERO])
    contracted = []
    real_contract = kernels.contract
    monkeypatch.setattr(kernels, "contract",
                        lambda t, terms: contracted.append(t) or real_contract(t, terms))
    action = classify_operator(tensor, e * e)
    assert action.tag == "quasi"
    assert action.second.is_zero() and action.second.table == {}
    assert action.second.integer_form() == (1, {})
    assert contracted == [tensor]
