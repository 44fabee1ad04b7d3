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
  degenerate line, which the classify path reads only through their forms.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.constructions import build_classical
from liepencil.io import operator_from_dict
from liepencil.nijenhuis import torsion
from liepencil.tensors import (TAG_NEAR, StructureTensor, classify_operator, derived,
                               normalize_pencil, tensor_combination)

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
