"""The file parsers on generated input, and `io` round trips.

* `algebra_from_dict`, `operator_from_dict` and `seeds_from_dict` either
  return or raise `ParseError` on any JSON value: arbitrary documents, and
  valid documents with one value replaced by an arbitrary one (each drawn
  value is tried at every position) or one field removed, so the checks
  deep inside a well-formed file are reached too.
* Algebra and operator files round trip: load(save(x)) == x with the same
  labels, and saving what was loaded writes the same bytes.  The algebras
  include kernel results, and neither writing nor reading a file reads a
  tensor's `Fraction` table: both run on integer forms.
* Algebra, operator and seed documents written with unreduced, signed and
  zero coefficients, and seeds with repeated exponents, parse to what a
  `Fraction` reading gives: the same integer form and key order, a zero
  coefficient or all-zero pair dropped.  An operator entry spelled exactly
  "0" skips the rational parser; every other spelling, and every refusal,
  goes through it and names its row.  A loaded tensor carries only its
  integer form, and its table is built from it when read.
* A loaded tensor carries its skew verdict, and the verdict is right:
  `check_skew` agrees with the recorded verdict on every generated document.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil import io as iomod
from liepencil.constructions import build_classical
from liepencil.exact import RatMatrix, SparsePoly
from liepencil.io import (ParseError, algebra_from_dict, algebra_to_dict, load_algebra,
                          load_operator, operator_from_dict, operator_to_dict,
                          save_algebra, save_operator, seeds_from_dict)
from liepencil.exact import parse_rat
from liepencil.tensors import StructureTensor, check_skew, derived, skew_table

from helpers import variable
from paper_checks import seeds_to_dict
from test_lazy_table import check_table, layout, table_reads
from test_tensor_oracle import operators, tensors

# the example budget is the "liepencil" profile in conftest.py

# strings that look like rationals but are outside "p" or "p/q"
NEAR_RATIONALS = ["1e400", "1.5", "1_0", "١", "1/0", " 2/3 ", "+4", "-0", "0x1f"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(NEAR_RATIONALS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)

X = [variable(3, i) for i in range(3)]
VALID = {
    "algebra": algebra_to_dict(build_classical("sl", 2), {"family": "sl"}),
    "operator": operator_to_dict(RatMatrix([[Fraction(1, 2), Fraction(-1)],
                                            [Fraction(3), Fraction(0)]])),
    "seeds": seeds_to_dict([X[1] * X[1] + SparsePoly.const(3, 4) * X[0] * X[2], X[0]]),
}


def slots(doc):
    """(container, key) for every value inside doc, depth first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield doc, key
        yield from slots(value)


def damaged(kind, value):
    """Copies of the valid document of this kind: one for each value inside
    it, with that value replaced by value, and one for each object field,
    with that field removed."""
    count = len(list(slots(VALID[kind])))
    for index in range(count):
        for remove in (False, True):
            doc = json.loads(json.dumps(VALID[kind]))
            container, key = list(slots(doc))[index]
            if not remove:
                container[key] = value
            elif isinstance(container, dict):
                del container[key]
            else:
                continue
            yield doc


PARSERS = {
    "algebra": algebra_from_dict,
    "operator": operator_from_dict,
    "seeds": lambda doc: seeds_from_dict(doc, 3),
}


def parse(kind, doc):
    try:
        PARSERS[kind](json.loads(json.dumps(doc)))
    except ParseError:
        pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(doc=JSON)
def test_parsers_raise_only_parse_error_on_any_json(kind, doc):
    parse(kind, doc)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(value=JSON)
def test_parsers_raise_only_parse_error_on_a_damaged_file(kind, value):
    for doc in damaged(kind, value):
        parse(kind, doc)


def skew_tensors():
    return tensors().filter(lambda t: t.is_skew())


def round_trip(save, load, obj, folder):
    first, second = folder / "first.json", folder / "second.json"
    save(obj, first)
    back = load(first)
    save(back, second)
    assert first.read_bytes() == second.read_bytes()
    return back


@given(skew_tensors(), st.data())
def test_algebra_file_round_trip(tmp_path_factory, tensor, data):
    folder = tmp_path_factory.mktemp("algebra")
    result = derived(tensor, data.draw(operators(tensor.dim), label="op"))
    for t in (tensor, result):
        with table_reads() as reads:
            back = round_trip(save_algebra, lambda p: load_algebra(p)[0], t, folder)
        assert reads == []
        assert back == t and back.labels == t.labels
        assert back.table == t.table


@given(st.integers(1, 4).flatmap(operators))
def test_operator_file_round_trip(tmp_path_factory, op):
    assert round_trip(save_operator, load_operator, op, tmp_path_factory.mktemp("op")) == op


# "p/q" strings of small rationals, unreduced, signed or zero
RATIONAL_TEXT = st.builds("{}{}/{}".format, st.sampled_from(["", "+", "-"]),
                          st.integers(0, 12), st.integers(1, 12)) | st.builds(
    str, st.integers(-6, 6))


# spellings of zero: only the first skips the parser
ZERO_TEXT = ["0", "-0", "0/7", " 0 ", "+0", "00"]


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(ZERO_TEXT) | RATIONAL_TEXT, min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_operator_parse_matches_a_fraction_reading(rows):
    op = operator_from_dict({"dim": len(rows), "matrix": rows})
    want = RatMatrix([[parse_rat(x) for x in row] for row in rows])
    assert op == want and (op.den, op.ints) == (want.den, want.ints)


def test_only_an_exact_zero_skips_the_parser(monkeypatch):
    parsed = []
    rat_form = iomod._rat_form
    monkeypatch.setattr(iomod, "_rat_form", lambda x, ctx: parsed.append(x) or rat_form(x, ctx))
    op = operator_from_dict({"dim": 2, "matrix": [["0", "-0"], ["0/7", " 0 "]]})
    assert op == RatMatrix.zero(2) and parsed == ["-0", "0/7", " 0 "]


@pytest.mark.parametrize("bad", ["x", 0, "1/0", "0.0", None, " ", "0 0"])
def test_a_bad_entry_after_zeros_is_named(bad):
    doc = {"dim": 3, "matrix": [["0", " 0 ", "-0"], ["0/7", "0", bad], ["0", "0", "0"]]}
    with pytest.raises(ParseError) as exc:
        operator_from_dict(doc)
    assert exc.value.context == "operator.matrix[1]"


@st.composite
def algebra_documents(draw):
    dim = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = [{"i": i, "j": j, "coeffs": draw(st.dictionaries(
        st.integers(0, dim - 1).map(str), RATIONAL_TEXT, max_size=dim))}
        for i, j in chosen]
    return {"dim": dim, "basis": ["x%d" % i for i in range(dim)], "brackets": brackets}


def reference_algebra(doc):
    """The tensor of an algebra document read in `Fraction`, zeros dropped."""
    upper = {}
    for entry in doc["brackets"]:
        vec = {int(k): parse_rat(c) for k, c in entry["coeffs"].items() if parse_rat(c)}
        if vec:
            upper[(entry["i"], entry["j"])] = vec
    return StructureTensor(doc["dim"], skew_table(upper), doc["basis"])


@given(algebra_documents())
def test_algebra_parse_matches_a_fraction_reading(doc):
    tensor, _ = algebra_from_dict(doc)
    # no command scans a loaded tensor for skewness, so its verdict must hold
    assert tensor._skew is True
    assert check_skew(tensor) == (True, None)
    want = reference_algebra(doc)
    assert tensor.labels == want.labels
    assert tensor.integer_form() == want.integer_form()
    check_table(tensor, want.table)
    assert layout(tensor.table) == layout(want.table)


@given(st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=2, max_size=2),
                          RATIONAL_TEXT), max_size=6))
def test_seed_parse_matches_a_fraction_reading(terms):
    # exponent vectors repeat, so coefficients are summed before zeros drop
    doc = {"seeds": [[{"exponents": exps, "coeff": c} for exps, c in terms]]}
    sums = {}
    for exps, c in terms:
        sums[tuple(exps)] = sums.get(tuple(exps), 0) + parse_rat(c)
    want = SparsePoly(2, sums)
    if want.is_zero():
        with pytest.raises(ParseError):
            seeds_from_dict(doc, 2)
    else:
        poly = seeds_from_dict(doc, 2)[0]
        assert poly == want and list(poly.ints) == list(want.ints)
