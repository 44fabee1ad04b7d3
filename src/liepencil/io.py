"""JSON interchange: algebra files, operator files, polynomial seed lists.

All rationals travel as strings ("p" or "p/q", lowest terms) so files
round-trip bit-exactly.  Algebra files store only the upper triangle i < j of
a skew tensor, coefficients keyed by basis index in ascending order.

Each input is parsed once, straight into the integer form the engine runs
on: every coefficient is read as its (p, q) ints, and the whole file is
cleared over the lcm of the q.  No `Fraction` is built here, and the
trusted `_of` constructors check no more than the degree cap, refused
here first, so file input is validated here.  A loaded tensor is skew by
construction (`skew_table` mirrors each pair i < j), and `_of` records
that verdict as it builds the tensor, so no command scans its input for
skewness again.
"""

from __future__ import annotations

import json
from math import lcm

from .exact import (DEGREE_CAP, RatMatrix, SparsePoly, _pack, _parse_rat_form, format_rat,
                    format_ratio)
from .tensors import StructureTensor, skew_table


class ParseError(ValueError):
    """Malformed input file; context names the offending field."""

    def __init__(self, message, context=""):
        self.context = context
        super().__init__("%s [%s]" % (message, context) if context else message)


def _require(doc, key, context):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError("missing field %r" % key, context)
    return doc[key]


def _is_int(x):
    """A JSON integer; JSON true and false arrive as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rat_form(text, context):
    """(p, q) ints, q > 0 and not reduced, of a rational written as a JSON
    string; any other JSON value is refused, since a JSON number may have
    passed through a float."""
    if not isinstance(text, str):
        raise ParseError("rational must be a string, got %r" % (text,), context)
    try:
        return _parse_rat_form(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad rational %r" % (text,), context)


def algebra_to_dict(tensor, metadata=None):
    """Canonical JSON document for a skew structure tensor."""
    if not tensor.is_skew():
        raise ValueError("algebra files hold skew tensors only")
    den, ints = tensor.integer_form()
    entries = [{"i": i, "j": j,
                "coeffs": {str(k): format_ratio(vec[k], den) for k in sorted(vec)}}
               for (i, j), vec in sorted(ints.items()) if i < j]
    doc = {"dim": tensor.dim, "basis": list(tensor.labels), "brackets": entries}
    if metadata:
        doc["metadata"] = {k: metadata[k] for k in sorted(metadata)}
    return doc


def algebra_from_dict(doc):
    """(tensor, metadata) from a parsed algebra document."""
    dim = _require(doc, "dim", "algebra")
    if not _is_int(dim) or dim < 0:
        raise ParseError("dim must be a nonnegative integer", "algebra.dim")
    labels = _require(doc, "basis", "algebra")
    if not isinstance(labels, list) or len(labels) != dim:
        raise ParseError("basis must list %d labels" % dim, "algebra.basis")
    if not all(isinstance(x, str) for x in labels) or len(set(labels)) != dim:
        raise ParseError("basis labels must be distinct strings", "algebra.basis")
    brackets = _require(doc, "brackets", "algebra")
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list", "algebra.brackets")
    upper = {}
    for idx, entry in enumerate(brackets):
        ctx = "brackets[%d]" % idx
        if not isinstance(entry, dict):
            raise ParseError("bracket entry must be an object", ctx)
        i = _require(entry, "i", ctx)
        j = _require(entry, "j", ctx)
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < dim):
            raise ParseError("indices must satisfy 0 <= i < j < dim", ctx)
        if (i, j) in upper:
            raise ParseError("duplicate pair (%d, %d)" % (i, j), ctx)
        coeffs = _require(entry, "coeffs", ctx)
        if not isinstance(coeffs, dict):
            raise ParseError("coeffs must be an object", ctx + ".coeffs")
        vec, seen = {}, set()
        for key, text in coeffs.items():
            # ASCII digits only: int() would also read " 0_0 " and "\u0660"
            if not (key.isascii() and key.isdigit()):
                raise ParseError("bad basis index %r" % (key,), ctx + ".coeffs")
            k = int(key)
            if not 0 <= k < dim:
                raise ParseError("basis index %d out of range" % k, ctx + ".coeffs")
            if k in seen:
                raise ParseError("basis index %d given twice" % k, ctx + ".coeffs")
            seen.add(k)
            p, q = _rat_form(text, ctx + ".coeffs")
            if p:
                vec[k] = p, q
        if vec:
            upper[(i, j)] = vec
    L = lcm(*(q for vec in upper.values() for _, q in vec.values()))
    form = L, skew_table({ij: {k: p * (L // q) for k, (p, q) in vec.items()}
                          for ij, vec in upper.items()})
    tensor = StructureTensor._of(dim, tuple(labels), form, True)
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise ParseError("metadata must be an object", "algebra.metadata")
    return tensor, meta


def operator_to_dict(mat):
    return {"dim": mat.nrows,
            "matrix": [[format_rat(mat[i, j]) for j in range(mat.ncols)]
                       for i in range(mat.nrows)]}


def operator_from_dict(doc):
    dim = _require(doc, "dim", "operator")
    if not _is_int(dim) or dim < 0:
        raise ParseError("dim must be a nonnegative integer", "operator.dim")
    rows = _require(doc, "matrix", "operator")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError("matrix must have %d rows" % dim, "operator.matrix")
    forms = []
    for r, row in enumerate(rows):
        ctx = "operator.matrix[%d]" % r
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError("row must have %d entries" % dim, ctx)
        # an exact "0", the common entry of a sparse operator, skips the parser
        forms.append([(0, 1) if x == "0" else _rat_form(x, ctx) for x in row])
    L = lcm(*(q for row in forms for _, q in row))
    return RatMatrix._of(L, [[p * (L // q) for p, q in row] for row in forms])


def poly_from_list(nvars, data, context="poly"):
    if not isinstance(data, list):
        raise ParseError("polynomial must be a list of terms", context)
    terms = {}
    for idx, term in enumerate(data):
        ctx = "%s[%d]" % (context, idx)
        exps = _require(term, "exponents", ctx)
        if (not isinstance(exps, list) or len(exps) != nvars
                or any(not _is_int(e) or e < 0 for e in exps)):
            raise ParseError("exponents must be %d nonnegative integers" % nvars, ctx)
        if sum(exps) > DEGREE_CAP:
            raise ParseError("total degree must be at most %d" % DEGREE_CAP, ctx)
        terms.setdefault(_pack(exps), []).append(
            _rat_form(_require(term, "coeff", ctx), ctx + ".coeff"))
    L = lcm(*(q for forms in terms.values() for _, q in forms))
    ints = {e: sum(p * (L // q) for p, q in forms) for e, forms in terms.items()}
    return SparsePoly._of(nvars, L, {e: c for e, c in ints.items() if c})


def seeds_from_dict(doc, nvars):
    data = _require(doc, "seeds", "seeds")
    if not isinstance(data, list):
        raise ParseError("seeds must be a list", "seeds")
    seeds = [poly_from_list(nvars, entry, "seeds[%d]" % i) for i, entry in enumerate(data)]
    for i, seed in enumerate(seeds):
        if seed.is_zero():
            raise ParseError("a seed must be a nonzero polynomial", "seeds[%d]" % i)
    return seeds


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc), "file")
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc), "file")


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


def load_algebra(path):
    return algebra_from_dict(_read_json(path))


def save_algebra(tensor, path, metadata=None):
    _write_json(algebra_to_dict(tensor, metadata), path)


def load_operator(path):
    return operator_from_dict(_read_json(path))


def save_operator(mat, path):
    _write_json(operator_to_dict(mat), path)


def load_seeds(path, nvars):
    return seeds_from_dict(_read_json(path), nvars)
