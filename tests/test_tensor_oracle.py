"""The integer kernels `derived`, `check_jacobi` and `classify_operator`
against Fraction references.

The references below are the plain Fraction versions of the kernels.
The library runs the same loops on integers over one common denominator, so
on generated tensors (skew and not, mixed denominators, zero entries, Lie and
forced non-Lie) and generated operators the results must agree exactly:
equal tables with the same key order, and the same verdict and witness.
`classify_operator` runs its pencil system on packed ints; its tag, dim_u,
(a, b), scalar and T'' must equal a Gram-matrix solve on the two reference
derived tensors, on hand-made pencils of every tag moved to random bases and
scaled, some far enough that the packed fields of T'' pass 64 bits.
`pencil_lie`'s verdict on each pencil member must be `is_lie` of the member
built on its own, on compatible, incompatible and non-Lie pairs.
Hypothesis is test-only; the library itself stays stdlib-only.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.cli import MEMBER_SAMPLES
from liepencil.constructions import build_classical
from liepencil.exact import ZERO, RatMatrix
from liepencil.tensors import (IrrationalEigenvalues, StructureTensor, ad, check_jacobi,
                               classify_operator, derived, is_lie, normalize_pencil,
                               pencil_lie, tensor_combination)

from helpers import columns, inverse
from test_acceptance import constructed_near_derivations

# the example budget is the "liepencil" profile in conftest.py


def reference_derived(tensor, op):
    """rho(D).T computed entry by entry in Fraction arithmetic."""
    n = tensor.dim
    cols = columns(op)
    given, empty = tensor.table, {}

    def image(vec):
        out = {}
        for k, c in vec.items():
            colk = cols[k]
            for r in range(n):
                if colk[r]:
                    s = out.get(r, ZERO) + c * colk[r]
                    if s:
                        out[r] = s
                    else:
                        out.pop(r, None)
        return out

    def entry(i, j):
        acc = dict(image(given.get((i, j), empty)))
        coli = cols[i]
        for k in range(n):
            dk = coli[k]
            if dk:
                for m, cm in given.get((k, j), empty).items():
                    s = acc.get(m, ZERO) - dk * cm
                    if s:
                        acc[m] = s
                    else:
                        acc.pop(m, None)
        colj = cols[j]
        for k in range(n):
            dk = colj[k]
            if dk:
                for m, cm in given.get((i, k), empty).items():
                    s = acc.get(m, ZERO) - dk * cm
                    if s:
                        acc[m] = s
                    else:
                        acc.pop(m, None)
        return acc

    table = {}
    if tensor.is_skew():
        for i in range(n):
            for j in range(i + 1, n):
                vec = entry(i, j)
                if vec:
                    table[(i, j)] = vec
                    table[(j, i)] = {k: -c for k, c in vec.items()}
    else:
        for i in range(n):
            for j in range(n):
                vec = entry(i, j)
                if vec:
                    table[(i, j)] = vec
    return StructureTensor(n, table, tensor.labels)


def reference_check_jacobi(tensor):
    """Cyclic Jacobi sums in Fraction arithmetic; (ok, first failing triple)."""
    n = tensor.dim
    table, empty = tensor.table, {}

    def jac(i, j, k):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in table.get((a, b), empty).items():
                for r, cr in table.get((m, c), empty).items():
                    s = acc.get(r, ZERO) + cm * cr
                    if s:
                        acc[r] = s
                    else:
                        acc.pop(r, None)
        return acc

    if tensor.is_skew():
        triples = ((i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n))
    else:
        triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    for (i, j, k) in triples:
        if jac(i, j, k):
            return False, (i, j, k)
    return True, None


ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=12))


def skew_table(dim, triples):
    """Skew table from upper-triangle entries (i, j, k, c) with i < j."""
    table = {}
    for i, j, k, c in triples:
        table.setdefault((i, j), {})[k] = c
        table.setdefault((j, i), {})[k] = -c
    return table


# Lie algebras of dim <= 5 on their standard bases, and one skew non-Lie
# tensor: [x0, x1] = x1, [x1, x2] = x0 has Jacobi sum x0 on (x0, x1, x2)
LIE = [
    (3, [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]),             # sl2
    (3, [(0, 1, 2, 1)]),                                            # heisenberg
    (4, [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]),             # gl2 = sl2 + centre
    (5, [(0, 1, 2, 1), (0, 3, 4, 1), (1, 2, 4, 2)]),                # nilpotent, class 3
    (5, [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (0, 4, 4, 1)]),  # ad x0 = 1 on the rest
]
NON_LIE = (3, [(0, 1, 1, 1), (1, 2, 0, 1)])


def standard(algebra):
    dim, entries = algebra
    return StructureTensor(dim, skew_table(dim, [(i, j, k, Fraction(c))
                                                 for i, j, k, c in entries]))


def transport(tensor, P):
    """The same bracket on the basis given by the columns of P (invertible)."""
    n = tensor.dim
    Pinv = inverse(P)
    cols = columns(P)
    table = {}
    for i in range(n):
        for j in range(n):
            vec = Pinv.apply(tensor.apply(cols[i], cols[j]))
            table[(i, j)] = {k: c for k, c in enumerate(vec) if c}
    return StructureTensor(n, table)


NONZERO = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]),
                    st.fractions(min_value=Fraction(1, 12), max_value=9,
                                 max_denominator=12))


def fixed_lists(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def change_of_basis(draw, n):
    """A lower unitriangular times an upper triangular matrix with a nonzero
    diagonal: always invertible, with mixed denominators."""
    below = iter(draw(fixed_lists(ENTRIES, n * (n - 1) // 2)))
    above = iter(draw(fixed_lists(ENTRIES, n * (n - 1) // 2)))
    diagonal = draw(fixed_lists(NONZERO, n))
    lower = [[next(below) if j < i else Fraction(int(i == j)) for j in range(n)]
             for i in range(n)]
    upper = [[diagonal[i] if j == i else next(above) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    return RatMatrix(lower) * RatMatrix(upper)


@st.composite
def tensors(draw):
    """Skew or arbitrary tables of dim <= 5 with explicit zero entries, or a
    Lie algebra (or the non-Lie tensor) moved to a random basis."""
    kind = draw(st.sampled_from(["skew", "plain", "moved"]))
    if kind == "moved":
        base = standard(draw(st.sampled_from(LIE + [NON_LIE])))
        return transport(base, draw(change_of_basis(base.dim)))
    dim = draw(st.integers(1, 5))
    if kind == "skew":
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    else:
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vectors = draw(fixed_lists(st.dictionaries(st.integers(0, dim - 1), ENTRIES,
                                               min_size=1, max_size=dim),
                               len(chosen)))
    if kind == "skew":
        return StructureTensor(dim, skew_table(dim, [
            (i, j, k, c) for (i, j), vec in zip(chosen, vectors) for k, c in vec.items()]))
    return StructureTensor(dim, dict(zip(chosen, vectors)))


def operators(n):
    return fixed_lists(fixed_lists(ENTRIES, n), n).map(RatMatrix)


def layout(tensor):
    """The table with its key order at both levels made visible."""
    return [(ij, list(vec.items())) for ij, vec in tensor.table.items()]


@given(tensors(), st.data())
def test_kernels_match_reference(tensor, data):
    op = data.draw(operators(tensor.dim), label="op")
    got = derived(tensor, op)
    assert layout(got) == layout(reference_derived(tensor, op))
    assert all(type(c) is Fraction for vec in got.table.values() for c in vec.values())
    assert check_jacobi(tensor) == reference_check_jacobi(tensor)
    assert check_jacobi(got) == reference_check_jacobi(got)


@given(st.sampled_from(LIE + [NON_LIE]), st.data())
def test_check_jacobi_on_a_new_basis(algebra, data):
    # the Jacobi identity does not depend on the basis, so the forced
    # non-Lie tensor fails on every basis and the Lie algebras pass
    base = standard(algebra)
    moved = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    verdict = reference_check_jacobi(moved)
    assert verdict[0] is (algebra in LIE)
    assert check_jacobi(moved) == verdict
    expected = (True, None) if algebra in LIE else (False, (0, 1, 2))
    assert check_jacobi(base) == reference_check_jacobi(base) == expected


@given(tensors(), st.data())
def test_derived_is_linear_in_operator(tensor, data):
    n = tensor.dim
    d1 = data.draw(operators(n), label="d1")
    d2 = data.draw(operators(n), label="d2")
    c = data.draw(ENTRIES, label="c")
    lhs = derived(tensor, d1 + d2.scale(c))
    rhs = tensor_combination([(1, derived(tensor, d1)), (c, derived(tensor, d2))])
    assert lhs == rhs


# classify_operator against a Fraction reference.  The library solves the
# pencil system on packed ints; the reference takes T' and T'' from
# reference_derived and solves T'' = a T + b T' through the Gram matrix of
# T and T', a different method with the same unique answer.

def dot(x, y):
    """Sum of products of matching entries of two Fraction tables."""
    return sum((c * y.get(ij, {}).get(k, 0) for ij, vec in x.items() for k, c in vec.items()),
               Fraction(0))


def reference_combination(pairs):
    """sum_t c_t * table_t in Fraction arithmetic, zeros dropped."""
    acc = {}
    for c, table in pairs:
        for ij, vec in table.items():
            for k, v in vec.items():
                slot = acc.setdefault(ij, {})
                slot[k] = slot.get(k, 0) + c * v
    return {ij: {k: v for k, v in vec.items() if v} for ij, vec in acc.items()
            if any(vec.values())}


def reference_classify(tensor, op):
    """(tag, dim_u, a, b, scalar) and the table of T'' from reference_derived."""
    t0 = tensor.table
    t1 = reference_derived(tensor, op)
    t2 = reference_derived(t1, op).table
    t1 = t1.table
    if not t1:
        return ("derivation", 1, None, None, None), t2
    g00, g01, g11 = dot(t0, t0), dot(t0, t1), dot(t1, t1)
    gram = g00 * g11 - g01 * g01
    if not gram:                 # T' = s T by Cauchy-Schwarz
        s = g01 / g00
        assert reference_combination([(s, t0), (-1, t1)]) == {}
        return ("scalar-type", 1, None, None, s), t2
    r0, r1 = dot(t0, t2), dot(t1, t2)
    a = (r0 * g11 - r1 * g01) / gram
    b = (g00 * r1 - g01 * r0) / gram
    if reference_combination([(a, t0), (b, t1), (-1, t2)]):
        return ("not-near", 2, None, None, None), t2
    return ("quasi" if a == 0 and b == 0 else "near", 2, a, b, None), t2


def unit_operator(n, entries):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j, c in entries:
        rows[i][j] = Fraction(c)
    return RatMatrix(rows)


def lie_with_inner(algebra):
    """A Lie algebra with ad of its first basis vector plus its second."""
    tensor = standard(algebra)
    x = [Fraction(int(i < 2)) for i in range(tensor.dim)]
    return tensor, ad(tensor, x)


SL2 = (3, [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)])     # e, h, f as in LIE
# (tag, tensor, operator) on standard bases; adding lambda * I to D keeps a
# derivation's T' a multiple of T, and turns a quasi pencil into a near one
# with a double root
PENCIL_SEEDS = [
    ("derivation",) + lie_with_inner(LIE[0]),
    ("derivation",) + lie_with_inner(LIE[3]),
    ("derivation", StructureTensor(2, {(0, 0): {0: 1}}), unit_operator(2, [(1, 1, 1)])),
    ("quasi", standard(SL2), unit_operator(3, [(0, 2, -2)])),        # (ad e)^2
    ("quasi", StructureTensor(2, {(0, 0): {0: 1}}), unit_operator(2, [(1, 0, 1)])),
    ("near", standard(SL2), RatMatrix.diagonal([1, 0, 1])),
    ("near", StructureTensor(2, {(0, 0): {0: 1, 1: 1}}), RatMatrix.diagonal([1, 3])),
    ("near", standard(LIE[3]), RatMatrix.diagonal([0, 0, 1, 0, 2])),   # levels 1 and 2
    ("not-near", standard(SL2), unit_operator(3, [(0, 1, 1), (0, 0, 1)])),
    # levels 2 and -1 off the diagonal fit (a, b) = (2, 1); level -2 on (1, 1) does not
    ("not-near", StructureTensor(3, {(0, 1): {2: 1}, (1, 2): {2: 1}, (1, 1): {0: 1}}),
     RatMatrix.diagonal([0, 1, 3])),
    # levels -2 and -3 fit (a, b) = (-6, -5); on (2, 2) the check's fields
    # are -3072 and 12, which a carry cancels at the 8-bit width T'' alone
    # needs (12 * 2^8 = 3072): the check must pack wider than that
    ("not-near", StructureTensor(3, {(0, 0): {0: 1}, (1, 1): {1: 1}, (2, 2): {0: -512, 1: 1}}),
     RatMatrix.diagonal([2, 3, 1])),
]

# nonzero scales, small or near 2^40
SCALES = st.one_of(NONZERO, st.builds(lambda sign, p, q: sign * Fraction(p, q),
                                      st.sampled_from([1, -1]),
                                      st.integers(2 ** 35, 2 ** 45), st.integers(1, 10 ** 4)))


@pytest.mark.parametrize("tag, tensor, op", PENCIL_SEEDS)
def test_classify_pencil_seeds(tag, tensor, op):
    expected, second = reference_classify(tensor, op)
    assert expected[0] == tag
    act = classify_operator(tensor, op)
    assert (act.tag, act.dim_u, act.a, act.b, act.scalar) == expected
    assert act.second.table == second


def check_classify(tensor, op):
    expected, second = reference_classify(tensor, op)
    act = classify_operator(tensor, op)
    assert (act.tag, act.dim_u, act.a, act.b, act.scalar) == expected
    if act.tag in ("quasi", "near"):
        try:
            norm = normalize_pencil(act)    # its guard raises IdentityFailed on a bad T''
        except IrrationalEigenvalues:
            pass
        else:
            assert (norm.mode == "nilpotent") is (norm.b == 0)
    assert act.second.table == second
    assert all(type(c) is Fraction for vec in act.second.table.values() for c in vec.values())
    return act


@given(tensors(), st.data())
def test_classify_matches_reference(tensor, data):
    check_classify(tensor, data.draw(operators(tensor.dim), label="op"))


@pytest.mark.parametrize("tag, tensor, op", PENCIL_SEEDS)
@given(c=SCALES, shift=st.one_of(st.just(Fraction(0)), ENTRIES), t_scale=SCALES,
       data=st.data())
def test_classify_matches_reference_on_moved_pencils(tag, tensor, op, c, shift, t_scale, data):
    # c D + shift I on a basis moved by P, with T scaled: every tag, skew and
    # not, with mixed denominators and small or large entries
    n = tensor.dim
    P = data.draw(change_of_basis(n), label="P")
    moved = transport(tensor, P).scale(t_scale)
    D = inverse(P) * (op.scale(c) + RatMatrix.identity(n).scale(shift)) * P
    check_classify(moved, D)


@pytest.mark.parametrize("tag, tensor, op", PENCIL_SEEDS)
def test_classify_with_fields_past_64_bits(tag, tensor, op):
    # D scaled by about 2^37 and T by about 2^28: T'' needs packed fields of
    # more than 64 bits, 2^(w-1) > 3 n max|E| max|S1|; the shift by I/3
    # keeps T' nonzero for every seed
    n = tensor.dim
    D = op.scale(Fraction(2 ** 40 + 1, 7)) + RatMatrix.identity(n).scale(Fraction(1, 3))
    act = check_classify(tensor.scale(Fraction(2 ** 30, 5)), D)
    _, s1 = act.derived.integer_form()
    widest = 3 * n * max(abs(x) for row in D.ints for x in row) * max(
        abs(v) for vec in s1.values() for v in vec.values())
    assert widest.bit_length() > 64


# pencil_lie(T, S)(alpha, beta) against is_lie of the member built on its
# own.  With T and S Lie the helper answers every member with
# alpha * beta != 0 from one check of T + S, so the pairs below hold
# compatible Lie pairs (T and rho(D).T for the constructed
# near-derivations), Lie pairs that are not compatible (T and T on a moved
# basis), pairs with a side that is not skew or not Lie, and pairs U - S, S
# whose sum U is Lie while the pair is not compatible.  sl2 and the
# Heisenberg algebra are left out of the moved pairs: every two unimodular
# brackets on a 3-space are compatible, so they would give no such pair.

NEAR = [(t, op) for _, t, op in constructed_near_derivations()]
MOVABLE = [standard(LIE[2]), standard(LIE[3]), build_classical("gl", 2),
           build_classical("sl", 3)]


@st.composite
def pencil_pairs(draw):
    kind = draw(st.sampled_from(["near", "moved", "any", "shifted"]))
    if kind == "near":
        tensor, op = draw(st.sampled_from(NEAR))
        pair = tensor, derived(tensor, op)
    elif kind == "any":
        tensor = draw(tensors())
        pair = tensor, derived(tensor, draw(operators(tensor.dim), label="op"))
    else:
        lie = draw(st.sampled_from(MOVABLE))
        moved = transport(lie, draw(change_of_basis(lie.dim), label="P"))
        pair = (lie, moved) if kind == "moved" else (lie - moved, moved)
    return pair if draw(st.booleans(), label="in order") else pair[::-1]


@st.composite
def member_samples(draw):
    """MEMBER_SAMPLES, (0, b), (a, 0), (0, 0) and random pairs, shuffled."""
    a, b = draw(NONZERO), draw(NONZERO)
    extra = draw(st.lists(st.tuples(ENTRIES, ENTRIES), max_size=3))
    return draw(st.permutations(list(MEMBER_SAMPLES) + [(0, b), (a, 0), (0, 0)] + extra))


@given(pencil_pairs(), member_samples())
def test_pencil_lie_matches_each_member(pair, samples):
    tensor, other = pair
    lie = pencil_lie(tensor, other)
    for alpha, beta in samples:
        assert lie(alpha, beta) is is_lie(tensor_combination([(alpha, tensor), (beta, other)]))
