"""Matrix algebra families, gradings, deformations, standard triples."""

import random
from fractions import Fraction

import pytest

from liepencil import constructions
from liepencil.constructions import (GradingSpec,
                                     basis_matrices, build_classical, grading_operator,
                                     nilpotent_square, quasi_grading_extension,
                                     sl2_complete, splitting_operators)
from liepencil.exact import RatMatrix
from liepencil.tensors import (IdentityFailed, StructureTensor, ad, classify_operator,
                               derived, is_lie, tensor_combination)

from helpers import direct_sum, rand_rat
from paper_checks import (assoc_operators, build_gl_associative, check_special,
                          contractions_from_grading, deform_bracket, involution_split,
                          matrix_coords)


def F(p, q=1):
    return Fraction(p, q)


Z2_SPEC = GradingSpec(weights=(1, 0, 1), kind="periodic", modulus=2)


def test_family_dimensions():
    assert build_classical("sl", 2).dim == 3
    assert build_classical("sl", 3).dim == 8
    assert build_classical("gl", 3).dim == 9
    assert build_classical("so", 3).dim == 3
    assert build_classical("sp", 2).dim == 3
    for fam, n in (("sl", 3), ("gl", 3), ("so", 4), ("sp", 2)):
        assert is_lie(build_classical(fam, n))


def test_sl2_bracket_table():
    t = build_classical("sl", 2)      # basis (e, h, f)
    assert t.bracket(0, 2) == {1: F(1)}      # [e, f] = h
    assert t.bracket(1, 0) == {0: F(2)}      # [h, e] = 2e
    assert t.bracket(1, 2) == {2: F(-2)}     # [h, f] = -2f
    assert t.labels == ("e", "h", "f")


def test_gl_associative_product():
    t = build_gl_associative(2)       # basis E11, E12, E21, E22 row-major
    assert t.bracket(1, 2) == {0: F(1)}      # E12 E21 = E11
    assert t.bracket(2, 1) == {3: F(1)}      # E21 E12 = E22
    assert t.bracket(0, 3) == {}             # E11 E22 = 0
    assert not t.is_skew()


def test_grading_validate_and_operator():
    t = build_classical("sl", 2)
    ok, witness = Z2_SPEC.validate(t)
    assert ok and witness is None
    bad = GradingSpec(weights=(1, 1, 1), kind="periodic", modulus=2)
    ok, witness = bad.validate(t)
    assert not ok and witness is not None
    assert grading_operator(Z2_SPEC) == RatMatrix.diagonal([F(1), F(0), F(1)])


@pytest.mark.parametrize("kind", ["bogus", "integer"])
def test_grading_spec_refuses_unknown_kinds(kind):
    with pytest.raises(ValueError, match="unknown grading kind"):
        GradingSpec(weights=(1, 0, 1), kind=kind, modulus=2)


def test_contractions_split_the_bracket():
    t = build_classical("sl", 2)
    t0, tinf = contractions_from_grading(t, Z2_SPEC)
    assert t0.bracket(0, 1) == {0: F(-2)}    # [e, h] survives below the modexulus
    assert t0.bracket(1, 2) == {2: F(-2)}
    assert tinf.bracket(0, 2) == {1: F(1)}   # [e, f] wraps around
    assert t0 + tinf == t
    assert is_lie(t0) and is_lie(tinf)
    op = grading_operator(Z2_SPEC)
    assert tinf == derived(t, op).scale(F(-1, 2))


def test_splitting_operators_project():
    t = build_classical("sl", 2)
    d1, d2 = splitting_operators(t, [0, 1], [2])
    assert d1 + d2 == RatMatrix.identity(3)
    assert classify_operator(t, d1).tag == "near"
    assert classify_operator(t, d1).b == F(-1)
    assert classify_operator(t, d2).b == F(-1)
    # the borel projection twists [h, f] into 2f
    assert derived(t, d1).bracket(1, 2) == {2: F(2)}
    with pytest.raises(ValueError):
        splitting_operators(t, [0, 2], [1])   # {e, f} is not a subalgebra
    with pytest.raises(ValueError):
        splitting_operators(t, [0, 1], [1, 2])


def test_deform_bracket_special():
    t = build_classical("sl", 2)
    table = deform_bracket(t, Z2_SPEC)
    assert sorted(table.terms) == [0, 2]
    assert table.is_polynomial
    report = check_special(table)
    assert report.is_special
    assert report.m == 2
    assert all(report.checks.values())
    assert table.at(F(1)) == t


def test_deform_bracket_not_special():
    t = build_classical("sl", 2)
    table = deform_bracket(t, (2, 1, 0))
    assert sorted(table.terms) == [1]
    assert not check_special(table).is_special


def test_nilpotent_square_sl2():
    t = build_classical("sl", 2)
    triple = sl2_complete("sl", 2, (2,))
    op, report = nilpotent_square(t, triple.e)
    assert report.ad_e_cubed_zero
    assert report.d_squared_zero
    assert report.formula_check
    assert report.image_bracket_zero
    assert report.image_in_kernel
    assert derived(t, op).bracket(1, 2) == {0: F(8)}   # [h, f]' = 8e
    assert classify_operator(t, op).tag == "quasi"


def test_sl2_complete_partitions():
    for n, partition in ((2, (2,)), (3, (2, 1)), (4, (2, 2))):
        t = build_classical("sl", n)
        triple = sl2_complete("sl", n, partition)
        e_mat = ad(t, triple.e)
        h_mat = ad(t, triple.h)
        # the triple relations hold inside the algebra
        assert t.apply(triple.h, triple.e) == [F(2) * c for c in triple.e]
        assert t.apply(triple.h, triple.f) == [F(-2) * c for c in triple.f]
        assert t.apply(triple.e, triple.f) == triple.h
        op, report = nilpotent_square(t, triple.e)
        assert report.ad_e_cubed_zero
        assert classify_operator(t, op).tag == "quasi"
        assert e_mat * h_mat == h_mat * e_mat - 2 * e_mat


def test_sl2_complete_rejects_tall_partitions():
    with pytest.raises(ValueError):
        sl2_complete("sl", 3, (3,))


def test_sl2_complete_guard_raises_identity_failed(monkeypatch):
    # a bracket scaled by 2 gives [h, e] = 4e, which the result guard rejects
    real = constructions._expand
    monkeypatch.setattr(constructions, "_expand",
                        lambda mats, labels, coords: real(mats, labels, coords).scale(2))
    with pytest.raises(IdentityFailed):
        sl2_complete("sl", 2, (2,))


def test_principal_nilpotent_square_not_quasi():
    # height-3 block: (ad e)^3 survives and the square leaves the pencil
    t = build_classical("sl", 3)
    mats, _ = basis_matrices("sl", 3)
    e_mat = RatMatrix([[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0)] * 3])
    e = matrix_coords(mats, e_mat)
    op, report = nilpotent_square(t, e)
    assert not report.ad_e_cubed_zero
    assert report.formula_check   # the derived-bracket formula holds regardless
    act = classify_operator(t, op)
    assert act.tag == "not-near"
    # hand-computed witness: psi''(E31, E32) = 12 E12 + 24 E23
    assert derived(act.derived, op).bracket(4, 5) == {0: F(12), 3: F(24)}


def test_involution_split_dimensions():
    split = involution_split(3)
    assert len(split.odd) == 3 and len(split.even) == 6
    for x in split.odd:
        assert split.star(x) == -x
    sympl = RatMatrix([[F(0), F(1)], [F(-1), F(0)]])
    sp = involution_split(2, sympl)
    assert len(sp.odd) == 3    # sp_2 = sl_2


def test_assoc_operators_checks():
    rng = random.Random(19)
    a = RatMatrix([[rand_rat(rng) for _ in range(2)] for _ in range(2)])
    ops = assoc_operators(2, a)
    assert ops.checks["minus_derived_is_sandwich"]
    assert ops.checks["left_powers_match"]
    e11 = RatMatrix([[F(1), F(0)], [F(0), F(0)]])
    act = classify_operator(ops.gl_tensor, assoc_operators(2, e11).left)
    assert (act.tag, act.a, act.b) == ("near", F(0), F(-1))
    e12 = RatMatrix([[F(0), F(1)], [F(0), F(0)]])
    act2 = classify_operator(ops.gl_tensor, assoc_operators(2, e12).left)
    assert act2.tag == "quasi"


def test_assoc_operators_with_involution():
    a = RatMatrix.diagonal([F(1), F(0), F(0)])
    ops = assoc_operators(3, a, RatMatrix.identity(3))
    assert ops.checks["odd_second_derived_is_a2_sandwich"]
    assert ops.odd_tensor.dim == 3
    with pytest.raises(ValueError):
        skew = RatMatrix([[F(0), F(1), F(0)], [F(-1), F(0), F(0)], [F(0)] * 3])
        assoc_operators(3, skew, RatMatrix.identity(3))


def test_quasi_grading_extension_shape():
    t = build_classical("sl", 2)
    ext, spec, op = quasi_grading_extension(t, Z2_SPEC)
    assert ext.dim == 4
    assert spec.weights == (0, 1, 1, 2)
    assert spec.kind == "quasi"
    assert ext.labels == ("h+h'", "e", "f", "h")
    assert is_lie(ext)
    act = classify_operator(ext, op)
    assert (act.tag, act.a, act.b) == ("near", F(0), F(-2))


def test_direct_sum_labels():
    t = build_classical("sl", 2)
    s = direct_sum(t, t)
    assert s.dim == 6
    assert s.labels[3:] == ("e'", "h'", "f'")
    assert s.bracket(0, 2) == {1: F(1)}
    assert s.bracket(3, 5) == {4: F(1)}
    assert s.bracket(0, 5) == {}


def test_tensor_from_matrix_basis_rejects_non_lie():
    # the mirrored expansion is skew whatever the reader returns; squaring
    # each coordinate of gl2's commutators breaks Jacobi at (E11, E12, E21)
    mats, labels = basis_matrices("gl", 2)
    read = constructions._matrix_reader(mats)
    with pytest.raises(ValueError, match="Jacobi fails at"):
        constructions._expand(mats, labels, lambda m: [c * c for c in read(m)])
    assert is_lie(constructions._expand(mats, labels, read))


def recombined(tensor, d1, d2):
    """-rho(d1)T - rho(d2)T, which is T whenever d1 + d2 = I: each rho(d)T
    is dT - T(d., .) - T(., d.), so the sum is T - T - T."""
    return tensor_combination([(-1, derived(tensor, d1)), (-1, derived(tensor, d2))])


def borel_split(n):
    """gl_n as upper triangular (with the diagonal) plus strictly lower."""
    upper = [i * n + j for i in range(n) for j in range(n) if i <= j]
    lower = [i * n + j for i in range(n) for j in range(n) if i > j]
    return build_classical("gl", n), upper, lower


def block_split(first, second):
    t1, t2 = build_classical(*first), build_classical(*second)
    return (direct_sum(t1, t2), range(t1.dim), range(t1.dim, t1.dim + t2.dim))


SPLITS = ([borel_split(n) for n in range(1, 5)]
          + [block_split(("sl", 2), ("gl", 2)), block_split(("so", 3), ("sp", 4)),
             block_split(("gl", 1), ("sl", 3))])


@pytest.mark.parametrize("tensor, part_a, part_b", SPLITS,
                         ids=["borel-gl%d" % n for n in range(1, 5)]
                         + ["sl2+gl2", "so3+sp4", "gl1+sl3"])
def test_splitting_derived_brackets_recombine(tensor, part_a, part_b):
    d1, d2 = splitting_operators(tensor, part_a, part_b)
    assert recombined(tensor, d1, d2) == tensor


@pytest.mark.parametrize("seed", range(8))
def test_derived_brackets_recombine_for_any_sum_to_identity(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    table = {(i, j): {k: rand_rat(rng) for k in range(n) if rng.random() < 0.5}
             for i in range(n) for j in range(n) if rng.random() < 0.6}
    tensor = StructureTensor(n, table)
    d1 = RatMatrix([[rand_rat(rng) for _ in range(n)] for _ in range(n)])
    assert recombined(tensor, d1, RatMatrix.identity(n) - d1) == tensor


def root_grading(rng, family, n, modulus):
    """The Z_modulus grading of gl_n or sl_n by integer weights w on the
    standard basis: E_ij has weight w_i - w_j, the diagonal weight 0."""
    w = [rng.randint(-3, 3) for _ in range(n)]
    weights = []
    for m in basis_matrices(family, n)[0]:
        i, j = next((i, j) for i, row in enumerate(m.rows) for j, x in enumerate(row) if x)
        weights.append((w[i] - w[j]) % modulus)
    return GradingSpec(tuple(weights), kind="periodic", modulus=modulus)


@pytest.mark.parametrize("seed", range(8))
def test_contractions_sum_to_the_bracket(seed):
    rng = random.Random(seed)
    family, n = rng.choice(["gl", "sl"]), rng.randint(2, 4)
    tensor = build_classical(family, n)
    t0, tinf = contractions_from_grading(tensor, root_grading(rng, family, n,
                                                              rng.randint(2, 4)))
    assert t0 + tinf == tensor
