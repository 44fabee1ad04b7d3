"""Matrix algebra families, gradings, deformations, standard triples."""

import random
from fractions import Fraction

import pytest

from liepencil import constructions
from liepencil.constructions import (GradingSpec, assoc_operators,
                                     basis_matrices, build_classical,
                                     build_gl_associative, check_special,
                                     contractions_from_grading, deform_bracket,
                                     direct_sum, grading_operator,
                                     involution_split, matrix_coords,
                                     nilpotent_square, quasi_grading_extension,
                                     sl2_complete, splitting_operators,
                                     tensor_from_matrix_basis)
from liepencil.exact import RatMatrix
from liepencil.tensors import IdentityFailed, ad, classify_operator, derived, is_lie

from helpers import rand_rat


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
    real = constructions.build_classical
    monkeypatch.setattr(constructions, "build_classical",
                        lambda family, n: real(family, n).scale(2))
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
    assert act.second.bracket(4, 5) == {0: F(12), 3: F(24)}


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
    mats, labels = basis_matrices("gl", 2)
    with pytest.raises(ValueError):
        tensor_from_matrix_basis(mats, labels, product="assoc", check_lie=True)
