"""Torsion tensors, Nijenhuis checks, and exponential identities."""

from fractions import Fraction as F
import random

import pytest

from liepencil.exact import RatMatrix
from liepencil.tensors import StructureTensor, classify_operator, derived, skew_table
from liepencil.constructions import (GradingSpec,
                                     build_classical,
                                     grading_operator, nilpotent_square)
from liepencil.nijenhuis import (
    torsion, is_nijenhuis, torsion_decomposition, check_N_properties,
    exp_identity_nijenhuis, exp_identity_near,
)

from helpers import col, columns, rand_rat, rand_matrix, transpose
from paper_checks import (assoc_operators, assoc_torsion_formula, build_gl_associative,
                          diagonal_torsion_witnesses)


def sl2():
    return build_classical("sl", 2)


GRADING = grading_operator(GradingSpec((1, 0, 1), "periodic", 2))


def _unit(n, i):
    return [F(int(k == i)) for k in range(n)]


def expanded_torsion(tensor, op):
    """Reference torsion: [Nx, Ny] + N(N[x, y] - [Nx, y] - [x, Ny]) expanded
    densely on every ordered basis pair, skew or not."""
    n = tensor.dim
    cols = columns(op)
    table = {}
    for i in range(n):
        for j in range(n):
            direct = tensor.apply(cols[i], cols[j])
            mixed = [a + b for a, b in zip(tensor.apply(cols[i], _unit(n, j)),
                                           tensor.apply(_unit(n, i), cols[j]))]
            base = tensor.apply(_unit(n, i), _unit(n, j))
            inner = [p - q for p, q in zip(op.apply(base), mixed)]
            total = [u + v for u, v in zip(direct, op.apply(inner))]
            table[(i, j)] = {k: c for k, c in enumerate(total) if c}
    return StructureTensor(n, table, tensor.labels)


def _torsion_fixtures():
    rng = random.Random(37)
    t = sl2()
    yield t, GRADING
    yield t, RatMatrix.diagonal([F(2), F(0), F(-2)])
    yield t, nilpotent_square(t, [1, 0, 0])[0]
    for _ in range(3):
        yield t, rand_matrix(rng, 3)
    for a in (RatMatrix([[F(1), F(0)], [F(0), F(0)]]),
              RatMatrix([[F(0), F(1)], [F(0), F(0)]])):
        ops = assoc_operators(2, a)
        yield ops.gl_tensor, ops.left
    # a non-skew tensor: the associative product of gl2
    assoc = build_gl_associative(2)
    assert not assoc.is_skew()
    yield assoc, rand_matrix(rng, 4)
    yield assoc, RatMatrix.diagonal([F(1), F(0), F(0), F(0)])


def test_torsion_matches_dense_expansion():
    for tensor, op in _torsion_fixtures():
        ref = expanded_torsion(tensor, op)
        assert torsion(tensor, op) == ref
        nonzero = sorted(ref.table)
        assert is_nijenhuis(tensor, op) == (not nonzero, nonzero[0] if nonzero else None)


def test_grading_operator_torsion():
    t = sl2()
    tor = torsion(t, GRADING)
    assert tor.bracket(0, 2) == {1: F(1)}
    assert tor.bracket(0, 1) == {}
    ok, witness = is_nijenhuis(t, GRADING)
    assert not ok
    assert witness == (0, 2)
    assert (list(tor.support()) == diagonal_torsion_witnesses(t, GRADING)
            == [(0, 2, 1, F(1)), (2, 0, 1, F(-1))])


def test_derivation_torsion_is_bracket_of_images():
    # for a derivation the correction term drops out: torsion(x,y) = [Dx, Dy]
    t = sl2()
    ad_h = RatMatrix.diagonal([F(2), F(0), F(-2)])
    tor = torsion(t, ad_h)
    assert tor.bracket(0, 2) == {1: F(-4)}
    for i in range(3):
        for j in range(3):
            lhs = tor.apply([F(k == i) for k in range(3)], [F(k == j) for k in range(3)])
            rhs = t.apply(col(ad_h, i), col(ad_h, j))
            assert lhs == rhs


def test_torsion_decomposition_random():
    rng = random.Random(23)
    t = sl2()
    for _ in range(20):
        op = rand_matrix(rng, 3)
        split = torsion_decomposition(t, op)
        assert split.ok


def test_left_multiplication_by_idempotent():
    e11 = RatMatrix([[F(1), F(0)], [F(0), F(0)]])
    ops = assoc_operators(2, e11)
    act = classify_operator(ops.gl_tensor, ops.left)
    assert (act.tag, act.a, act.b) == ("near", F(0), F(-1))
    ok, witness = is_nijenhuis(ops.gl_tensor, ops.left)
    assert ok and witness is None
    report = check_N_properties(ops.gl_tensor, ops.left, depth=3)
    assert report.ok and report.pairwise_compatible
    assert [s.k for s in report.steps] == [1, 2, 3]
    for step in report.steps:
        assert step.power_is_nijenhuis
        assert step.iterate_matches_power
        assert step.iterate_is_lie


def test_nilpotent_left_multiplication_exp():
    e12 = RatMatrix([[F(0), F(1)], [F(0), F(0)]])
    ops = assoc_operators(2, e12)
    act = classify_operator(ops.gl_tensor, ops.left)
    assert act.tag == "quasi"
    rep = exp_identity_nijenhuis(ops.gl_tensor, ops.left, [F(1, 2)])
    assert rep.ok
    cert = exp_identity_nijenhuis(ops.gl_tensor, ops.left)
    assert cert.ok
    assert len(cert.points) == 17   # enough samples to pin the polynomial


def test_exp_identity_stops_at_the_first_failure():
    # the shear h -> e on sl2 is nilpotent but not Nijenhuis: s = 0 holds
    # trivially, s = 1 fails, and no point after it is checked
    t = sl2()
    shear = RatMatrix([[F(0), F(1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]])
    rep = exp_identity_nijenhuis(t, shear)
    assert (rep.ok, rep.witness, rep.points) == (False, (1, 2, 0), [F(0), F(1)])
    assert rep.precondition_ok
    assert exp_identity_nijenhuis(t, shear, []).ok


def test_exp_identity_runs_the_powers_past_the_iterates():
    # [x0, x1] = -x0, [x0, x2] = -x1, [x1, x2] = -x0 - x2 with the shift N of
    # index 3: N is a derivation (T' = 0, so every rho(N)^j T vanishes) and
    # not Nijenhuis; only the rho(N^2) T term, N^2 != 0, makes s = 1 fail
    t = StructureTensor(3, skew_table({(0, 1): {0: -1}, (0, 2): {1: -1},
                                       (1, 2): {0: -1, 2: -1}}))
    shift = RatMatrix([[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]])
    assert derived(t, shift).is_zero() and not is_nijenhuis(t, shift)[0]
    rep = exp_identity_nijenhuis(t, shift)
    assert (rep.ok, rep.witness, rep.points) == (False, (1, 2, 0), [F(0), F(1)])


def test_exp_identity_near_semisimple():
    t = sl2()
    rep = exp_identity_near(t, GRADING, -2, [F(2), F(3)])
    assert rep.ok and rep.precondition_ok and rep.points == [F(2), F(3)]
    bad = exp_identity_near(t, GRADING, 3, [F(2)])
    assert not bad.precondition_ok
    # the precondition is computed once, before any point is checked
    assert not exp_identity_near(t, GRADING, 3, []).precondition_ok
    # v stands for exp(s): a zero point raises once the loop reaches it, so
    # a failure before it still ends the check with a report
    with pytest.raises(ValueError):
        exp_identity_near(t, GRADING, -2, [F(2), F(0)])
    assert exp_identity_near(t, GRADING, 3, [F(2), F(0)]).points == [F(2)]


def test_exp_identity_quasi_nilpotent():
    t = sl2()
    op, _ = nilpotent_square(t, [1, 0, 0])
    rep = exp_identity_near(t, op, 0, [F(1), F(2)])
    assert rep.ok and rep.precondition_ok and rep.points == [F(1), F(2)]


def test_exp_identity_near_requires_integer_diagonal():
    t = sl2()
    op, _ = nilpotent_square(t, [1, 0, 0])   # nilpotent, not diagonal
    with pytest.raises(ValueError):
        exp_identity_near(t, op, -2, [F(2)])


def test_assoc_torsion_worked_projection():
    a = RatMatrix.diagonal([F(1), F(0), F(0)])
    report = assoc_torsion_formula(3, a)
    assert report.ok
    assert report.torsion_matches and report.derived_matches
    assert not report.nijenhuis
    assert report.torsion.bracket(0, 1) == {2: F(1, 4)}


def test_assoc_torsion_random_symmetric():
    rng = random.Random(31)
    for _ in range(3):
        a = rand_matrix(rng, 3)
        sym = a + transpose(a)
        report = assoc_torsion_formula(3, sym)
        assert report.torsion_matches
        assert report.derived_matches
