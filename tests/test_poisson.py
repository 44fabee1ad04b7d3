"""Polynomial Poisson layer: linear and frozen brackets, lifts, PC families."""

from fractions import Fraction as F
import random

import pytest

from liepencil.exact import SparsePoly, rank_exact
from liepencil.tensors import StructureTensor, derived
from liepencil.constructions import build_classical, GradingSpec, grading_operator, nilpotent_square
from liepencil.exact import RatMatrix
from liepencil import poisson as pois
from liepencil.poisson import (
    PoissonStructure, SeedNotCentral, poisson_bracket, from_tensor,
    lifted, directional,
    check_central, pc_generate, pc_verify, centre_candidates,
)

from helpers import (bracket_table, coeff_vector, entry, linear, rand_rat, terms, total_degree,
                     variable)
from paper_checks import bihomogeneous_components, frozen_bracket


def x(i, n=3):
    return variable(n, i)


def sl2():
    return build_classical("sl", 2)


def casimir():
    # h^2 + 4ef in coordinates (x0, x1, x2) = (e, h, f)
    return x(1) * x(1) + SparsePoly.const(3, 4) * x(0) * x(2)


def rand_poly(rng, n=3, terms=3, deg=2):
    p = SparsePoly.zero(n)
    for _ in range(terms):
        exps = tuple(rng.randrange(deg + 1) for _ in range(n))
        p = p + SparsePoly.monomial(n, exps, rand_rat(rng))
    return p


def test_linear_table_from_tensor():
    struct = from_tensor(sl2())
    two = SparsePoly.const(3, 2)
    assert bracket_table(struct)[(0, 1)] == -(two * x(0))
    assert bracket_table(struct)[(0, 2)] == x(1)
    assert bracket_table(struct)[(1, 2)] == -(two * x(2))
    # antisymmetric accessor
    assert entry(struct, 1, 0) == two * x(0)
    assert entry(struct, 2, 2) == SparsePoly.zero(3)


def test_from_tensor_rejects_non_jacobi():
    bad = StructureTensor(3, {(0, 1): {0: F(1)}, (1, 2): {1: F(1)}})
    with pytest.raises(ValueError):
        from_tensor(bad)


def test_casimir_is_central():
    struct = from_tensor(sl2())
    c = casimir()
    for i in range(3):
        assert poisson_bracket(struct, c, x(i)) == SparsePoly.zero(3)


def test_bracket_leibniz_antisymmetry_bilinear():
    struct = from_tensor(sl2())
    rng = random.Random(11)
    zero = SparsePoly.zero(3)
    for _ in range(8):
        f, g, h = (rand_poly(rng) for _ in range(3))
        assert poisson_bracket(struct, f, g) + poisson_bracket(struct, g, f) == zero
        lhs = poisson_bracket(struct, f * g, h)
        rhs = poisson_bracket(struct, f, h) * g + f * poisson_bracket(struct, g, h)
        assert lhs == rhs
        c = rand_rat(rng)
        scaled = poisson_bracket(struct, f * c + g, h)
        assert scaled == poisson_bracket(struct, f, h) * c + poisson_bracket(struct, g, h)


def test_lift_operator_oracles():
    op = grading_operator(GradingSpec((1, 0, 1), "periodic", 2))
    c = casimir()
    eight = SparsePoly.const(3, 8)
    assert lifted(op)(c) == eight * x(0) * x(2)
    assert lifted(op)(lifted(op)(c)) == (eight + eight) * x(0) * x(2)
    # the identity lifts to the Euler operator: degree-m homogeneous -> m*f
    ident = RatMatrix.identity(3)
    cubic = x(0) * x(1) * x(2)
    assert lifted(ident)(cubic) == cubic * 3
    assert lifted(ident)(c) == c * 2


def test_lift_reproduces_derived_bracket_on_generators():
    # the lift defect of the generators' bracket is exactly the derived bracket
    t = sl2()
    struct = from_tensor(t)
    rng = random.Random(5)
    for _ in range(6):
        op = RatMatrix([[rand_rat(rng) for _ in range(3)] for _ in range(3)])
        dhat = lifted(op)
        dt = derived(t, op)
        for i in range(3):
            for j in range(3):
                defect = (dhat(entry(struct, i, j))
                          - poisson_bracket(struct, dhat(x(i)), x(j))
                          - poisson_bracket(struct, x(i), dhat(x(j))))
                vec = dt.bracket(i, j)
                expect = linear([vec.get(k, F(0)) for k in range(3)])
                assert defect == expect


def test_pc_generate_grading_orbit():
    struct = from_tensor(sl2())
    op = grading_operator(GradingSpec((1, 0, 1), "periodic", 2))
    fam = pc_generate(lifted(op), [casimir()])
    assert fam.provenance == ["seed0", "seed0:D^1"]
    assert fam.generators[0] == casimir()
    assert fam.generators[1] == SparsePoly.const(3, 8) * x(0) * x(2)
    cert = pc_verify(fam, struct)
    assert cert.ok
    assert cert.witness is None


def test_pc_generate_derivation_orbit_is_trivial():
    # lifting an inner derivation kills the casimir, so the orbit stops at once
    ad_h = RatMatrix.diagonal([F(2), F(0), F(-2)])
    fam = pc_generate(lifted(ad_h), [casimir()])
    assert fam.provenance == ["seed0"]
    assert fam.generators == [casimir()]


def test_pc_generate_directional_family():
    struct = from_tensor(sl2())
    fam = pc_generate(directional([F(0), F(0), F(1)]), [casimir()])
    assert fam.generators == [casimir(), SparsePoly.const(3, 4) * x(0)]
    assert pc_verify(fam, struct).ok


def test_pc_verify_failure_witness():
    struct = from_tensor(sl2())
    from liepencil.poisson import PCFamily
    fam = PCFamily([x(0), x(2)], ["seed0", "seed1"])
    cert = pc_verify(fam, struct)
    assert not cert.ok
    assert cert.witness == (0, 1)
    assert poisson_bracket(struct, x(0), x(2)) == x(1)


def test_pc_verify_forms_each_gradient_once(monkeypatch):
    # one gradient per generator, and no bracket, not even for the witness
    from liepencil import poisson as pois
    grads, brackets = [], []
    gradient, bracket = pois._gradient, pois.poisson_bracket
    monkeypatch.setattr(pois, "_gradient", lambda f: grads.append(f) or gradient(f))
    monkeypatch.setattr(pois, "poisson_bracket",
                        lambda st, f, g: brackets.append((f, g)) or bracket(st, f, g))
    struct = from_tensor(sl2())
    fam = pc_generate(directional([F(1), F(2), F(-1)]), [casimir(), casimir() ** 2])
    assert len(fam.generators) == 5
    grads.clear()
    assert pc_verify(fam, struct).ok
    assert (grads, brackets) == (fam.generators, [])
    grads.clear()
    fam = pois.PCFamily([casimir(), x(0), x(1), x(2)], ["c", "e", "h", "f"])
    assert pc_verify(fam, struct).witness == (1, 2)
    assert (grads, brackets) == (fam.generators, [])


def test_seed_must_be_central():
    struct = from_tensor(sl2())
    check_central(struct, [casimir(), SparsePoly.const(3, 2)])
    with pytest.raises(SeedNotCentral) as exc:
        check_central(struct, [x(0)])
    assert exc.value.seed_index == 0
    assert exc.value.var_index == 1
    with pytest.raises(ValueError, match="seed variable count mismatch"):
        check_central(struct, [x(0, 2)])


def test_directional_derivative_contracts():
    g = [F(1), F(2), F(0)]
    p = x(0) * x(1)
    assert directional(g)(p) == x(1) + x(0) * 2


def test_orbit_operators_build_their_images_once(monkeypatch):
    # pc_generate applies the operator at every orbit step; the images and
    # their denominator are formed when the operator is made, not per step
    made = []
    for name in ("RatMatrix", "_linear_forms"):
        real = getattr(pois, name)
        monkeypatch.setattr(pois, name, lambda *a, real=real, name=name:
                            made.append(name) or real(*a))
    op = grading_operator(GradingSpec((1, 0, 1), "periodic", 2))
    for operator in (lifted(op), directional([F(1), F(2), F(-1)])):
        f = casimir()
        for _ in range(3):
            f = operator(f)
    assert made == ["_linear_forms", "RatMatrix"]
    with pytest.raises(ValueError, match="variable count mismatch"):
        lifted(op)(x(0, 2))
    with pytest.raises(ValueError, match="variable count mismatch"):
        directional([F(1), F(2), F(-1)])(x(0, 4))


def test_bihomogeneous_components():
    comps = bihomogeneous_components(casimir(), (1, 0, 1))
    assert sorted(comps) == [0, 2]
    assert comps[0] == x(1) * x(1)
    assert comps[2] == SparsePoly.const(3, 4) * x(0) * x(2)
    # components of the orbit span agree with the orbit span itself
    orbit = [casimir(), SparsePoly.const(3, 8) * x(0) * x(2)]
    both = orbit + [comps[0], comps[2]]
    monos = sorted({e for q in both for e in terms(q)})
    rank = lambda polys: rank_exact([coeff_vector(q, monos) for q in polys])
    assert rank(orbit) == rank(list(comps.values())) == rank(both) == 2


def test_centre_candidates_sl2():
    cands = centre_candidates(sl2(), max_degree=2)
    assert len(cands) == 1
    assert cands[0].format(["x0", "x1", "x2"]) == "4*x0*x2 + x1^2"
    assert centre_candidates(sl2(), max_degree=1) == []


def test_centre_candidates_abelian_and_heisenberg():
    cands = centre_candidates(StructureTensor.zero(2), max_degree=2)
    assert len(cands) == 5   # x0, x1, x0^2, x0*x1, x1^2
    t = sl2()
    op, _report = nilpotent_square(t, [1, 0, 0])
    heis = derived(t, op)
    assert bracket_table(from_tensor(heis)) == {(1, 2): SparsePoly.const(3, 8) * x(0)}
    linear = centre_candidates(heis, max_degree=1)
    assert linear == [x(0)]


@pytest.mark.parametrize("family, n, degrees", [
    ("sp", 4, [2, 4, 4]),
    ("sl", 4, [2, 3, 4, 4]),
    ("gl", 4, [1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4]),
])
def test_centre_candidates_degree_four_match_chevalley(family, n, degrees):
    # S(g)^g is free on generators of degrees 2,4 (sp4), 2,3,4 (sl4) and
    # 1,2,3,4 (gl4), so degree d holds as many invariants as there are
    # products of generators of total degree d
    tensor = build_classical(family, n)
    struct = from_tensor(tensor)
    cands = centre_candidates(tensor, max_degree=4)
    assert [total_degree(c) for c in cands] == degrees
    nvars = struct.nvars
    for f in cands:
        for i in range(nvars):
            assert poisson_bracket(struct, f, variable(nvars, i)).is_zero()


def test_frozen_bracket():
    t = sl2()
    struct = frozen_bracket(t, [F(0), F(1), F(0)])
    assert bracket_table(struct) == {(0, 2): SparsePoly.const(3, 1)}
    assert bracket_table(frozen_bracket(t, [F(0)] * 3)) == {}
    bad = StructureTensor(3, {(0, 1): {0: F(1)}, (1, 2): {1: F(1)}})
    with pytest.raises(ValueError):
        frozen_bracket(bad, [F(1), F(0), F(0)])


def test_linear_plus_frozen_is_compatible():
    # the affine combination of the linear table and any frozen shift still
    # satisfies jacobi on generators: cyclic sums of constants vanish
    t = sl2()
    lin = from_tensor(t)
    froz = frozen_bracket(t, [F(1), F(-2), F(3)])
    mixed = {}
    for pair in {(0, 1), (0, 2), (1, 2)}:
        value = entry(lin, *pair) + entry(froz, *pair)
        if not value.is_zero():
            mixed[pair] = value
    struct = PoissonStructure(3, mixed)
    zero = SparsePoly.zero(3)
    for i, j, k in ((0, 1, 2),):
        total = (poisson_bracket(struct, entry(struct, i, j), x(k))
                 + poisson_bracket(struct, entry(struct, j, k), x(i))
                 + poisson_bracket(struct, entry(struct, k, i), x(j)))
        assert total == zero
