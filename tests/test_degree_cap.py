"""The degree cap of `SparsePoly` against `Fraction` references.

Every `SparsePoly` keeps its monomials packed in one layout (`exact`), and
its total degree is at most `DEGREE_CAP`; `SparsePoly`'s docstring proves
that a product of up to three such factors fits the fields.  Here
polynomials at the cap go through every kernel that multiplies them: a
product, the Poisson bracket, the seed check `check_central`, both orbit
derivations and (in `tests/test_poisson_oracle.py`) `pc_verify`, whose
products of three reach degree 3 * DEGREE_CAP - 2.  Each result is read
back through `_unpack` and must equal its reference on `Fraction` term
dicts.  A polynomial one degree above the cap is refused by both
constructors and by every result that would exceed it.
"""

from fractions import Fraction as F

import pytest

from liepencil.exact import DEGREE_CAP, RatMatrix, SparsePoly, _pack
from liepencil.poisson import (PoissonStructure, SeedNotCentral, _pi_gradients, check_central,
                               directional, lifted, poisson_bracket)

from helpers import terms, total_degree
from test_poisson_oracle import fraction_bracket, unpacked
from test_poly_oracle import Reference

CAP = DEGREE_CAP

# polynomials in two variables: at the cap, one below it, and linear
TOP = {(CAP, 0): F(1, 2), (0, CAP): -3, (CAP - 7, 7): F(5, 3), (1, 1): 2}
LOW = {(CAP - 1, 0): 4, (1, CAP - 2): F(-1, 6), (0, 0): 1}
LINEAR = {(1, 0): 1, (0, 1): F(5, 3)}


def pair(terms_):
    return SparsePoly(2, terms_), Reference(2, terms_)


def test_products_at_the_cap_match_the_reference():
    (top, rtop), (low, rlow), (lin, rlin) = pair(TOP), pair(LOW), pair(LINEAR)
    assert total_degree(top) == CAP and total_degree(low * lin) == CAP
    assert terms(low * lin) == (rlow * rlin).terms
    assert terms(top * F(-2, 7)) == (rtop * F(-2, 7)).terms
    assert terms(top + low) == (rtop + rlow).terms
    assert terms(top * SparsePoly.const(2, 3)) == (rtop * 3).terms
    with pytest.raises(ValueError, match="above the cap"):
        top * lin


def test_poisson_bracket_at_the_cap_matches_the_reference():
    # a linear table: {f, g} of f at the cap and g linear is at the cap
    (top, _), (lin, _) = pair(TOP), pair(LINEAR)
    struct = PoissonStructure(2, {(0, 1): SparsePoly(2, {(1, 0): 2, (0, 1): -1})})
    got = poisson_bracket(struct, top, lin)
    assert total_degree(got) == CAP and terms(got) == fraction_bracket(struct, top, lin)
    # a table at the cap: {f, f} sums products of degree 3 * CAP - 2 to 0
    struct = PoissonStructure(2, {(0, 1): top})
    assert poisson_bracket(struct, top, top).is_zero()
    assert terms(poisson_bracket(struct, top, SparsePoly.const(2, 5))) == {}
    with pytest.raises(ValueError, match="above the cap"):
        poisson_bracket(struct, top, lin)


def test_seed_check_at_the_cap_matches_the_reference():
    # {x0, x1} = x2^CAP + 2/3 x2: x2^CAP is central, and a seed at the cap
    # in x0 and x1 is not, its pi grad of degree 2 * CAP - 1
    c = CAP
    struct = PoissonStructure(3, {(0, 1): SparsePoly(3, {(0, 0, c): 1, (0, 0, 1): F(2, 3)})})
    central = SparsePoly(3, {(0, 0, c): 1})
    check_central(struct, [central])
    seed = SparsePoly(3, {(c, 0, 0): 1, (0, c, 0): F(1, 4), (0, 0, c): -2})
    ((_, image),) = _pi_gradients(struct, [seed])
    x = [SparsePoly(3, {tuple(int(i == k) for k in range(3)): 1}) for i in range(3)]
    want = [fraction_bracket(struct, x[i], seed) for i in range(3)]
    assert [unpacked(entry, 3, struct.den * seed.den) for entry in image] == want
    assert max(sum(e) for entry in want for e in entry) == 2 * c - 1
    with pytest.raises(SeedNotCentral) as exc:
        check_central(struct, [central, seed])
    first = next(i for i, entry in enumerate(want) if entry)
    assert (exc.value.seed_index, exc.value.var_index) == (1, first)


def test_derivations_at_the_cap_match_the_reference():
    top, rtop = pair(TOP)
    rows = [[F(2), F(-1, 3)], [F(5), F(0)]]
    gamma = [F(3, 2), F(-4)]
    lift, direction = Reference(2), Reference(2)
    for i in range(2):
        image = Reference(2, {tuple(int(r == k) for k in range(2)): rows[r][i] for r in range(2)})
        lift = lift + image * rtop.partial(i)
        direction = direction + rtop.partial(i) * gamma[i]
    got = lifted(RatMatrix(rows))(top)
    assert total_degree(got) == CAP and terms(got) == lift.terms
    assert terms(directional(gamma)(top)) == direction.terms


def test_both_constructors_refuse_a_degree_above_the_cap():
    assert total_degree(SparsePoly(2, {(CAP, 0): 1})) == CAP
    for exps in [(CAP + 1, 0), (0, CAP + 1), (1, CAP)]:
        with pytest.raises(ValueError, match="total degree %d is above the cap %d"
                           % (CAP + 1, CAP)):
            SparsePoly(2, {exps: 1})
        with pytest.raises(ValueError, match="above the cap"):
            SparsePoly._of(2, 1, {_pack(exps): 1, 0: 1})
    assert SparsePoly._of(2, 3, {_pack((CAP, 0)): 6}) == SparsePoly(2, {(CAP, 0): 2})
