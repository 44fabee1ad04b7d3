"""The exponential identities against the point-by-point oracles.

`nijenhuis.exp_identity_nijenhuis` and `exp_identity_near` read each
identity's difference once as a polynomial in the point, off `derived` or,
for the near identity at m != 0, off T's parts by weight, and evaluate it
at each point by one `tensor_combination` (the expansions are proved in
their docstrings).  `helpers.reference_exp_identity_nijenhuis` and
`helpers.reference_exp_identity_near` form exp(sN) and exp(-sN), or v^D and
v^-D, at every point and compare the two sides by one contraction, as the
library did before.  Both must give the same (ok, witness, points,
precondition_ok), or both raise ValueError, on:

  * operators N that are nilpotent of every index up to the dimension
    (strictly upper triangular with entries in {0, +-1, 2, 1/2}, moved by a
    basis permutation), and some that are not (a nonzero diagonal entry),
    which are refused only when a point is given;
  * brackets T of dimension 2 to 5 that are Lie (almost abelian
    R x_A R^(n-1) for a drawn A, two-step nilpotent with drawn structure
    constants, sl2 and gl2) or skew and drawn at random, mostly not Lie;
  * Nijenhuis pairs, on which the identities hold: nilpotent squares on sl2
    and sl3, and left multiplication by a multiple of E12 on gl2;
  * point lists that are empty, repeated, negative or fractional, and the
    4*dim + 1 certified points of the Nijenhuis identity;
  * for the near identity at m != 0, m in +-1..+-3 and diagonal operators
    with integer weights in -3..3 (some with a weight 1/2, refused), on
    skew brackets of dimension 2 to 5 that are drawn at random or kept to
    the parts of weight 0 and m, on which both the precondition and the
    identity hold; a point list with a zero in it is refused before any
    point is checked.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.constructions import build_classical
from liepencil.exact import RatMatrix
from liepencil.nijenhuis import exp_identity_near, exp_identity_nijenhuis
from liepencil.tensors import StructureTensor, skew_table

from helpers import reference_exp_identity_near, reference_exp_identity_nijenhuis
from paper_checks import assoc_operators
from test_nijenhuis_oracle import nilpotent_square_case

# the example budget is the "liepencil" profile in conftest.py
ENTRIES = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                           Fraction(1, 2)])
NONZERO = st.lists(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                                    Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)]),
                   max_size=4)
POINTS = st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                                   Fraction(-3), Fraction(1, 2), Fraction(-2, 3)]), max_size=4)


@st.composite
def operators(draw, n):
    """N = P U P^-1 for a permutation P and U strictly upper triangular; with
    probability about 1/6 one diagonal entry is set to 1, so it is not
    nilpotent."""
    perm = draw(st.permutations(range(n)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[perm[i]][perm[j]] = draw(ENTRIES)
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, n - 1))
        rows[k][k] = Fraction(1)
    return RatMatrix(rows)


@st.composite
def brackets(draw, kind):
    """A skew bracket of dimension 2 to 5 of one kind."""
    n = draw(st.integers(2, 5))
    upper = {}
    if kind == "almost-abelian":       # [x0, x_i] = A x_i on span(x1, ..., x_(n-1))
        for i in range(1, n):
            upper[(0, i)] = {k: draw(ENTRIES) for k in range(1, n)}
    elif kind == "two-step":           # brackets of x_i, i < r, land in the centre
        r = draw(st.integers(1, n - 1))
        for i in range(r):
            for j in range(i + 1, r):
                upper[(i, j)] = {k: draw(ENTRIES) for k in range(r, n)}
    else:
        for i in range(n):
            for j in range(i + 1, n):
                upper[(i, j)] = {k: draw(ENTRIES) for k in range(n)}
    return StructureTensor(n, skew_table(upper))


@st.composite
def diagonal_cases(draw):
    """(T, diag(w), m): w in -3..3, one weight 1/2 with probability about
    1/8; T skew of dimension 2 to 5, and in about half the draws only its
    entries of weight w_k - w_i - w_j in {0, m} are kept."""
    n, m = draw(st.integers(2, 5)), draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    weights = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    if draw(st.integers(0, 7)) == 0:
        weights[draw(st.integers(0, n - 1))] = Fraction(1, 2)
    graded = draw(st.booleans())
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = {k: draw(ENTRIES) for k in range(n)}
            upper[(i, j)] = {k: c for k, c in vec.items()
                             if not graded or weights[k] - weights[i] - weights[j] in (0, m)}
    return StructureTensor(n, skew_table(upper)), RatMatrix.diagonal(weights), m


def left_e12(c):
    ops = assoc_operators(2, RatMatrix([[0, c], [0, 0]]))
    return ops.gl_tensor, ops.left


def with_operator(tensors):
    return tensors.flatmap(lambda t: operators(t.dim).map(lambda op: (t, op)))


CASES = {
    "nijenhuis": st.one_of(st.sampled_from([nilpotent_square_case(2, (2,)),
                                            nilpotent_square_case(3, (2, 1))]),
                           ENTRIES.map(left_e12)),
    "classical": with_operator(st.sampled_from([build_classical("sl", 2),
                                                build_classical("gl", 2)])),
    **{kind: with_operator(brackets(kind)) for kind in ("almost-abelian", "two-step", "skew")},
}


def outcome(check, *args):
    try:
        rep = check(*args)
    except ValueError:
        return ValueError
    return rep.ok, rep.witness, rep.points, rep.precondition_ok


@pytest.mark.parametrize("source", sorted(CASES))
@given(data=st.data())
def test_the_nijenhuis_identity_matches_the_pointwise_reference(source, data):
    tensor, op = data.draw(CASES[source], label="case")
    points = data.draw(st.one_of(st.none(), POINTS), label="points")
    assert (outcome(exp_identity_nijenhuis, tensor, op, points)
            == outcome(reference_exp_identity_nijenhuis, tensor, op, points))


@pytest.mark.parametrize("source", sorted(CASES))
@given(data=st.data())
def test_the_near_identity_at_zero_matches_the_pointwise_reference(source, data):
    tensor, op = data.draw(CASES[source], label="case")
    points = data.draw(POINTS, label="points")
    assert (outcome(exp_identity_near, tensor, op, 0, points)
            == outcome(reference_exp_identity_near, tensor, op, 0, points))


@given(case=diagonal_cases(), points=st.one_of(NONZERO, POINTS))
def test_the_diagonal_near_identity_matches_the_pointwise_reference(case, points):
    tensor, op, m = case
    assert (outcome(exp_identity_near, tensor, op, m, points)
            == outcome(reference_exp_identity_near, tensor, op, m, points))
