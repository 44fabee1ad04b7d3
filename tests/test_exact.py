"""Exact arithmetic layer: matrices, ranks, kernels, polynomials."""

import random
from fractions import Fraction

import pytest

from liepencil.exact import (RatMatrix, SparsePoly, format_rat, kernel_basis, nilpotent_powers,
                             parse_rat, rank_exact, rational_sqrt, solve_columns)

from helpers import (bareiss_rank, count_products, eval_at, inverse, mat_commutator,
                     nilpotent_exp, partial, rand_matrix, rand_vector, total_degree, transpose,
                     variable)


def F(p, q=1):
    return Fraction(p, q)


def test_rat_parse_format_round_trip():
    for text in ("0", "5", "-7", "3/4", "-12/5"):
        assert format_rat(parse_rat(text)) == text
    assert parse_rat("6/4") == F(3, 2)
    assert format_rat(F(6, 4)) == "3/2"


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(49)) == 7
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(8, 9)) is None


def test_matrix_algebra_and_inverse():
    rng = random.Random(11)
    for _ in range(10):
        m = rand_matrix(rng, 3)
        if rank_exact(m.rows) < 3:
            continue
        inv = inverse(m)
        assert m * inv == RatMatrix.identity(3)
        assert inv * m == RatMatrix.identity(3)
    singular = RatMatrix([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError):
        inverse(singular)


def test_rank_frozen_and_invariance():
    assert rank_exact([[F(1), F(2)], [F(2), F(4)]]) == 1
    rng = random.Random(5)
    for _ in range(8):
        m = rand_matrix(rng, 4)
        r = rank_exact(m.rows)
        assert r == rank_exact(transpose(m).rows)
        shuffled = list(m.rows)
        rng.shuffle(shuffled)
        assert r == rank_exact(shuffled)


def test_kernel_basis_canonical_and_correct():
    ker = kernel_basis(RatMatrix([[F(1), F(1)], [F(0), F(0)]]))
    assert ker == [[F(-1), F(1)]]
    rng = random.Random(23)
    for _ in range(8):
        m = rand_matrix(rng, 4)
        ker = kernel_basis(m)
        assert len(ker) == 4 - rank_exact(m.rows)
        for v in ker:
            assert all(c == 0 for c in m.apply(v))


def test_solve_columns():
    cols = [[F(1), F(0)], [F(1), F(1)]]
    assert solve_columns(cols, [F(3), F(1)]) == [F(2), F(1)]
    assert solve_columns([[F(1), F(2)]], [F(0), F(1)]) is None
    # free coefficients default to zero
    assert solve_columns([[F(1), F(0)], [F(2), F(0)]], [F(3), F(0)]) == [F(3), F(0)]


def test_span_rank():
    assert rank_exact([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]) == 2
    assert rank_exact([]) == 0


def test_nilpotent_exp_frozen_and_group_law():
    n = RatMatrix([[F(0), F(1)], [F(0), F(0)]])
    assert nilpotent_powers(n) == [n]    # index 2: one nonzero power
    # the empty matrix is zero, so it has no nonzero power
    assert nilpotent_powers(RatMatrix.zero(0)) == []
    assert nilpotent_powers(RatMatrix.identity(2)) is None
    assert nilpotent_exp(RatMatrix.zero(0), F(3)) == RatMatrix.identity(0)
    e = nilpotent_exp(n, F(1))
    assert e == RatMatrix([[F(1), F(1)], [F(0), F(1)]])
    rng = random.Random(7)
    for _ in range(5):
        m = RatMatrix([[F(0) if c <= r else rand_vector(rng, 1)[0]
                        for c in range(4)] for r in range(4)])
        s = rand_vector(rng, 1)[0]
        assert nilpotent_exp(m, s) * nilpotent_exp(m, -s) == RatMatrix.identity(4)
    with pytest.raises(ValueError):
        nilpotent_exp(RatMatrix.identity(2), F(1))


def test_nilpotent_exp_forms_each_power_once(monkeypatch):
    calls = count_products(monkeypatch)
    square_zero = RatMatrix([[F(0), F(1), F(2)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]])
    assert nilpotent_exp(square_zero, F(3)) == RatMatrix([[F(1), F(3), F(6)], [F(0), F(1), F(0)],
                                                          [F(0), F(0), F(1)]])
    assert len(calls) == 1    # N^2, found zero
    cube_zero = RatMatrix([[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]])
    assert nilpotent_exp(cube_zero, F(2)) == RatMatrix([[F(1), F(2), F(2)], [F(0), F(1), F(2)],
                                                        [F(0), F(0), F(1)]])
    assert len(calls) == 3
    assert nilpotent_exp(RatMatrix.zero(0), F(1)) == RatMatrix.identity(0)
    assert nilpotent_exp(RatMatrix.zero(2), F(1)) == RatMatrix.identity(2)
    assert len(calls) == 3
    # s = 0 still needs m nilpotent: m^nrows != 0 is refused
    for m in (RatMatrix.identity(1), RatMatrix.identity(2),
              RatMatrix([[F(0), F(1)], [F(1), F(0)]])):
        with pytest.raises(ValueError):
            nilpotent_exp(m, F(0))


def test_mat_commutator():
    a = RatMatrix([[F(0), F(1)], [F(0), F(0)]])
    b = RatMatrix([[F(0), F(0)], [F(1), F(0)]])
    h = mat_commutator(a, b)
    assert h == RatMatrix([[F(1), F(0)], [F(0), F(-1)]])


def test_sparse_poly_arithmetic():
    x0 = variable(3, 0)
    x1 = variable(3, 1)
    x2 = variable(3, 2)
    p = x1 * x1 + x0 * x2 * F(4)
    assert partial(p, 2) == x0 * F(4)
    assert partial(p, 1) == x1 * F(2)
    assert eval_at(p, [F(1), F(2), F(3)]) == F(16)
    assert (p - p).is_zero()
    assert total_degree(p) == 2


def test_sparse_poly_exact_division():
    x = variable(1, 0)
    one = SparsePoly.const(1, 1)
    assert (x * x - one).exact_div(x - one) == x + one
    with pytest.raises(ArithmeticError):
        (x * x + one).exact_div(x - one)


def test_generic_rank():
    x = variable(2, 0)
    y = variable(2, 1)
    zero = SparsePoly.zero(2)
    assert bareiss_rank([[x, y], [y, -x]]) == 2
    assert bareiss_rank([[x, y], [x * 2, y * 2]]) == 1
    assert bareiss_rank([[zero, zero], [zero, zero]]) == 0
    # generic rank dominates the rank at any rational point
    rng = random.Random(3)
    mat = [[x + y, y], [y, x]]
    g = bareiss_rank(mat)
    for _ in range(5):
        pt = rand_vector(rng, 2)
        rows = [[eval_at(e, pt) for e in row] for row in mat]
        assert rank_exact(rows) <= g
