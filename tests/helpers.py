"""Shared random generators and readers for the test suite.

Coefficients stay small (numerators in a narrow band, denominators from
{1, 2, 3}) so exact arithmetic never blows up mid-suite.

The readers below are what only the tests ask of a matrix, a polynomial or
a Poisson structure: columns, transposes and inverses, a polynomial's
`Fraction` terms, partials and values, and a bracket entry in either
order.  Each is a function of the object's integer form (`den`, `ints`),
and each result is built with the trusted constructor `_of`.
"""

from fractions import Fraction
from math import lcm, prod

from liepencil.exact import ZERO, RatMatrix, SparsePoly, _ratio, _reduce

DENOMINATORS = (1, 1, 2, 3)


def rand_rat(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def rand_vector(rng, n, lo=-6, hi=6):
    return [rand_rat(rng, lo, hi) for _ in range(n)]


def rand_matrix(rng, n, lo=-6, hi=6):
    return RatMatrix([[rand_rat(rng, lo, hi) for _ in range(n)]
                      for _ in range(n)])


# matrices

def col(m, j):
    return [_ratio(row[j], m.den) for row in m.ints]


def columns(m):
    d = m.den
    return [[_ratio(x, d) for x in c] for c in zip(*m.ints)]


def transpose(m):
    return RatMatrix._of(m.den, [list(c) for c in zip(*m.ints)])


def inverse(m):
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n, d = m.nrows, m.den
    # [ints | d I] is [m | I] with every row scaled by d
    pivots, R = _reduce([row + [d * (i == j) for j in range(n)]
                         for i, row in enumerate(m.ints)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    L = lcm(*(row[i] for i, row in enumerate(R)))
    return RatMatrix._of(L, [[x * (L // row[i]) for x in row[n:]]
                             for i, row in enumerate(R)])


# polynomials

def variable(nvars, i):
    exps = [0] * nvars
    exps[i] = 1
    return SparsePoly._of(nvars, 1, {tuple(exps): 1})


def linear(coeffs):
    """Linear form sum_i coeffs[i] * x_i."""
    n = len(coeffs)
    return SparsePoly(n, {tuple(int(j == i) for j in range(n)): c
                          for i, c in enumerate(coeffs) if c})


def terms(p):
    """{exponent tuple: nonzero Fraction} of a polynomial."""
    d = p.den
    return {e: Fraction(c, d) for e, c in p.ints.items()}


def partial(p, i):
    """Formal partial derivative with respect to variable i."""
    out = {}
    for e, c in p.ints.items():
        k = e[i]
        if k:
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
    return SparsePoly._of(p.nvars, p.den, out)


def eval_at(p, point):
    """Evaluate at a rational point given as a sequence."""
    point = [Fraction(x) for x in point]
    return sum((c * prod(x ** k for x, k in zip(point, e))
                for e, c in p.ints.items()), ZERO) / p.den


def coeff_vector(p, monomials):
    """Coefficients with respect to an ordered monomial list."""
    d = p.den
    return [_ratio(p.ints.get(m, 0), d) for m in monomials]


# Poisson structures

def entry(struct, i, j):
    """{x_i, x_j} for any pair order."""
    if i == j:
        return SparsePoly.zero(struct.nvars)
    if i < j:
        return struct.table.get((i, j), SparsePoly.zero(struct.nvars))
    return -struct.table.get((j, i), SparsePoly.zero(struct.nvars))
