"""Seeded inputs for the benchmark, built with plain Fraction arithmetic.

Nothing here imports liepencil: the program only ever sees the files and
flags produced from these values.
"""

from __future__ import annotations

import random
from fractions import Fraction

N = 4          # matrix size of gl4 and sl4
MODULUS = 4    # Z4 grading w(E_ij) = (i - j) mod 4, weight 0 on every H_k


def _rng(seed, tag):
    return random.Random("%s:%s" % (tag, seed))


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def _add(a, b, c=Fraction(1)):
    return [[x + c * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _exp_nilpotent(x):
    """exp(x) for a nilpotent n x n matrix, as the finite sum to x^(n-1)."""
    n = len(x)
    acc = _identity(n)
    term = _identity(n)
    for k in range(1, n):
        term = [[v / k for v in row] for row in _matmul(term, x)]
        acc = _add(acc, term)
    return acc


def _unit(i, j):
    m = [[Fraction(0)] * N for _ in range(N)]
    m[i][j] = Fraction(1)
    return m


def basis(family):
    """(basis matrices, Z4 weights) in the order liepencil's `example` writes.

    gl: E_ij row-major.  sl: off-diagonal E_ij row-major, then
    H_k = E_kk - E_(k+1)(k+1).
    """
    mats, weights = [], []
    for i in range(N):
        for j in range(N):
            if family == "gl" or i != j:
                mats.append(_unit(i, j))
                weights.append((i - j) % MODULUS)
    if family == "sl":
        for k in range(N - 1):
            mats.append(_add(_unit(k, k), _unit(k + 1, k + 1), Fraction(-1)))
            weights.append(0)
    return mats, weights


def coords(family, m):
    """Coordinates of a matrix of the family in the basis of `basis`."""
    if family == "gl":
        return [m[i][j] for i in range(N) for j in range(N)]
    out = [m[i][j] for i in range(N) for j in range(N) if i != j]
    run = Fraction(0)
    for k in range(N - 1):       # sum_k c_k H_k has diagonal (c1, c2-c1, ...)
        run += m[k][k]
        out.append(run)
    return out


def conjugated_grading(family, rng):
    """D = A G A^-1 with A = exp(ad x) exp(ad y) = Ad(e^x e^y).

    G is the Z4 grading operator; x is strictly upper and y strictly lower
    triangular with entries drawn from +-1.  A is an automorphism, so D has
    the class of G: near with (a, b) = (0, -4).
    """
    x = [[Fraction(rng.choice((-1, 1))) if j > i else Fraction(0)
          for j in range(N)] for i in range(N)]
    y = [[Fraction(rng.choice((-1, 1))) if j < i else Fraction(0)
          for j in range(N)] for i in range(N)]
    neg = lambda m: [[-v for v in row] for row in m]
    g = _matmul(_exp_nilpotent(x), _exp_nilpotent(y))
    g_inv = _matmul(_exp_nilpotent(neg(y)), _exp_nilpotent(neg(x)))
    mats, weights = basis(family)
    dim = len(mats)
    columns = []
    for b in mats:
        c = coords(family, _matmul(_matmul(g_inv, b), g))          # A^-1 b
        graded = [[Fraction(0)] * N for _ in range(N)]
        for ck, wk, bk in zip(c, weights, mats):                    # G
            if ck and wk:
                graded = _add(graded, bk, ck * wk)
        columns.append(coords(family, _matmul(_matmul(g, graded), g_inv)))  # A
    return [[columns[j][i] for j in range(dim)] for i in range(dim)]


def operator_pool(seed, family, count):
    rng = _rng(seed, "operators-" + family)
    return [conjugated_grading(family, rng) for _ in range(count)]


# Covectors come from a fixed universe so that the committed byte-identity
# digests cover every covector any seed can pick.
COVECTOR_UNIVERSE = 64
SL3_DIM = 8


def covector_universe():
    rng = random.Random("covector-universe")
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(SL3_DIM)]
            for _ in range(COVECTOR_UNIVERSE)]


def covector_pool(seed, count):
    universe = covector_universe()
    return [universe[i] for i in _rng(seed, "covectors").sample(range(len(universe)), count)]


def report_seeds(seed):
    """Endless stream of `report --seed` values."""
    rng = _rng(seed, "report-seeds")
    while True:
        yield rng.randrange(1, 2 ** 31)


def format_fraction(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
