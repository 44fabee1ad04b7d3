"""Structural invariants of Lie tensors: centre, index, lower central series."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exact import _Echelon, _pivots_mod, generic_rank
from .tensors import is_lie

# the probabilistic index draws covector entries from [-SAMPLE_BOUND, SAMPLE_BOUND]
SAMPLE_BOUND = 10 ** 6


@dataclass
class IndexReport:
    """Index of a Lie tensor with the method that produced it.

    A probabilistic result is a certificate for the rank lower bound (hence
    an index upper bound) that is correct with overwhelming probability; the
    exact-symbolic method computes the generic rank of the structure matrix
    over the rational function field, as the rank at one point proved
    generic by Pfaffians (`generic_rank`).
    """

    dim: int
    rank: int
    index: int
    method: str
    samples: int = 0
    note: str = ""


def lie_centre(tensor):
    """Canonical basis of {x : [x, e_j] = 0 for all j}.

    The centrality system has one sparse row per (j, k) and one column per
    i, with entry c_ij^k; its rows are read as ints off the tensor's
    integer form, and an `_Echelon` takes them without a copy.  Scaling
    every row by the form's denominator leaves the reduced row echelon
    form, hence the canonical kernel basis, unchanged.
    """
    _, tab = tensor.integer_form()
    rows = {}
    for (i, j), vec in tab.items():
        for k, c in vec.items():
            rows.setdefault((j, k), {})[i] = c
    return _Echelon(list(rows.values())).kernel(tensor.dim)


def lie_index(tensor, mode="prob", samples=5, seed=None, least_index=0):
    """dim minus the generic rank of the bracket form.

    mode "prob" samples integer covectors xi and takes the maximal rank of
    the structure matrix evaluated at xi; mode "exact" passes `generic_rank`
    the bracket form as the integer linear forms {k: L c_ij^k}, L as below,
    which takes the rank at one fixed point and proves it generic: the form is
    skew, so that rank is generic unless a Pfaffian of the point's
    nonsingular pivot block bordered by two more indices is nonzero; the
    CLI caps its dimension (--max-exact-dim).  The probabilistic mode runs
    on integers: the table is cleared once to integers over its lcm L, and
    the entry i < j at xi is the int sum_k L c_ij^k xi_k, mirrored with its
    sign below the diagonal.  Scaling by L does not change the rank.  Each
    sample's rank is taken mod `exact.PRIME` by `_pivots_mod`, on rows
    packed into one int each and updated whole by one multiply-add and two
    Mersenne folds; it is never above the rank over Q, so the maximum stays
    a certified lower bound on the generic rank and the index an upper
    bound.  It differs from the rank over Q only where the prime divides
    every maximal minor at every sample.  least_index is a proven lower
    bound on the index, such as dim z (the centre lies in every stabiliser)
    or the exact index: no sample's rank exceeds n - least_index, so
    sampling stops once a sample reaches it, and the maximum is the one all
    the samples would give.
    """
    ok = is_lie(tensor)
    if not ok:
        raise ValueError("index is defined for Lie tensors only")
    n = tensor.dim
    if mode == "exact":
        _, tab = tensor.integer_form()
        r = generic_rank([[tab.get((i, j), {}) for j in range(n)] for i in range(n)])
        return IndexReport(n, r, n - r, "exact-symbolic")
    if mode != "prob":
        raise ValueError("unknown mode %r" % (mode,))
    rng = random.Random(seed)
    best = 0
    _, tab = tensor.integer_form()
    upper = [(i, j, list(vec.items())) for (i, j), vec in tab.items() if i < j]
    for _ in range(samples):
        point = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i, j, vec in upper:
            v = sum(c * point[k] for k, c in vec)
            rows[i][j] = v
            rows[j][i] = -v
        best = max(best, len(_pivots_mod(rows)))
        if best == n - least_index:
            break
    return IndexReport(n, best, n - best, "probabilistic", samples=samples,
                       note="rank is a lower bound; index an upper bound")


def lower_central_series(tensor):
    """Dimensions of the descending series g, [g,g], [g,[g,g]], ...

    Stops when the dimension stabilises or reaches zero.  Runs on {k: int}
    rows of the integer form T / L, which go to an `_Echelon` as they are
    built: [g,g] is spanned by copies of the T_ij, and each later term by
    psi(x, e_j) = sum_i x_i T_ij / L, summed over the nonzero x_i of each
    reduced row x of the term before.  Scaling a spanning vector by a
    nonzero constant leaves its span, hence every rank, unchanged.
    """
    n = tensor.dim
    _, tab = tensor.integer_form()
    by_column = {}   # j -> {i: T_ij}
    for (i, j), vec in tab.items():
        by_column.setdefault(j, {})[i] = vec
    dims = [n]
    span = [dict(vec) for rows in by_column.values() for vec in rows.values()]
    while True:
        _, basis = _Echelon(span).reduced()
        r = len(basis)
        dims.append(r)
        if r == 0 or r == dims[-2]:
            break
        span = []
        for x in basis:
            for rows in by_column.values():
                acc = {}
                for i, xi in x.items():
                    for k, c in rows.get(i, {}).items():
                        acc[k] = acc.get(k, 0) + xi * c
                if any(acc.values()):
                    span.append({k: v for k, v in acc.items() if v})
    return dims
