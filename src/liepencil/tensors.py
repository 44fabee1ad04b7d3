"""Structure tensors, derived operations, operator classification, pencils.

A structure tensor stores the constants c_ij^k of a bilinear operation
psi(x_i, x_j) = sum_k c_ij^k x_k on a fixed basis.  The derived operation of
psi along an operator D is

    psi'_D(x, y) = D(psi(x, y)) - psi(Dx, y) - psi(x, Dy),

the action of gl(V) on (1,2)-tensors.  Iterating it classifies D relative to
psi: derivations (psi' = 0), quasi-derivations (psi'' = 0), and the wider
class where psi'' = a*psi + b*psi' for scalars (a, b), which spans a pencil
of operations with exactly one or two degenerate lines.

The two hot kernels run on integers: they clear each tensor's (and each
operator's) denominators once, loop over integers, and build a `Fraction`
only for a returned entry.  `contract` evaluates every tensor of the form
sum_t c_t * O_t psi(A_t x, B_t y): the derived operation here, and the
torsion, both sides of the exponential identities and the nilpotent-square
checks elsewhere.  `check_jacobi` is the other kernel.

There is one way to build a tensor: the validating constructor for tables
that arrive from outside, and the trusted `StructureTensor._of` for tables
the library has already built clean.  Tables over basis pairs are filled by
`pair_table`, and a skew table is always completed by `skew_table`, which
writes each mirror entry (j, i) as the negated (i, j) vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import (ONE, ZERO, RatMatrix, _cleared, mat_commutator,
                    rank_exact, rational_sqrt, solve_columns)

TAG_DERIVATION = "derivation"
TAG_SCALAR = "scalar-type"
TAG_QUASI = "quasi"
TAG_NEAR = "near"
TAG_NOT_NEAR = "not-near"

MODE_NILPOTENT = "nilpotent"
MODE_SEMISIMPLE = "semisimple"


class IrrationalEigenvalues(ValueError):
    """Pencil eigenvalues fall outside Q; carries the offending (a, b)."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        super().__init__(
            "discriminant b^2 + 4a = %s is not a rational square (a=%s, b=%s)"
            % (b * b + 4 * a, a, b))


class PreconditionViolated(ValueError):
    """A hypothesis check failed; carries the first failing power."""

    def __init__(self, power, side):
        self.power = power
        self.side = side
        super().__init__("vanishing hypothesis fails at D^%d on the %s argument"
                         % (power, side))


class IdentityFailed(ArithmeticError):
    """An identity that guards a returned result does not hold (a bug)."""


class StructureTensor:
    """Structure constants of a bilinear operation on a based vector space.

    The table maps ordered basis pairs (i, j) to sparse value vectors
    {k: c_ij^k}; zero vectors are never stored, so equality is literal
    table equality.  `StructureTensor(dim, table, labels)` validates and
    copies a table from outside (files, tests); `_of` wraps a table the
    library built clean, without a copy.

    Instances are immutable: every operation returns a new tensor, and no
    code assigns to or mutates `table` after construction.  The caches
    rely on it: `_skew` holds the `is_skew` verdict and `_jacobi` the
    `check_jacobi` result, each computed at most once per tensor.
    """

    __slots__ = ("dim", "labels", "table", "_skew", "_jacobi")

    def __init__(self, dim, table=None, labels=None):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple("x%d" % i for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        self.table = {}
        if table:
            for (i, j), vec in table.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ValueError("basis index out of range")
                clean = {}
                for k, c in vec.items():
                    c = Fraction(c)
                    if c:
                        if not 0 <= k < dim:
                            raise ValueError("value index out of range")
                        clean[k] = c
                if clean:
                    self.table[(i, j)] = clean
        self._skew = self._jacobi = None

    @classmethod
    def _of(cls, dim, table, labels):
        """Trusted constructor: table is already clean (nonzero Fraction
        values, indices below dim) and labels a tuple of dim strings; the
        table is kept as it is, no copy and no check."""
        t = object.__new__(cls)
        t.dim = dim
        t.labels = labels
        t.table = table
        t._skew = t._jacobi = None
        return t

    @classmethod
    def zero(cls, dim, labels=None):
        return cls(dim, {}, labels)

    def bracket(self, i, j):
        """Sparse value vector of psi(x_i, x_j)."""
        return self.table.get((i, j), {})

    def coeff(self, i, j, k):
        return self.table.get((i, j), {}).get(k, ZERO)

    def apply(self, x, y):
        """Bilinear evaluation on dense coordinate vectors; returns a dense list."""
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                vec = self.table.get((i, j))
                if vec:
                    c = xi * yj
                    for k, ck in vec.items():
                        out[k] += c * ck
        return out

    def is_zero(self):
        return not self.table

    def is_skew(self):
        if self._skew is None:
            self._skew = check_skew(self)[0]
        return self._skew

    def __eq__(self, other):
        return (isinstance(other, StructureTensor) and self.dim == other.dim
                and self.table == other.table)

    def __hash__(self):
        return hash((self.dim, tuple(sorted((ij, tuple(sorted(v.items())))
                                            for ij, v in self.table.items()))))

    def __add__(self, other):
        return tensor_combination([(ONE, self), (ONE, other)])

    def __sub__(self, other):
        return tensor_combination([(ONE, self), (-ONE, other)])

    def __neg__(self):
        return self.scale(-ONE)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return StructureTensor.zero(self.dim, self.labels)
        return StructureTensor._of(self.dim, {ij: {k: c * v for k, v in vec.items()}
                                              for ij, vec in self.table.items()},
                                   self.labels)

    def support(self):
        for (i, j), vec in sorted(self.table.items()):
            for k in sorted(vec):
                yield (i, j, k, vec[k])

    def __repr__(self):
        bits = ["[%s,%s]->%s" % (self.labels[i], self.labels[j],
                                 "+".join("%s%s" % (c, self.labels[k])
                                          for k, c in sorted(vec.items())))
                for (i, j), vec in sorted(self.table.items()) if i < j or not self.is_skew()]
        return "StructureTensor(dim=%d, %s)" % (self.dim, "; ".join(bits))


def tensor_combination(pairs):
    """Exact linear combination sum_i c_i * T_i of same-dimension tensors."""
    dim = pairs[0][1].dim
    labels = pairs[0][1].labels
    acc = {}
    for c, t in pairs:
        c = Fraction(c)
        if not c or t.is_zero():
            continue
        if t.dim != dim:
            raise ValueError("dimension mismatch")
        for ij, vec in t.table.items():
            slot = acc.setdefault(ij, {})
            for k, v in vec.items():
                s = slot.get(k, ZERO) + c * v
                if s:
                    slot[k] = s
                else:
                    slot.pop(k, None)
    return StructureTensor._of(dim, {ij: vec for ij, vec in acc.items() if vec}, labels)


def skew_table(upper):
    """The skew table whose upper triangle is upper ({(i, j): vec}, i < j).

    Each entry is followed by its mirror (j, i) with the vector negated, so
    the key order is that of upper with every mirror right after its pair.
    """
    table = {}
    for (i, j), vec in upper.items():
        table[(i, j)] = vec
        table[(j, i)] = {k: -c for k, c in vec.items()}
    return table


def pair_table(n, entry, skew=False):
    """{(i, j): entry(i, j)} over basis pairs in row-major order, empty
    entries dropped.  With skew, only the pairs i < j are computed and the
    table is completed by `skew_table`."""
    table = {}
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            vec = entry(i, j)
            if vec:
                table[(i, j)] = vec
    return skew_table(table) if skew else table


def _cleared_table(tensor):
    """(L, {(i, j): {k: int}}): the table times L, the lcm of its denominators.

    Integer arithmetic only; keys keep the table's insertion order.  The
    clearing rule is `exact._cleared`, applied to the table's vectors.
    """
    L, vecs = _cleared(tensor.table.values())
    return L, dict(zip(tensor.table, vecs))


def _swap_closed(terms):
    """Whether terms, as a multiset, is unchanged by swapping A and B."""
    swapped = [(c, o, b, a) for c, o, a, b in terms]
    return all(terms.count(t) == swapped.count(t) for t in terms)


def contract(tensor, terms):
    """sum_t c_t * O_t psi(A_t x_i, B_t x_j) over basis pairs, as a tensor.

    terms is a list of (c, O, A, B): a rational c and operators O, A, B,
    each None for the identity.  Runs on integers: psi is cleared to T / L
    and each distinct operator to M_int / d_M, so term t is an integer over
    its denominator den_t (c's times those of O, A and B), and every entry
    is an integer over lcm(den_t) * L; `Fraction` appears only in what is
    returned.  Zero tests on the scaled integers match those on the
    rationals, and terms accumulate in list order, so key order follows the
    rational computation.  When psi is skew and the term list is unchanged
    by swapping A and B, the result is skew: only the pairs i < j are
    computed and `pair_table` mirrors them.
    """
    n = tensor.dim
    unit = [[(i, 1)] for i in range(n)]
    # each operator as sparse integer columns over its denominator, keyed by
    # id; id(None) keys the identity
    cleared = {id(None): (1, unit)}
    for m in (m for t in terms for m in t[1:]):
        if id(m) in cleared:
            continue
        if m.nrows != n or m.ncols != n:
            raise ValueError("operator shape mismatch")
        d = lcm(*(x.denominator for row in m.rows for x in row))
        cleared[id(m)] = d, [[(r, x.numerator * (d // x.denominator))
                              for r, x in enumerate(col) if x] for col in m.columns()]
    L, tab = _cleared_table(tensor)
    scaled = []
    for c, *ops in terms:
        c = Fraction(c)
        (do, O), (da, A), (db, B) = (cleared[id(m)] for m in ops)
        scaled.append((c.numerator, c.denominator * do * da * db, O, A, B))
    M = lcm(*(den for _, den, _, _, _ in scaled))
    weighted = [(num * (M // den), O, A, B, O is unit) for num, den, O, A, B in scaled]
    empty = {}

    def entry(i, j):
        acc = {}
        for w, O, A, B, direct in weighted:
            # psi(A x_i, B x_j), into acc when O is the identity
            out = acc if direct else {}
            for k, a in A[i]:
                for l, b in B[j]:
                    ab = w * a * b if direct else a * b
                    for m, cm in tab.get((k, l), empty).items():
                        s = out.get(m, 0) + ab * cm
                        if s:
                            out[m] = s
                        else:
                            out.pop(m, None)
            if not direct:
                for k, c in out.items():
                    c *= w
                    for r, o in O[k]:
                        s = acc.get(r, 0) + c * o
                        if s:
                            acc[r] = s
                        else:
                            acc.pop(r, None)
        return acc

    den = M * L
    table = pair_table(n, lambda i, j: {k: Fraction(v, den) for k, v in entry(i, j).items()},
                       _swap_closed(terms) and tensor.is_skew())
    return StructureTensor._of(n, table, tensor.labels)


def derived(tensor, op):
    """The derived operation rho(D).T = D T - T(D., .) - T(., D.), as a tensor.

    One `contract` call; for a skew tensor the result is skew again.
    """
    return contract(tensor, [(1, op, None, None), (-1, None, op, None), (-1, None, None, op)])


def derived_iter(tensor, op, k):
    """k-fold derived operation rho(D)^k . T."""
    if k < 0:
        raise ValueError("negative iteration count")
    t = tensor
    for _ in range(k):
        t = derived(t, op)
    return t


def is_derivation(tensor, op):
    return derived(tensor, op).is_zero()


def check_skew(tensor):
    """Antisymmetry check; returns (ok, witness pair or None)."""
    n = tensor.dim
    for i in range(n):
        if tensor.bracket(i, i):
            return False, (i, i)
        for j in range(i + 1, n):
            vec = tensor.bracket(i, j)
            mirror = tensor.bracket(j, i)
            if mirror != {k: -c for k, c in vec.items()}:
                return False, (i, j)
    return True, None


def check_jacobi(tensor):
    """Cyclic Jacobi sum over basis triples; returns (ok, witness or None).

    Runs on the table cleared to integers over L: each Jacobi sum times L^2
    is an integer, zero exactly when the rational sum is.  For a skew tensor
    the triples i < j < k suffice; otherwise all ordered triples are checked.
    The result is kept on the tensor, so each tensor is checked once.
    """
    if tensor._jacobi is not None:
        return tensor._jacobi
    n = tensor.dim
    skew = tensor.is_skew()
    _, tab = _cleared_table(tensor)
    empty = {}

    def jac(i, j, k):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = tab.get((a, b), empty)
            for m, cm in inner.items():
                w = tab.get((m, c), empty)
                for r, cr in w.items():
                    s = acc.get(r, 0) + cm * cr
                    if s:
                        acc[r] = s
                    else:
                        acc.pop(r, None)
        return acc

    if skew:
        triples = ((i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n))
    else:
        triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    witness = next((t for t in triples if jac(*t)), None)
    tensor._jacobi = (witness is None, witness)
    return tensor._jacobi


def is_lie(tensor):
    return tensor.is_skew() and check_jacobi(tensor)[0]


def ad(tensor, x):
    """Matrix of v -> psi(x, v) for a coordinate vector x."""
    n = tensor.dim
    rows = [[ZERO] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j in range(n):
            vec = tensor.bracket(i, j)
            for k, c in vec.items():
                rows[k][j] += xi * c
    return RatMatrix(rows)


def _flatten(tensors):
    keys = sorted({(i, j, k) for t in tensors for (i, j), vec in t.table.items()
                   for k in vec})
    return [[t.coeff(i, j, k) for (i, j, k) in keys] for t in tensors]


@dataclass
class PencilAction:
    """Classification of an operator against a structure tensor.

    dim_u is the dimension of span{T, T'}; for tags "quasi" and "near" the
    scalars satisfy T'' = a*T + b*T' exactly, with (a, b) = (0, 0) in the
    quasi case.  For "scalar-type", scalar holds the ratio T' = scalar * T.
    """

    tensor: StructureTensor
    operator: RatMatrix
    derived: StructureTensor
    second: StructureTensor
    dim_u: int
    tag: str
    a: Fraction | None = None
    b: Fraction | None = None
    scalar: Fraction | None = None


def classify_operator(tensor, op):
    """Classify D by solving rho(D)^2.T = a*T + b*rho(D).T exactly."""
    t1 = derived(tensor, op)
    if t1.is_zero():
        return PencilAction(tensor, op, t1, t1, 1, TAG_DERIVATION)
    t2 = derived(t1, op)
    v0, v1, v2 = _flatten([tensor, t1, t2])
    if rank_exact([v0, v1]) == 1:
        idx = next(i for i, c in enumerate(v0) if c)
        return PencilAction(tensor, op, t1, t2, 1, TAG_SCALAR,
                            scalar=v1[idx] / v0[idx])
    sol = solve_columns([v0, v1], v2)
    if sol is None:
        return PencilAction(tensor, op, t1, t2, 2, TAG_NOT_NEAR)
    a, b = sol
    if a == 0 and b == 0:
        return PencilAction(tensor, op, t1, t2, 2, TAG_QUASI, a=a, b=b)
    return PencilAction(tensor, op, t1, t2, 2, TAG_NEAR, a=a, b=b)


@dataclass
class NormalizedPencil:
    """Pencil data after shifting D by the smaller root of t^2 - b*t - a.

    The normalized operator satisfies rho(D1)^2.T = (lambda2-lambda1)*rho(D1).T,
    so the new coefficient pair is (0, lambda2 - lambda1).  Nilpotent mode
    (equal roots) has a single degenerate line, spanned by rho(D1).T;
    semisimple mode adds the line of b*T - rho(D1).T.
    """

    shift: Fraction
    lambda2: Fraction
    operator: RatMatrix
    mode: str
    base: StructureTensor
    derived: StructureTensor
    b: Fraction
    degenerate_lines: list

    @property
    def eigenvalues(self):
        return (ZERO, self.b)


def normalize_pencil(action):
    """Normalize a quasi or near pencil action; may raise IrrationalEigenvalues."""
    if action.tag not in (TAG_QUASI, TAG_NEAR):
        raise ValueError("only quasi and near actions normalize (got %r)" % action.tag)
    a, b = action.a, action.b
    if a == 0:
        lam1, lam2 = ZERO, b
    else:
        disc = b * b + 4 * a
        root = rational_sqrt(disc)
        if root is None:
            raise IrrationalEigenvalues(a, b)
        lam1 = (b - root) / 2
        lam2 = (b + root) / 2
    if lam1 == 0:
        d1, t1, t2 = action.operator, action.derived, action.second
    else:
        d1 = action.operator + RatMatrix.identity(action.operator.nrows).scale(lam1)
        t1 = derived(action.tensor, d1)
        t2 = derived(t1, d1)
    bnew = lam2 - lam1
    if t2 != t1.scale(bnew):
        raise IdentityFailed("pencil normalization failed")
    mode = MODE_NILPOTENT if bnew == 0 else MODE_SEMISIMPLE
    lines = [t1]
    if mode == MODE_SEMISIMPLE:
        lines.append(action.tensor.scale(bnew) - t1)
    return NormalizedPencil(lam1, lam2, d1, mode, action.tensor, t1, bnew, lines)


def check_vanishing_propagation(tensor, op, x, y, n):
    """Check psi(D^i x, D^j y) = 0 for i + j <= n given the edge hypothesis.

    Hypothesis (checked, PreconditionViolated on failure): psi(D^i x, y) and
    psi(x, D^i y) vanish for all i <= n.  The conclusion is evaluated by brute
    force and returned as a boolean.
    """
    xs = [list(x)]
    ys = [list(y)]
    for _ in range(n):
        xs.append(op.apply(xs[-1]))
        ys.append(op.apply(ys[-1]))
    for i in range(n + 1):
        if any(tensor.apply(xs[i], ys[0])):
            raise PreconditionViolated(i, "left")
        if any(tensor.apply(xs[0], ys[i])):
            raise PreconditionViolated(i, "right")
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if any(tensor.apply(xs[i], ys[j])):
                return False
    return True


def shift_by_derivation(tensor, op, der):
    """Derived tensors of D + d for a derivation d.

    Returns (rho(D+d).T, rho(D+d)^2.T) and checks the two shift identities:
    the first derived tensor is unchanged and the second moves by the derived
    tensor along the commutator [d, D].
    """
    if not is_derivation(tensor, der):
        raise ValueError("shift operator is not a derivation of the tensor")
    shifted = op + der
    t1 = derived(tensor, shifted)
    t2 = derived(t1, shifted)
    base1 = derived(tensor, op)
    base2 = derived(base1, op)
    if t1 != base1:
        raise IdentityFailed("first derived tensor moved under a derivation shift")
    corr = derived(tensor, mat_commutator(der, op))
    if t2 != base2 + corr:
        raise IdentityFailed("second derived shift identity failed")
    return t1, t2
