"""Structure tensors, derived operations, operator classification, pencils.

A structure tensor stores the constants c_ij^k of a bilinear operation
psi(x_i, x_j) = sum_k c_ij^k x_k on a fixed basis.  The derived operation of
psi along an operator D is

    psi'_D(x, y) = D(psi(x, y)) - psi(Dx, y) - psi(x, Dy),

the action of gl(V) on (1,2)-tensors.  Iterating it classifies D relative to
psi: derivations (psi' = 0), quasi-derivations (psi'' = 0), and the wider
class where psi'' = a*psi + b*psi' for scalars (a, b), which spans a pencil
of operations with exactly one or two degenerate lines.

Every tensor has one integer form, (den, {(i, j): {k: int}}): its table as
integers over one denominator, computed at most once per tensor or handed
over by the kernel that built it (`StructureTensor.integer_form`).  The
kernels run on these forms and build a `Fraction` only for a returned
scalar: a kernel result carries only its form, and its `Fraction` table is
built from the form the first time something reads `.table`.  `contract`
evaluates every tensor of the form
sum_t c_t * O_t psi(A_t x, B_t y): the derived operation here, and the
torsion, both sides of the exponential identities and the nilpotent-square
checks elsewhere.  `tensor_combination`, `scale`, `check_skew` and equality
work on integer forms; `check_jacobi` packs each vector of the form into
one int, so a cyclic term is one big-int multiply-add.

`classify_operator` computes T'' = rho(D).T' the same way, in
`_pencil_pass`: one packed int per basis pair, from at most 3n big-int
multiply-adds where `contract` does up to 3n^2 dict updates.  T'' alone
needs a width w with 2^(w-1) > 3 n B_D B_T' (B the largest integer entry),
so its fields are balanced digits.  The pencil system T'' = a T + b T' is
checked on the packed ints at a w that also covers the multiples the check
takes (see `classify_operator`), with (a, b) from T'' at two coordinates,
and `normalize_pencil`'s guard T''_1 == b_1 T'_1 runs on packed ints too.  The
dict form of T'' is built, by `derived`, only when something reads it;
a zero T'' (the quasi case) gets the empty form without it.

There is one way to build a tensor: the validating constructor for tables
that arrive from outside, and the trusted `StructureTensor._of` for tables
or integer forms the library has already built clean.  Tables over basis
pairs are filled by `pair_table`, and a skew table is always completed by
`skew_table`, which writes each mirror entry (j, i) as the negated (i, j)
vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .exact import ONE, ZERO, RatMatrix, _cleared, _reduced, mat_commutator, rational_sqrt

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
    library built clean, without a copy, or only an integer form.  A
    kernel result holds only its form: its `table` slot stays unset until
    the first read, when `__getattr__` builds the `Fraction` table from the
    form and stores it, so every later read is a plain slot read.  The
    form itself may be deferred, as for the T'' of `classify_operator`: a
    function in the `_integer` slot builds it on first use.

    Instances are immutable: every operation returns a new tensor, and no
    code assigns to or mutates `table` after construction, apart from that
    one fill.  The caches rely on it: `_integer` holds the `integer_form`,
    `_skew` the `is_skew` verdict and `_jacobi` the `check_jacobi` result,
    each computed at most once per tensor.
    """

    __slots__ = ("dim", "labels", "table", "_integer", "_skew", "_jacobi")

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
        self._integer = self._skew = self._jacobi = None

    @classmethod
    def _of(cls, dim, table, labels, integer=None):
        """Trusted constructor: table is already clean (nonzero Fraction
        values, indices below dim) and labels a tuple of dim strings; the
        table is kept as it is, no copy and no check.  A kernel that holds
        the table's integer form passes it as integer; with table None the
        form alone stands for the tensor, and the table is built from it
        on first read.  integer may also be a zero-argument function that
        returns the form, called on the form's first use."""
        t = object.__new__(cls)
        t.dim = dim
        t.labels = labels
        if table is not None:
            t.table = table
        t._integer = integer
        t._skew = t._jacobi = None
        return t

    def __getattr__(self, name):
        """Fills `table` from the integer form on its first read; runs only
        while a slot is unset, and any other unset name is an error."""
        if name != "table":
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        den, ints = self.integer_form()
        self.table = {ij: {k: Fraction(v, den) for k, v in vec.items()}
                      for ij, vec in ints.items()}
        return self.table

    def integer_form(self):
        """(den, {(i, j): {k: int}}): the table as integers over one
        denominator, table[(i, j)][k] == Fraction(ints[(i, j)][k], den).

        Keys keep the table's order.  den is the lcm of the table's
        denominators unless a kernel handed over its own form, or a
        function that builds it, which runs here on the first call.
        """
        form = self._integer
        if form is None:
            den, vecs = _cleared(self.table.values())
            form = self._integer = den, dict(zip(self.table, vecs))
        elif callable(form):
            form = self._integer = form()
        return form

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
        return not (self.table if self._integer is None else self.integer_form()[1])

    def is_skew(self):
        if self._skew is None:
            self._skew = check_skew(self)[0]
        return self._skew

    def __eq__(self, other):
        return (isinstance(other, StructureTensor) and self.dim == other.dim
                and _same_form(self.integer_form(), other.integer_form()))

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
        return tensor_combination([(c, self)])

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


def _same_form(x, y):
    """Whether the integer forms x = (den, ints) and y stand for one table;
    the entries are compared across the two denominators."""
    (dx, tx), (dy, ty) = x, y
    if dx == dy:
        return tx == ty
    return tx.keys() == ty.keys() and all(
        vec.keys() == ty[ij].keys() and all(v * dy == ty[ij][k] * dx for k, v in vec.items())
        for ij, vec in tx.items())


def tensor_combination(pairs):
    """Exact linear combination sum_i c_i * T_i of same-dimension tensors.

    Runs on the integer forms: c_t * T_t is an integer table over
    c_t's denominator times den_t, and the sum accumulates over the lcm of
    those in pair order, so key order and zero tests follow the rational
    sum.  The result carries only its integer form, divided by its gcd.
    """
    dim = pairs[0][1].dim
    labels = pairs[0][1].labels
    scaled = []
    for c, t in pairs:
        c = Fraction(c)
        if not c or t.is_zero():
            continue
        if t.dim != dim:
            raise ValueError("dimension mismatch")
        den, ints = t.integer_form()
        scaled.append((c.numerator, c.denominator * den, ints))
    den = lcm(*(d for _, d, _ in scaled))
    acc = {}
    for num, d, ints in scaled:
        w = num * (den // d)
        for ij, vec in ints.items():
            slot = acc.setdefault(ij, {})
            for k, v in vec.items():
                s = slot.get(k, 0) + w * v
                if s:
                    slot[k] = s
                else:
                    slot.pop(k, None)
    form = _reduced(den, {ij: vec for ij, vec in acc.items() if vec})
    return StructureTensor._of(dim, None, labels, form)


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


def _pairs(n, skew):
    """The basis pairs (i, j) in row-major order; only i < j with skew."""
    return ((i, j) for i in range(n) for j in range(i + 1 if skew else 0, n))


def pair_table(n, entry, skew=False):
    """{(i, j): entry(i, j)} over basis pairs in row-major order, empty
    entries dropped.  With skew, only the pairs i < j are computed and the
    table is completed by `skew_table`."""
    table = {}
    for i, j in _pairs(n, skew):
        vec = entry(i, j)
        if vec:
            table[(i, j)] = vec
    return skew_table(table) if skew else table


def _swap_closed(terms):
    """Whether terms, as a multiset, is unchanged by swapping A and B."""
    swapped = [(c, o, b, a) for c, o, a, b in terms]
    return all(terms.count(t) == swapped.count(t) for t in terms)


def contract(tensor, terms):
    """sum_t c_t * O_t psi(A_t x_i, B_t x_j) over basis pairs, as a tensor.

    terms is a list of (c, O, A, B): a rational c and operators O, A, B,
    each None for the identity.  Runs on integers: psi is its integer form
    T / L and each operator O is its integer form O_int / d_O, so term t is
    an integer over its denominator den_t (c's times those of O, A and B),
    and every entry is an integer over lcm(den_t) * L.  That integer table,
    divided by its gcd, is the result's integer form, and the result
    carries only that form; `Fraction` appears when its table is first
    read.  Zero tests on the scaled integers match those on the rationals,
    and terms accumulate in list order, so key order follows the rational
    computation.  When psi is skew and the term
    list is unchanged by swapping A and B, the result is skew: only the
    pairs i < j are computed and `pair_table` mirrors them.

    `derived`, the torsion and the exponential identities run here.
    `classify_operator` runs T'' = rho(D).T' as packed ints instead
    (`_pencil_pass`), and calls `derived` for the dict form of T'' only
    when that tensor is read.
    """
    n = tensor.dim
    unit = [[(i, 1)] for i in range(n)]
    # each operator's form as sparse integer columns over its denominator,
    # keyed by id; id(None) keys the identity
    cleared = {id(None): (1, unit)}
    for m in (m for t in terms for m in t[1:]):
        if id(m) in cleared:
            continue
        if m.nrows != n or m.ncols != n:
            raise ValueError("operator shape mismatch")
        cleared[id(m)] = m.den, [[(r, x) for r, x in enumerate(col) if x]
                                 for col in zip(*m.ints)]
    L, tab = tensor.integer_form()
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

    ints = pair_table(n, entry, _swap_closed(terms) and tensor.is_skew())
    return StructureTensor._of(n, None, tensor.labels, _reduced(M * L, ints))


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
    """Antisymmetry check on the integer form; returns (ok, witness pair or None)."""
    n = tensor.dim
    _, tab = tensor.integer_form()
    empty = {}
    for i in range(n):
        if (i, i) in tab:
            return False, (i, i)
        for j in range(i + 1, n):
            vec = tab.get((i, j), empty)
            if tab.get((j, i), empty) != {k: -c for k, c in vec.items()}:
                return False, (i, j)
    return True, None


def check_jacobi(tensor):
    """Cyclic Jacobi sum over basis triples; returns (ok, witness or None).

    Runs on the integer form T / L: each Jacobi sum times L^2 is the vector
    J_r = sum over the cyclic (a, b, c) and over m of T_ab^m T_mc^r, zero
    exactly when the rational sum is.  Each vector T_mc is packed into one
    int, sum_r T_mc^r * 2^(w r), so a cyclic term costs one big-int
    multiply-add per m and the packed J is sum_r J_r * 2^(w r).  With B the
    largest |T| entry, |J_r| <= 3 n B^2 < 2^w for w the bit length of
    3 n B^2; so the lowest nonzero field of J is not divisible by 2^w, and
    the packed J is 0 exactly when every J_r is.  For a skew tensor the
    triples i < j < k suffice; otherwise all ordered triples are checked.
    The result is kept on the tensor, so each tensor is checked once.
    """
    if tensor._jacobi is not None:
        return tensor._jacobi
    n = tensor.dim
    skew = tensor.is_skew()
    _, tab = tensor.integer_form()
    bound = _largest(map(dict.values, tab.values()))
    w = (3 * n * bound * bound).bit_length()
    # column c lists, for each m, the vector T_mc packed into one int
    columns = [[0] * n for _ in range(n)]
    for (m, c), vec in tab.items():
        columns[c][m] = sum(v << (w * r) for r, v in vec.items())
    at = [col.__getitem__ for col in columns]
    rows = {ab: (tuple(vec), tuple(vec.values())) for ab, vec in tab.items()}
    empty = ((), ())

    def jac(i, j, k):
        acc = 0
        for ab, c in (((i, j), k), ((j, k), i), ((k, i), j)):
            ms, cs = rows.get(ab, empty)
            acc += sum(map(mul, cs, map(at[c], ms)))
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


def pencil_lie(tensor, other):
    """The function (alpha, beta) -> is_lie(alpha * tensor + beta * other).

    The verdicts of T = tensor and S = other are read once, from their
    caches.  A member with ab == 0 is 0 or a nonzero multiple of T or of S,
    so its verdict is theirs.  The Jacobiator J is quadratic, so
    J(aT + bS) = a^2 J(T) + ab (J(T + S) - J(T) - J(S)) + b^2 J(S): when T
    and S are both Lie, a member with ab != 0 is skew and Lie exactly when
    T + S is, which is built and checked on the first such member asked
    for and read for every later one.  Otherwise a member with ab != 0 is
    built and checked on its own.
    """
    lie_t, lie_s = is_lie(tensor), is_lie(other)
    compatible = functools.cache(lambda: is_lie(tensor + other))

    def lie(alpha, beta):
        if not (alpha and beta):
            return (not alpha or lie_t) and (not beta or lie_s)
        if lie_t and lie_s:
            return compatible()
        return is_lie(tensor_combination([(alpha, tensor), (beta, other)]))
    return lie


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


def _largest(rows):
    """The largest |entry| of int rows (iterables of ints); 0 if there is none."""
    return max(map(abs, chain.from_iterable(rows)), default=0)


def _pencil_pass(t1, op, w):
    """rho(D).T' as packed big ints, for `classify_operator` and its guard.

    With T' = S / L and D = E / e as integer forms, rho(D).T' = X / (L e),
    X_ij^r = sum_m S_ij^m E_rm - sum_k E_ki S_kj^r - sum_l E_lj S_il^r.
    Each vector S_kl is packed into one int, sum_r S_kl^r * 2^(w r), and so
    is each column m of E, Ecol_m; then X_ij packs into
    sum_m S_ij^m Ecol_m - sum_k E_ki S_kj - sum_l E_lj S_il, one big-int
    multiply-add per nonzero S_ij^m, E_ki and E_lj: at most 3n per pair,
    against up to 3n^2 dict updates in `contract`.  Every |X_ij^r| is at
    most 3 n B_E B_S, with B_E and B_S the largest |entry| of E and S; for
    2^(w-1) > 3 n B_E B_S the fields are balanced (signed) digits.  A sum
    of multiples of packed vectors packs the same sum of the vectors, and
    when each of its fields is below 2^(w-1) in size it is 0 exactly when
    every field is (the lowest nonzero field would need 2^w to divide it).

    Returns (rows, entry): rows[k][l] is the packed S_kl (0 for an empty
    vector) and entry(i, j) the packed X_ij of any ordered pair.
    """
    n = t1.dim
    _, tab = t1.integer_form()
    rows = [[0] * n for _ in range(n)]
    for (k, l), vec in tab.items():
        rows[k][l] = _packed(vec, w)
    cols = [list(col) for col in zip(*rows)]
    ecols = [sum(x << (w * r) for r, x in enumerate(col) if x) for col in zip(*op.ints)]
    support = [([k for k, x in enumerate(col) if x], [x for x in col if x])
               for col in zip(*op.ints)]
    at = ecols.__getitem__
    empty = {}

    def entry(i, j):
        vec = tab.get((i, j), empty)
        ks, es = support[i]
        ls, fs = support[j]
        return (sum(map(mul, vec.values(), map(at, vec)))
                - sum(map(mul, es, map(cols[j].__getitem__, ks)))
                - sum(map(mul, fs, map(rows[i].__getitem__, ls))))

    return rows, entry


def _packed(vec, w):
    """sum_r vec[r] * 2^(w r) for an int vector {r: v}."""
    return sum(v << (w * r) for r, v in vec.items())


def _second_entry(tab, E, i, j, r):
    """X_ij^r of `_pencil_pass` from the form tab = S of T' and the int
    rows E of D, computed on its own."""
    empty = {}
    return (sum(v * E[r][m] for m, v in tab.get((i, j), empty).items())
            - sum(E[k][i] * tab.get((k, j), empty).get(r, 0) for k in range(len(E)))
            - sum(E[l][j] * tab.get((i, l), empty).get(r, 0) for l in range(len(E))))


class _SecondForm:
    """The deferred integer form of T'' = rho(D).T' from `classify_operator`.

    Called, it runs derived(T', D), so a T'' that is read has `derived`'s
    key order.  packed is (w, rows, pairs) when the near case's
    `_pencil_pass` holds T'' packed, pairs {(i, j): packed X_ij}, and
    `normalize_pencil`'s guard reads that instead of the form.
    """

    __slots__ = ("t1", "op", "packed")

    def __init__(self, t1, op):
        self.t1, self.op, self.packed = t1, op, None

    def __call__(self):
        return derived(self.t1, self.op).integer_form()


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
    """Classify D by solving rho(D)^2.T = a*T + b*rho(D).T exactly.

    T' = rho(D).T comes from `derived`; T'' is never built as a table here.
    With T = S0 / L0 and T' = S1 / L1 as integer forms, D = E / e and
    T'' = X / (L1 e) as in `_pencil_pass`, the system is
    det X = a_num S0 + b_num S1 over the integers, with
    a = a_num L0 / (det L1 e) and b = b_num / (det e).  p is T's first
    coordinate (i, j, k).  T' is a multiple of T when every 2 x 2 minor of
    [S0 S1] on row p vanishes, read off the forms of T and T' alone; then
    T'' is not computed.  Otherwise the first nonzero minor det, on rows p
    and q, gives the only candidate (a_num, b_num) by Cramer's rule from X
    at p and q (`_second_entry`), divided by the gcd of the three.  It
    solves the system when det X_ij == a_num S0_ij + b_num S1_ij on every
    pair (i, j): one comparison of packed ints per pair, and the first
    pair that fails ends the pass (not near).  The pairs are i < j when T
    is skew (T' and T'' are skew then too), else all.

    Width.  Every |X_ij^r| is at most M = 3n max|E| max|S1| (see
    `_pencil_pass`), so every field of det X_ij - a_num S0_ij - b_num S1_ij
    is below |det| M + |a_num| max|S0| + |b_num| max|S1| in size.  The
    pass packs at the w with 2^(w-1) above that sum, and so above M, which
    is the bound T'' alone needs: each comparison is exact.

    `second` is T'' with a deferred form.  It is built from derived(T', D)
    only when something reads it (`.table`, `integer_form`, `==`), with the
    key order `derived` gives.  A quasi T'' is 0: it gets the empty form
    with no pass.  A near T'' keeps its packed pairs for the guard of
    `normalize_pencil`.
    """
    t1 = derived(tensor, op)
    if t1.is_zero():
        return PencilAction(tensor, op, t1, t1, 1, TAG_DERIVATION)
    n = tensor.dim
    L0, tab0 = tensor.integer_form()
    L1, tab1 = t1.integer_form()
    empty = {}
    ijp, vec = next(iter(tab0.items()))        # T != 0, else T' = 0
    kp, s0 = next(iter(vec.items()))
    s1 = tab1.get(ijp, empty).get(kp, 0)
    q = next(((ij, k) for tab in (tab1, tab0) for ij, vec in tab.items() for k in vec
              if s0 * tab1.get(ij, empty).get(k, 0) != s1 * tab0.get(ij, empty).get(k, 0)),
             None)
    pending = _SecondForm(t1, op)
    t2 = StructureTensor._of(n, None, tensor.labels, pending)
    if q is None:
        return PencilAction(tensor, op, t1, t2, 1, TAG_SCALAR,
                            scalar=Fraction(s1 * L0, s0 * L1))
    ijq, kq = q
    r0, r1 = tab0.get(ijq, empty).get(kq, 0), tab1.get(ijq, empty).get(kq, 0)
    s2, r2 = _second_entry(tab1, op.ints, *ijp, kp), _second_entry(tab1, op.ints, *ijq, kq)
    det, a_num, b_num = s0 * r1 - s1 * r0, s2 * r1 - s1 * r2, s0 * r2 - s2 * r0
    g = gcd(det, a_num, b_num)
    det, a_num, b_num = det // g, a_num // g, b_num // g
    b1 = _largest(map(dict.values, tab1.values()))
    bound = (abs(det) * 3 * n * _largest(op.ints) * b1 + abs(b_num) * b1
             + abs(a_num) * _largest(map(dict.values, tab0.values())))
    w = bound.bit_length() + 1
    rows, entry = _pencil_pass(t1, op, w)
    packed0 = {ij: _packed(vec, w) for ij, vec in tab0.items()} if a_num else empty
    pairs = {}
    for i, j in _pairs(n, tensor.is_skew()):
        x = entry(i, j)
        if det * x != a_num * packed0.get((i, j), 0) + b_num * rows[i][j]:
            return PencilAction(tensor, op, t1, t2, 2, TAG_NOT_NEAR)
        pairs[(i, j)] = x
    a, b = Fraction(a_num * L0, det * L1 * op.den), Fraction(b_num, det * op.den)
    if a == 0 and b == 0:
        zero = StructureTensor._of(n, None, tensor.labels, (1, {}))
        return PencilAction(tensor, op, t1, zero, 2, TAG_QUASI, a=a, b=b)
    pending.packed = w, rows, pairs
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


def _second_is_multiple(t2, t1, op, c, skew):
    """Whether T'' == c * T' for T'' = rho(D).T': the guard of
    `normalize_pencil`.

    With c = p / q, T' = S / L and T'' = X / (L e) as in `_pencil_pass`,
    this is q X_ij == p e S_ij on every pair (i, j), i < j for skew.  Every
    field of the difference is below (3n q max|E| + |p| e) max|S| in size,
    so each pair is one comparison of packed ints at a width w with 2^(w-1)
    above that.  T'' is rho(D).T' itself when t2 is None or is the deferred
    T'' `classify_operator` made from this T' and D: its packed pairs are
    read when they are that wide, else a pass packs T'' at w.  Any other
    t2 is compared with c * T' on its integer form.
    """
    n = t1.dim
    L, tab = t1.integer_form()
    p, q, e = c.numerator, c.denominator, op.den
    pending = None if t2 is None else t2._integer
    if isinstance(pending, _SecondForm) and pending.t1 is t1 and pending.op is op:
        t2 = None
    if t2 is not None:
        scaled = ({ij: {k: p * v for k, v in vec.items()} for ij, vec in tab.items()}
                  if p else {})
        return _same_form(t2.integer_form(), (q * L, scaled))
    bound = (3 * n * q * _largest(op.ints) + abs(p) * e) * _largest(map(dict.values, tab.values()))
    w = bound.bit_length() + 1
    if pending is not None and pending.packed and pending.packed[0] >= w:
        _, rows, packed = pending.packed
        pairs = packed.items()
    else:
        rows, entry = _pencil_pass(t1, op, w)
        pairs = ((ij, entry(*ij)) for ij in _pairs(n, skew))
    pe = p * e
    return all(q * x == pe * rows[i][j] for (i, j), x in pairs)


def normalize_pencil(action):
    """Normalize a quasi or near pencil action; may raise IrrationalEigenvalues.

    The guard rho(D1)^2.T == bnew * rho(D1).T runs on packed ints
    (`_second_is_multiple`) and raises IdentityFailed, also under -O.  The
    second degenerate line, bnew * T - rho(D1).T, gets its form only when
    it is read.
    """
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
        t2 = None
    bnew = lam2 - lam1
    if not _second_is_multiple(t2, t1, d1, bnew, action.tensor.is_skew()):
        raise IdentityFailed("pencil normalization failed")
    mode = MODE_NILPOTENT if bnew == 0 else MODE_SEMISIMPLE
    lines = [t1]
    if mode == MODE_SEMISIMPLE:
        # bnew * T - T', its form deferred until the line is read
        combination = [(bnew, action.tensor), (-ONE, t1)]
        lines.append(StructureTensor._of(t1.dim, None, action.tensor.labels,
                                         lambda: tensor_combination(combination).integer_form()))
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
