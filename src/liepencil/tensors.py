"""Structure tensors, derived operations, operator classification, pencils.

A structure tensor stores the constants c_ij^k of a bilinear operation
psi(x_i, x_j) = sum_k c_ij^k x_k on a fixed basis.  The derived operation of
psi along an operator D is

    psi'_D(x, y) = D(psi(x, y)) - psi(Dx, y) - psi(x, Dy),

the action of gl(V) on (1,2)-tensors.  Iterating it classifies D relative to
psi: derivations (psi' = 0), quasi-derivations (psi'' = 0), and the wider
class where psi'' = a*psi + b*psi' for scalars (a, b), which spans a pencil
of operations with exactly one or two degenerate lines.  For a Lie psi and
any D but a not-near one, every member is Lie (claim (1), proved at
`pencil_lie`), so no member is built or scanned.

A tensor stores one integer form, (den, {(i, j): {k: int}}): its
constants as integers over one denominator, cleared once by the validating
constructor or handed over by the kernel that built it
(`StructureTensor.integer_form`).  As with `RatMatrix.rows`, the `Fraction`
table `.table` is a view built from the form on each read.  The kernels run
on the forms and build a `Fraction` only for a returned scalar.

One packed kernel, `_contraction`, evaluates sum_t c_t O_t psi(A_t x, B_t y)
pair by pair, each vector packed into one int with a field per basis index
(`_packed`, `_unpacked`).  `contract` runs it for every such tensor: the
derived operation here, and the torsion, both sides of the exponential
identities and the nilpotent-square checks elsewhere.  `classify_operator`
runs it twice at one width: on T for T', and on T', whose packed ints the
first pass hands over, with the terms of T'' - b T', comparing packed ints
with a T and stopping at the first pair that fails.  Everything after reads
the (a, b) it proved, kept on the action: T'' and the degenerate lines are
named by coefficients on the pencil, never built, and `normalize_pencil`
takes the shifted T' - lambda1 T with no contraction.  `check_jacobi`
packs its vectors the same way and sums one pair's row of triples at a
time, through the nonzero brackets only.  It takes skew tensors only, the
only brackets there are to check: algebra files hold only the pairs i < j,
and every builder that mirrors its pairs says so to the constructor.

There is one way to build a tensor: the validating constructor for tables
that arrive from outside, and the trusted `StructureTensor._of` for integer
forms the library has already built clean.  Either one leaves the form
canonical, divided by its gcd, so equal tables have equal forms.  Every
tensor holds its built form from construction on.  Tables over basis
pairs are filled by `pair_table`, and a skew table is always completed by
`skew_table`, which writes each mirror entry (j, i) as the negated (i, j)
vector; a builder that did so hands `_of` its skew verdict (`io`,
`contract`, the classical and extension builders, the Poisson gate, and
`tensor_combination` of known skew tensors), so no command scans a tensor
for skewness.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm, prod
from operator import add, lshift, mul

from .exact import ONE, ZERO, RatMatrix, _cleared, _reduced, rational_sqrt

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


class IdentityFailed(ArithmeticError):
    """An identity that guards a returned result does not hold (a bug)."""


class StructureTensor:
    """Structure constants of a bilinear operation on a based vector space.

    A tensor stores one integer form, (den, {(i, j): {k: int}}) with
    c_ij^k = ints[(i, j)][k] / den, in which zero vectors and zero entries
    never appear, and gcd(den, ints) = 1, so two tensors are equal exactly
    when their forms are.  `StructureTensor(dim, table, labels)` validates
    a `Fraction` table from outside (files, tests) and clears it to a form
    once; `_of` wraps a form the library built clean, without a copy.
    `table` is a view: the `Fraction` table {(i, j): {k: c_ij^k}} built
    from the form on each read.

    Instances are immutable: every operation returns a new tensor, and no
    code writes to `_integer`, the form, once it is built.  The caches rely
    on it: `_skew` holds the `is_skew` verdict (recorded by `_of` when the
    builder mirrored its pairs, else computed once) and `_jacobi` the
    `check_jacobi` result (or claim (1)'s, `near_theorem`), each once.
    """

    __slots__ = ("dim", "labels", "_integer", "_skew", "_jacobi")

    def __init__(self, dim, table=None, labels=None):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple("x%d" % i for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        clean = {}
        for (i, j), vec in (table or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("basis index out of range")
            vec = {k: c for k, c in zip(vec, map(Fraction, vec.values())) if c}
            if any(not 0 <= k < dim for k in vec):
                raise ValueError("value index out of range")
            if vec:
                clean[(i, j)] = vec
        self._integer = _form_of(clean)
        self._skew = self._jacobi = None

    @classmethod
    def _of(cls, dim, labels, integer, skew=None):
        """Trusted constructor: integer is a clean form (den > 0, nonzero
        int entries, indices below dim) and labels a tuple of dim strings;
        the form is divided by its gcd and kept, no copy and no check.  A
        true skew is the builder's proof that the table is skew (it
        mirrored every pair i < j), recorded as the `is_skew` verdict."""
        t = object.__new__(cls)
        t.dim = dim
        t.labels = labels
        t._integer = _reduced(*integer)
        t._skew, t._jacobi = skew or None, None
        return t

    def integer_form(self):
        """(den, {(i, j): {k: int}}): the tensor's one stored form,
        table[(i, j)][k] == Fraction(ints[(i, j)][k], den)."""
        return self._integer

    @property
    def table(self):
        """The `Fraction` table {(i, j): {k: c_ij^k}}, built from the
        integer form on each read, in the form's key order."""
        den, ints = self.integer_form()
        return {ij: {k: Fraction(v, den) for k, v in vec.items()} for ij, vec in ints.items()}

    @classmethod
    def zero(cls, dim, labels=None):
        return cls(dim, {}, labels)

    def bracket(self, i, j):
        """Sparse value vector of psi(x_i, x_j), as `Fraction`s."""
        den, ints = self.integer_form()
        return {k: Fraction(v, den) for k, v in ints.get((i, j), {}).items()}

    def apply(self, x, y):
        """Bilinear evaluation on dense coordinate vectors; returns a dense
        list.  Sums run over the integer form, divided by its den once."""
        den, ints = self.integer_form()
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                vec = ints.get((i, j))
                if vec:
                    c = xi * yj
                    for k, v in vec.items():
                        out[k] += c * v
        return out if den == 1 else [c / den for c in out]

    def is_zero(self):
        return not self.integer_form()[1]

    def is_skew(self):
        if self._skew is None:
            self._skew = check_skew(self)[0]
        return self._skew

    def __eq__(self, other):
        return (isinstance(other, StructureTensor) and self.dim == other.dim
                and self.integer_form() == other.integer_form())

    def __hash__(self):
        den, ints = self.integer_form()
        return hash((self.dim, den, frozenset((ij, frozenset(vec.items()))
                                              for ij, vec in ints.items())))

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


def _form_of(table):
    """The integer form of a clean `Fraction` table, cleared once by
    `_cleared`, in the table's key order."""
    den, vecs = _cleared(table.values())
    return den, dict(zip(table, vecs))


def tensor_combination(pairs):
    """Exact linear combination sum_i c_i * T_i of same-dimension tensors.

    Runs on the integer forms: c_t * T_t is an integer table over
    c_t's denominator times den_t, and the sum accumulates over the lcm of
    those in pair order, so key order and zero tests follow the rational
    sum.  The result carries only its integer form, and is known skew when
    every input is.
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
    return StructureTensor._of(dim, labels, (den, {ij: vec for ij, vec in acc.items() if vec}),
                               all(t._skew for _, t in pairs))


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


def _packed(keys, values, w):
    """sum_r v_r * 2^(w r) over the keys r and their values v_r, one int."""
    return sum(map(lshift, values, map(w.__mul__, keys)))


def _unpacked(x, w):
    """The int vector {r: v}, in ascending r, of a packed x whose fields
    are balanced digits, x = sum_r v_r 2^(w r) with every |v_r| < 2^(w-1).
    A field read at or above 2^(w-1) is negative, and borrowed 1 from the
    fields above it, which x >> w returns by adding 1.  Below a nonzero
    field the low bits of x are 0, so (x & -x).bit_length() jumps to the
    next nonzero field."""
    vec, r, top, half = {}, 0, 1 << w, 1 << (w - 1)
    mask = top - 1
    while x:
        v = x & mask
        if not v:
            skip = ((x & -x).bit_length() - 1) // w
            x, r = x >> w * skip, r + skip
            v = x & mask
        x >>= w
        if v >= half:
            v, x = v - top, x + 1
        vec[r], r = v, r + 1
    return vec


def _nonzero(line):
    """(indices, values) of the nonzero entries of line."""
    return (list(compress(count(), line)), list(filter(None, line))) if any(line) else ((), ())


class _SlotSums(dict):
    """The slot sums s(p, q) = sum_k X_kp Z[q][k] of an int operator X
    (its columns `sup`, as `_nonzero` lists them) and a table Z of packed
    ints, row p built on its first read: sums[p][q].  Each sum runs over
    the smaller of {k : X_kp != 0} and {k : Z[q][k] != 0}, ties to X; it
    is the same sum, since a term with either factor 0 adds nothing.  A
    sparse T with a dense D sums over T's side; a column with one nonzero
    entry (the nilpotent squares' D) reads through it, with no index of
    Z's nonzero entries built.  With skew (`_contraction`), s(p, p) is
    read by no pair and left 0."""

    def __init__(self, Z, sup, X, skew):
        self.Z, self.sup, self.X, self.lines, self.skew = Z, sup, X, None, skew

    def __missing__(self, p):
        (ks, xs), Z = self.sup[p], self.Z
        if len(ks) == 1:
            row = [xs[0] * z[ks[0]] for z in Z]
        else:
            self.lines = self.lines or list(map(_nonzero, Z))
            col = [x[p] for x in self.X]
            skip = p if self.skew else -1
            row = [0 if q == skip else sum(map(mul, xs, map(z.__getitem__, ks))
                                                if len(ks) <= len(zs)
                                                else map(mul, vs, map(col.__getitem__, zs)))
                   for q, z, (zs, vs) in zip(range(len(Z)), Z, self.lines)]
        self[p] = row
        return row


def _contraction(tab, n, terms, skew, w=0, packed=None):
    """The packed kernel: sum_t c_t O_t psi(A_t x_i, B_t x_j) at basis pairs.

    tab is the table {(k, l): {r: int}} of an integer form of psi; terms a
    list of (c, O, A, B), c an int and O, A, B int row lists or None for
    the identity; skew says psi is skew and the term list is unchanged by
    swapping A and B, so the result is skew and read at pairs i < j only.
    A vector packs into one int, sum_r v_r 2^(w r), and a sum of multiples
    of packed vectors packs the same sum of the vectors.  So O psi packs
    as the table Y of sum_r psi_kl^r Ocol_r, Ocol_r the packed column r of
    O, each Y packed once, only at the rows and columns the reads reach;
    packed, the rows of psi's vectors already packed at width w, is the
    identity's Y as it is.  The terms with the identity on both slots
    share one such sum at each pair.  Any other term reads slot sums
    s(p, q) = sum_k X_kp Z[q][k] (`_SlotSums`, each over the sparser
    side): a left term c psi(A x_i, x_j) is c s(i, j) with X = A and
    Z = Y^T, a right term c psi(x_i, B x_j) is c s(j, i) with X = B and
    Z = Y, and when both slots carry one, Z = (Y B)^T.  On a skew psi, Y
    is skew, so psi(x_i, B x_j) = -sum_l B_lj Y_li = -left_ji: a right
    term reads the left terms' table, -c s(j, i) with Z = Y^T, and one
    table serves both slots; no pair i < j reads an s(p, p), and none is
    summed.  A pair costs one big-int multiply-add per psi_ij^r whose
    column is not 0 and per slot it reads, and each slot sum one per entry
    on its shorter side.  Every field of the result is at most
    max|psi| sum_t |c_t| prod(n max|X|), over the operators X of term t;
    without a given w (the caller's proof that its fields fit) the width
    is the least with 2^(w-1) above that, and at it `_unpacked` reads the
    fields back.  Returns (w, entry): entry(i, j) the packed sum at the
    ordered pair (i, j).
    """
    span = range(n)
    ops = {id(X): X for _, *xs in terms for X in xs if X is not None}
    sup = {key: list(map(_nonzero, zip(*X))) for key, X in ops.items()}
    if not w:
        size = {key: n * _largest(X) for key, X in ops.items()} | {id(None): 1}
        w = (_largest(map(dict.values, tab.values())) * sum(
            abs(c) * size[id(O)] * size[id(A)] * size[id(B)] for c, O, A, B in terms)
             ).bit_length() + 1
    one = [1 << (w * r) for r in span]
    cols = {key: [sum(map(mul, xs, map(one.__getitem__, ks))) if ks else 0 for ks, xs in s]
            for key, s in sup.items()} | {id(None): one}
    # reads: id(O) -> (rows K, columns L) where O psi is read; later: the
    # terms that read a table
    direct, reads, later = [0] * n, {}, []
    for c, O, A, B in terms:
        if A is None and B is None:
            direct = list(map(add, direct, map(c.__mul__, cols[id(O)])))
        else:
            reads.setdefault(id(O), (set(), set()))[A is None and not skew].update(
                chain.from_iterable(ks for ks, _ in sup[id(B if A is None else A)]))
            later.append((c, O, A, B))
    tables = {key: [[0] * n for _ in span] for key in reads}
    tables |= {id(None): packed} if packed else {}
    for key, (K, L) in reads.items():
        Y, at = tables[key], cols[key].__getitem__
        for (k, l), vec in tab.items() if Y is not packed else ():
            if k in K or l in L:
                Y[k][l] = sum(map(mul, vec.values(), map(at, vec)))
    # sums: the _SlotSums of each (view, operator); lefts[i] holds (c, sums)
    # for the left terms whose A has column i nonzero, read at s(i, j);
    # rights[j] those of the right terms, read at s(j, i)
    lefts, rights, sums = [[] for _ in span], [[] for _ in span], {}
    for c, O, A, B in later:
        left, X = A is not None, A if A is not None else B
        key = (id(O), id(B), id(A)) if left and B is not None else (id(O), left or skew, id(X))
        if key not in sums:
            Y = tables[id(O)]
            if left and B is not None:
                Y = [[sum(map(mul, xs, map(row.__getitem__, ls))) if ls else 0
                      for ls, xs in sup[id(B)]] for row in Y]
            sums[key] = _SlotSums(list(zip(*Y)) if left or skew else Y, sup[id(X)], X, skew)
        for index, (ks, _) in zip(lefts if left else rights, sup[id(X)]):
            if ks:
                index.append((c if left or not skew else -c, sums[key]))
    at, used = direct.__getitem__, set(compress(span, direct))

    def entry(i, j):
        vec = tab.get((i, j))
        acc = sum(map(mul, vec.values(), map(at, vec))) if vec and not used.isdisjoint(vec) else 0
        for c, rows in lefts[i]:
            acc += c * rows[i][j]
        for c, rows in rights[j]:
            acc += c * rows[j][i]
        return acc

    return w, entry


def _rho(op):
    """The term list of rho(D).T = D T - T(D., .) - T(., D.) for op = D."""
    return [(1, op, None, None), (-1, None, op, None), (-1, None, None, op)]


def contract(tensor, terms):
    """sum_t c_t * O_t psi(A_t x_i, B_t x_j) over basis pairs, as a tensor.

    terms is a list of (c, O, A, B): a rational c and operators O, A, B,
    each None for the identity.  Runs on integers: psi is its integer form
    T / L and each operator O is its integer form O_int / d_O, so term t is
    an integer over its denominator den_t (c's times those of O, A and B),
    and every entry is an integer over M L, M = lcm(den_t) over the terms
    with c != 0 and no zero operator (the others add nothing).  The packed
    kernel `_contraction` sums the integer terms, weighted c_t M / den_t,
    at its own width; each nonzero sum is unpacked into its digits, and
    that integer table, which `_of` divides by its gcd, is the result's
    integer form.
    No `Fraction` is built.  Each vector is in ascending key order and the
    pairs in row-major order.  When psi is skew and the term list is
    unchanged by swapping A and B, the result is skew: only the pairs
    i < j are computed and `pair_table` mirrors them, so `_of` records the
    result's skew verdict and it is not scanned for it.
    """
    n, (L, tab) = tensor.dim, tensor.integer_form()
    scaled = []
    for c, *ops in terms:
        if any(m and (m.nrows, m.ncols) != (n, n) for m in ops):
            raise ValueError("operator shape mismatch")
        c = Fraction(c)
        if c and all(m is None or any(map(any, m.ints)) for m in ops):   # else the term is 0
            scaled.append((c.numerator, c.denominator * prod(m.den for m in ops if m is not None),
                           [m and m.ints for m in ops]))
    M = lcm(*(den for _, den, _ in scaled))
    skew = _swap_closed(terms) and tensor.is_skew()
    w, entry = _contraction(tab, n, [(num * (M // den), *ops) for num, den, ops in scaled], skew)
    ints = pair_table(n, lambda i, j: (x := entry(i, j)) and _unpacked(x, w), skew)
    return StructureTensor._of(n, tensor.labels, (M * L, ints), skew)


def derived(tensor, op):
    """The derived operation rho(D).T = D T - T(D., .) - T(., D.), as a tensor.

    One `contract` call; for a skew tensor the result is skew again.
    """
    return contract(tensor, _rho(op))


def derived_iter(tensor, op, k):
    """k-fold derived operation rho(D)^k . T."""
    if k < 0:
        raise ValueError("negative iteration count")
    t = tensor
    for _ in range(k):
        t = derived(t, op)
    return t


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
    the packed J is 0 exactly when every J_r is.

    Skew T only.  Jac(x, y, z) = sum_cyc T(T(x, y), z) is trilinear, and
    cyclic by its form.  With T(y, x) = -T(x, y) in both slots of the inner T,
    Jac(y, x, z) = T(T(y, x), z) + T(T(x, z), y) + T(T(z, y), x)
    = -T(T(x, y), z) - T(T(z, x), y) - T(T(y, z), x) = -Jac(x, y, z), and
    Jac(x, x, z) = T(T(x, x), z) + T(T(x, z), x) + T(T(z, x), x) = 0.  So
    Jac is alternating: it is 0 on a basis triple with a repeated index,
    and on any other it is +-Jac on the sorted triple, so the triples
    i < j < k decide it.  On such a triple the three positions read
    T_ij^m T_mk and T_jk^m T_mi on the stored pairs (i, j) and (j, k), and
    T_ki^m T_mj = -T_ik^m T_mj on the pair (i, k), with the sign.
    `_alternating_scan` sums them one pair (i, j) at a time through T's
    nonzero brackets, and returns the least failing triple in (i, j, k)
    order, stopping there.  The result is kept on the tensor, so each
    tensor is checked once.  The alternating rule needs skew, so a T that
    is not skew raises ValueError (`is_lie` answers False with no scan).
    Every bracket is skew: an algebra file holds only the pairs i < j, and
    the constructor `_of` records the skew verdict of every builder that
    mirrors its pairs (`io`, `contract`, `_expand`), so no scan for
    skewness runs first.
    """
    if tensor._jacobi is not None:
        return tensor._jacobi
    if not tensor.is_skew():
        raise ValueError("check_jacobi needs a skew tensor")
    n, (_, tab) = tensor.dim, tensor.integer_form()
    w = (3 * n * _largest(map(dict.values, tab.values())) ** 2).bit_length()
    witness = _alternating_scan(n, tab, w)
    tensor._jacobi = (witness is None, witness)
    return tensor._jacobi


def _alternating_scan(n, tab, w):
    """The least i < j < k whose packed Jacobi sum (`check_jacobi`, fields
    of w bits) is not 0, or None; tab is the table of a skew integer form.

    The pairs i < j run in row-major order, each summing one packed int
    per k > j, and a sum reaches only what T's support reaches:
    T(T(x_i, x_j), x_k) through the m in T_ij and the nonzero T_mk (out[m]);
    T(T(x_j, x_k), x_i) through the m with T_mi != 0 (into[i]) and the pairs
    (j, k) whose bracket holds m (up[j][m]); T(T(x_k, x_i), x_j) =
    -T(T(x_i, x_k), x_j) through the m with T_mj != 0 and the pairs (i, k),
    k > j, whose bracket holds m.  The first pair with a nonzero sum ends
    the scan at its least such k.  Each T_ab, a < b, is packed once: T_ba
    packs to its negative.
    """
    rows = [[] for _ in range(n)]       # rows[a]: (b, T_ab) for b > a, ascending b
    for a, b in sorted(ab for ab in tab if ab[0] < ab[1]):
        rows[a].append((b, tab[(a, b)]))
    # out[m]: (c, P(T_mc)) in ascending c, as the rows fill it; into[c]: (m, P(T_mc))
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, row in enumerate(rows):
        for b, vec in row:
            p = _packed(vec, vec.values(), w)
            out[a].append((b, p))
            out[b].append((a, -p))
            into[b].append((a, p))
            into[a].append((b, -p))
    keys = [[c for c, _ in o] for o in out]
    up, empty = [None] * n, {}

    def upper(a):
        """{m: [(k, T_ak^m) for k > a, ascending]}, built on first use."""
        index = {}
        for k, vec in rows[a]:
            for m, v in vec.items():
                index.setdefault(m, []).append((k, v))
        up[a] = index
        return index

    for i in range(n):
        up_i, into_i = up[i] or upper(i), into[i]
        for j in range(i + 1, n):
            acc = [0] * n
            for m, v in tab.get((i, j), empty).items():
                for k, p in out[m][bisect(keys[m], j):]:
                    acc[k] += v * p
            up_j = up[j] or upper(j)
            for m, p in into_i:
                if m in up_j:
                    for k, v in up_j[m]:
                        acc[k] += v * p
            for m, p in into[j]:
                if m in up_i:
                    for k, v in up_i[m]:
                        if k > j:
                            acc[k] -= v * p
            if any(acc):
                return i, j, next(compress(range(n), acc))
    return None


def is_lie(tensor):
    return tensor.is_skew() and check_jacobi(tensor)[0]


def near_theorem(action):
    """Whether claim (1) (`pencil_lie`) makes span{T, T'} Lie: T is Lie and
    D is not tagged not-near.  Then T' keeps the verdict (True, None), so a
    later guard on T' (`lie_index`'s) reads it with no scan."""
    if action.tag == TAG_NOT_NEAR or not is_lie(action.tensor):
        return False
    action.derived._jacobi = (True, None)
    return True


def pencil_lie(action, norm=None):
    """(alpha, beta) -> is_lie(alpha T + beta S) for T = action.tensor and
    S = norm.derived = rho(D1).T (norm from normalize_pencil) or action.derived.

    Proof.  Jac(T) = sum_cyc T(T(x, y), z), as `check_jacobi` sums it, is
    quadratic, Jac(T + phi) = Jac(T) + M(T, phi) + Jac(phi) for the polar
    form M(T, phi) = sum_cyc T(phi(x, y), z) + phi(T(x, y), z), and
    GL(V)-equivariant: rho(E) Jac(T) = M(T, T') and rho(E)^2 Jac(T) =
    2 Jac(T') + M(T, T'') for T' = rho(E).T, T'' = rho(E).T'.  So Jac(T) = 0
    gives M(T, T') = 0 and Jac(T') = -M(T, T'') / 2 (Kosmann-Schwarzbach and
    Magri, Ann. IHP 53, 1990).  With T Lie and D tagged anything but
    not-near, T' = 0, T' = cT, T'' = 0 or T'' = aT + bT' (proved by
    classify's kernel pass), so Jac(T') = -(2a Jac(T) + b M(T, T')) / 2 = 0
    and Jac(alpha T + beta T') = alpha beta M(T, T') = 0: every member of
    span{T, T'}, S = T' - lambda1 T and b T - S among them, is Lie, and
    none is built or scanned.  Otherwise each member is built and scanned.
    """
    if near_theorem(action):
        return lambda alpha, beta: True
    tensor, other = action.tensor, (action if norm is None else norm).derived
    return lambda alpha, beta: is_lie(tensor_combination([(alpha, tensor), (beta, other)]))


def ad(tensor, x):
    """Matrix of v -> psi(x, v) for a coordinate vector x, summed on the
    integer forms of the tensor and of x."""
    n = tensor.dim
    den, ints = tensor.integer_form()
    xd, (xs,) = _cleared([x])
    rows = [[0] * n for _ in range(n)]
    for (i, j), vec in ints.items():
        if xs[i]:
            for k, c in vec.items():
                rows[k][j] += xs[i] * c
    return RatMatrix._of(xd * den, rows)


def _largest(rows):
    """The largest |entry| of int rows (iterables of ints); 0 if there is none."""
    return max(map(abs, chain.from_iterable(rows)), default=0)


@dataclass
class PencilAction:
    """Classification of an operator against a structure tensor.

    For tags "quasi" and "near" the scalars satisfy T'' = a*T + b*T'
    exactly, with (a, b) = (0, 0) in the quasi case.  For "scalar-type",
    scalar holds the ratio T' = scalar * T.

    `_proof` is (T, T', D, a, b) as `classify_operator` proved them for a
    quasi or near action, else None: `normalize_pencil`'s certificate.  It
    is not an init argument, so `dataclasses.replace` leaves it None, and a
    field edited in place no longer matches it.
    """

    tensor: StructureTensor
    operator: RatMatrix
    derived: StructureTensor
    tag: str
    a: Fraction | None = None
    b: Fraction | None = None
    scalar: Fraction | None = None
    _proof: tuple | None = field(default=None, init=False, compare=False, repr=False)


def _derived_at(tab, E, i, j, k):
    """(rho(E).S)_ij^k = sum_r E_kr S_ij^r - sum_l (E_li S_lj^k + E_lj S_il^k)
    for S the table {(i, j): {r: int}} of an integer form and E int rows:
    one coordinate of the derived operation, about 3n products."""
    empty = {}
    return sum(E[k][r] * v for r, v in tab.get((i, j), empty).items()) - sum(
        E[l][i] * tab.get((l, j), empty).get(k, 0) + E[l][j] * tab.get((i, l), empty).get(k, 0)
        for l in range(len(E)))


def classify_operator(tensor, op):
    """Classify D by solving rho(D)^2.T = a*T + b*rho(D).T exactly.

    Two passes of the packed kernel `_contraction`, both at one width w;
    T'' is never built as a table.  With T = S0 / L0 and D = E / d, the
    first pass sums rho(E).S0 over the pairs, which is T' times L0 d: each
    packed sum is unpacked once into the returned T' = S1 / L1, whose
    constructor divides the form by its gcd g = L0 d / L1, and kept, so S1
    packs as those ints divided by g, exact since g divides every field.
    T'' = X / (L1 d) for X = rho(E).S1.  The system is
    det X = a_num S0 + b_num S1 over the integers, with
    a = a_num L0 / (det L1 d) and b = b_num / (det d).  p is T's first
    coordinate (i, j, k).  T' is a multiple of T when every 2 x 2 minor of
    [S0 S1] on row p vanishes, read off the forms of T and T' alone; then
    T'' is not computed.  Otherwise the first nonzero minor det, on rows p
    and q, gives the only candidate (a_num, b_num) by Cramer's rule from X
    at p and q (`_derived_at`), divided by the gcd of the three.  The
    second pass runs on S1, handed over packed, with the terms of
    det rho(E) - b_num: the candidate solves the system when that packed
    sum equals a_num S0_ij packed on every pair (i, j), and the first pair
    that fails ends the pass (not near).  The pairs are i < j when T is
    skew (T' and T'' are skew then too), else all.

    Width.  With B0 = max|S0| and e = max|E| (as ints), a field of
    rho(E).S sums 3n products E_xy S_z, so B1 = 3n e B0 bounds every
    field of the first pass and |S1| <= B1, and B2 = 3n e B1 bounds X.
    Cramer's rule gives |det| <= 2 B0 B1, |a_num| <= 2 B1 B2 and
    |b_num| <= 2 B0 B2, so det X - b_num S1 and a_num S0 have fields below
    4 B0 B1 B2 and their difference below 6 B0 B1 B2.  w is the least
    width with 2^(w-1) above 6 B0 B1 B2: every field of both passes is a
    balanced digit, so `_unpacked` reads T' exactly and equal packed ints
    mean equal vectors.

    A quasi or near action keeps what the pass proved, (T, T', D, a, b), in
    its `_proof`; no command reads T'' as a tensor, so none is built.  An
    operator that is not n x n raises ValueError, as in `contract`.
    """
    n, skew, E = tensor.dim, tensor.is_skew(), op.ints
    if (op.nrows, op.ncols) != (n, n):
        raise ValueError("operator shape mismatch")
    L0, tab0 = tensor.integer_form()
    e, B0 = _largest(E), _largest(map(dict.values, tab0.values()))
    B1 = 3 * n * e * B0
    w = (6 * B0 * B1 * (3 * n * e * B1)).bit_length() + 1
    _, entry = _contraction(tab0, n, _rho(E), skew, w)
    packed = [[0] * n for _ in range(n)]

    def unpacked(i, j):
        x = packed[i][j] = entry(i, j)
        if skew:
            packed[j][i] = -x
        return x and _unpacked(x, w)

    t1 = StructureTensor._of(n, tensor.labels, (L0 * op.den, pair_table(n, unpacked, skew)), skew)
    if t1.is_zero():
        return PencilAction(tensor, op, t1, TAG_DERIVATION)
    L1, tab1 = t1.integer_form()
    g, empty = L0 * op.den // L1, {}
    packed = [[x // g for x in row] for row in packed] if g > 1 else packed
    ijp, vec = next(iter(tab0.items()))        # T != 0, else T' = 0
    kp, s0 = next(iter(vec.items()))
    s1 = tab1.get(ijp, empty).get(kp, 0)
    q = next(((ij, k) for tab in (tab1, tab0) for ij, vec in tab.items() for k in vec
              if s0 * tab1.get(ij, empty).get(k, 0) != s1 * tab0.get(ij, empty).get(k, 0)),
             None)
    if q is None:
        return PencilAction(tensor, op, t1, TAG_SCALAR, scalar=Fraction(s1 * L0, s0 * L1))
    ijq, kq = q
    r0, r1 = tab0.get(ijq, empty).get(kq, 0), tab1.get(ijq, empty).get(kq, 0)
    s2, r2 = _derived_at(tab1, E, *ijp, kp), _derived_at(tab1, E, *ijq, kq)
    det, a_num, b_num = s0 * r1 - s1 * r0, s2 * r1 - s1 * r2, s0 * r2 - s2 * r0
    g = gcd(det, a_num, b_num)
    det, a_num, b_num = det // g, a_num // g, b_num // g
    terms = [(det * c, *ops) for c, *ops in _rho(E)] + [(-b_num, None, None, None)]
    _, entry = _contraction(tab1, n, terms, skew, w, packed)
    target = {ij: a_num * _packed(v, v.values(), w) for ij, v in tab0.items()} if a_num else {}
    for i, j in _pairs(n, skew):
        if entry(i, j) != target.get((i, j), 0):
            return PencilAction(tensor, op, t1, TAG_NOT_NEAR)
    a, b = Fraction(a_num * L0, det * L1 * op.den), Fraction(b_num, det * op.den)
    action = PencilAction(tensor, op, t1, TAG_NEAR if a or b else TAG_QUASI, a=a, b=b)
    action._proof = (tensor, t1, op, a, b)
    return action


@dataclass
class NormalizedPencil:
    """Pencil data after shifting D by the smaller root of t^2 - b*t - a.

    The normalized operator satisfies rho(D1)^2.T = (lambda2-lambda1)*rho(D1).T,
    so the new coefficient pair is (0, lambda2 - lambda1).  Each degenerate
    line is its (alpha, beta) on span{T, S}, S = rho(D1).T, the member
    alpha*T + beta*S: nilpotent mode (equal roots) has the single line
    (0, 1), spanned by S; semisimple mode adds (b, -1), the line of b*T - S.
    """

    shift: Fraction
    operator: RatMatrix
    mode: str
    derived: StructureTensor
    b: Fraction
    degenerate_lines: list

    @property
    def eigenvalues(self):
        return (ZERO, self.b)


def normalize_pencil(action):
    """Normalize a quasi or near pencil action; may raise IrrationalEigenvalues.

    The guard is T' = rho(D).T and T'' = rho(D).T' = a T + b T'.
    `classify_operator` proved both when the action's `_proof` matches its
    tensor, derived, operator, a and b; any other action, built by hand,
    copied by `dataclasses.replace` or edited in place, computes both sides
    and raises IdentityFailed on failure, also under -O.  Then
    rho(D1)^2.T = bnew * rho(D1).T for D1 = D + lambda1 I, since
    rho(D + lambda I) = rho(D) - lambda on tensors:
    (rho(D) - lambda1)(rho(D) - lambda2).T = T'' - b T' - a T = 0.  So
    rho(D1).T = T' - lambda1 T is a combination, and no contraction runs on
    a classified action.  The degenerate lines are (alpha, beta) pairs on
    span{T, rho(D1).T}; no line tensor is built.
    """
    if action.tag not in (TAG_QUASI, TAG_NEAR):
        raise ValueError("only quasi and near actions normalize (got %r)" % action.tag)
    a, b = action.a, action.b
    if a == 0:
        lam1, lam2 = ZERO, b
    else:
        root = rational_sqrt(b * b + 4 * a)
        if root is None:
            raise IrrationalEigenvalues(a, b)
        lam1, lam2 = (b - root) / 2, (b + root) / 2
    tensor, op, t1 = action.tensor, action.operator, action.derived
    if not (action._proof == (tensor, t1, op, a, b)
            or (derived(tensor, op) == t1
                and derived(t1, op) == tensor_combination([(a, tensor), (b, t1)]))):
        raise IdentityFailed("pencil normalization failed")
    if lam1:
        op = op + RatMatrix.identity(op.nrows).scale(lam1)
        t1 = tensor_combination([(ONE, t1), (-lam1, tensor)])
    bnew = lam2 - lam1
    if bnew == 0:
        return NormalizedPencil(lam1, op, MODE_NILPOTENT, t1, bnew, [(0, 1)])
    return NormalizedPencil(lam1, op, MODE_SEMISIMPLE, t1, bnew, [(0, 1), (bnew, -1)])
