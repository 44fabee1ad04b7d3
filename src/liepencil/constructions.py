"""Builders: classical matrix algebras, gradings, splittings, standard triples.

Conventions fixed here:
  * gl_n uses the unit matrices E_ij in row-major order;
  * sl_2 uses the triple (e, h, f) with [e,f] = h, [h,e] = 2e, [h,f] = -2f;
  * sl_n (n > 2) uses off-diagonal E_ij plus H_k = E_kk - E_(k+1)(k+1);
  * so_n uses F_ij = E_ij - E_ji (i < j), the antisymmetric matrices;
  * sp_n (n = 2m) is {[[A, B], [C, -A^T]] : B, C symmetric}, the matrices x
    with x^T J + J x = 0 for J = [[0, I], [-I, 0]].  Each entry fixes one
    partner entry up to sign; S1, S2, ... are the matrices with 1 at an entry
    whose partner comes no later in row-major order and the sign at that
    partner, in row-major order of that entry;
  * a matrix basis is expanded on integer forms: [B_i, B_j] from the
    nonzero entries of the two, read by one elimination of the basis;
  * periodic gradings are weight assignments w_i in {0..n-1} with
    [q_i, q_j] inside q_(i+j mod n); the quasi-grading extension of one is
    its tensor's integer form re-indexed onto the adapted basis, with no
    elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ONE, ZERO, RatMatrix, _int_coordinates
from .tensors import (StructureTensor, IdentityFailed, _form_of, ad, check_jacobi, contract,
                      derived, is_lie, pair_table)


class ArgumentError(ValueError):
    """A builder's refusal naming the argument at fault, for a front end's message."""

    def __init__(self, argument, message):
        super().__init__(message)
        self.argument = argument


def unit_matrix(n, i, j):
    return RatMatrix._of(1, [[int(r == i and c == j) for c in range(n)] for r in range(n)])


def _flat(ints):
    """Integer rows of a matrix as {row-major position: nonzero int}."""
    n = len(ints[0]) if ints else 0
    return {r * n + c: x for r, row in enumerate(ints) for c, x in enumerate(row) if x}


def _matrix_reader(basis_mats):
    """coords(t, den): the nonzero coordinates {k: c_k} with respect to fixed
    basis matrices of the matrix t / den, t its `_flat` integer form, from
    one elimination of the basis matrices' integer forms; a matrix outside
    the span raises ValueError.  The integer form of B_k is B_k times its
    den_k, so each coordinate read against it is multiplied back by den_k."""
    read = _int_coordinates([[x for row in b.ints for x in row] for b in basis_mats])
    dens = [b.den for b in basis_mats]
    scaled = any(d != 1 for d in dens)

    def coords(t, den):
        sol = read(t, den)
        if sol is None:
            raise ValueError("matrix is not in the span of the basis")
        return {k: c * dens[k] for k, c in sol.items()} if scaled else sol
    return coords


def tensor_from_matrix_basis(mats, labels):
    """Lie structure tensor of the commutator expanded over a matrix basis."""
    return _expand(mats, labels, _matrix_reader(mats))


def _commutator(a, b, n):
    """AB - BA as a `_flat` form, for n x n int matrices as {row: {column:
    nonzero int}}: one product per pair of nonzero entries that meet."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for r, row in x.items():
            for s, u in row.items():
                for c, v in y.get(s, {}).items():
                    out[r * n + c] = out.get(r * n + c, 0) + sign * u * v
    return {k: v for k, v in out.items() if v}


def _expand(mats, labels, coords):
    """`tensor_from_matrix_basis` over the basis reader coords; a commutator
    outside the span, or a table that fails Jacobi, raises ValueError.  Each
    [B_i, B_j], i < j, is `_commutator` of the integer forms over den_i den_j,
    and `pair_table` mirrors it, so the table is skew and `_of` records it."""
    forms = [{r: {c: x for c, x in enumerate(row) if x}
              for r, row in enumerate(m.ints) if any(row)} for m in mats]
    size = mats[0].ncols if mats else 0

    def entry(i, j):
        return coords(_commutator(forms[i], forms[j], size), mats[i].den * mats[j].den)

    n = len(mats)
    tensor = StructureTensor._of(n, tuple(labels), _form_of(pair_table(n, entry, skew=True)), True)
    ok, wit = check_jacobi(tensor)
    if not ok:
        raise ValueError("Jacobi fails at %r" % (wit,))
    return tensor


def _check_family(family, n):
    """Refuse a family or a size that `basis_matrices` has no basis for,
    before any matrix is built."""
    if family not in ("gl", "sl", "so", "sp"):
        raise ArgumentError("family", "unknown family %r" % (family,))
    if family == "sl" and n < 2:
        raise ArgumentError("n", "sl needs n >= 2")
    if family == "sp" and n % 2:
        raise ArgumentError("n", "sp needs even size")


def _sp_partner(r, c, m):
    """(position, sign) of the entry that entry (r, c) of an sp_2m matrix
    fixes: sp is {[[A, B], [C, -A^T]] : B, C symmetric}."""
    if r < m:
        return ((c + m, r + m), -1) if c < m else ((c - m, r + m), 1)
    return ((c - m, r - m), -1) if c >= m else ((c + m, r - m), 1)


def basis_matrices(family, n):
    """Matrix basis and labels for a classical family."""
    _check_family(family, n)
    if family == "gl":
        mats = [unit_matrix(n, i, j) for i in range(n) for j in range(n)]
        labels = ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    elif family == "sl":
        if n == 2:
            mats = [unit_matrix(2, 0, 1),
                    unit_matrix(2, 0, 0) - unit_matrix(2, 1, 1),
                    unit_matrix(2, 1, 0)]
            labels = ["e", "h", "f"]
        else:
            mats, labels = [], []
            for i in range(n):
                for j in range(n):
                    if i != j:
                        mats.append(unit_matrix(n, i, j))
                        labels.append("E%d%d" % (i + 1, j + 1))
            for k in range(n - 1):
                mats.append(unit_matrix(n, k, k) - unit_matrix(n, k + 1, k + 1))
                labels.append("H%d" % (k + 1))
    elif family == "so":
        mats = [unit_matrix(n, i, j) - unit_matrix(n, j, i)
                for i in range(n) for j in range(i + 1, n)]
        labels = ["F%d%d" % (i + 1, j + 1) for i in range(n) for j in range(i + 1, n)]
    else:
        # one matrix per entry (r, c) whose partner comes no later in row-major order
        mats = []
        for r in range(n):
            for c in range(n):
                p, sign = _sp_partner(r, c, n // 2)
                if p <= (r, c):
                    x = unit_matrix(n, r, c)
                    mats.append(x if p == (r, c) else x + sign * unit_matrix(n, *p))
        labels = ["S%d" % (k + 1) for k in range(len(mats))]
    return mats, labels


def build_classical(family, n):
    """Lie structure tensor of gl/sl/so/sp on its standard basis; a
    commutator outside the span, or a table failing Jacobi, raises
    IdentityFailed."""
    mats, labels = basis_matrices(family, n)
    try:
        return tensor_from_matrix_basis(mats, labels)
    except ValueError as exc:
        raise IdentityFailed("%s%d: %s" % (family, n, exc))


@dataclass(frozen=True)
class GradingSpec:
    """Weight assignment on a basis.

    kind "periodic": weights in {0..modulus-1}, brackets add mod modulus.
    kind "quasi": weights 0..top; the grading rule is only required for
    weight sums <= top (the shape produced by the extension construction).
    """

    weights: tuple
    kind: str = "periodic"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == "periodic":
            if self.modulus is None or self.modulus < 1:
                raise ValueError("periodic grading needs a positive modulus")
            if any(not (0 <= w < self.modulus) for w in self.weights):
                raise ArgumentError("weights", "periodic weights must lie in 0..modulus-1")
        elif self.kind != "quasi":
            raise ValueError("unknown grading kind %r" % (self.kind,))

    @property
    def top(self):
        return max(self.weights)

    def eigenspace(self, w):
        return tuple(i for i, wi in enumerate(self.weights) if wi == w)

    def validate(self, tensor):
        """Check the bracket respects the grading; returns (ok, witness)."""
        for (i, j), vec in tensor.integer_form()[1].items():
            s = self.weights[i] + self.weights[j]
            if self.kind == "periodic":
                want = s % self.modulus
            else:
                if s > self.top:
                    continue
                want = s
            for k in vec:
                if self.weights[k] != want:
                    return False, (i, j, k)
        return True, None


def grading_operator(spec):
    """Diagonal weight operator of a grading."""
    return RatMatrix.diagonal([Fraction(w) for w in spec.weights])


def quasi_grading_extension(tensor, spec):
    """Extend a periodically graded algebra by a second copy of its 0-part.

    The result is the direct sum q (+) q0' on the adapted basis: the diagonal
    copy {x + x' : x in q0} at weight 0, the original homogeneous parts at
    weights 1..n-1, and the original q0 (inside q) promoted to weight n.
    Bracket sums <= n then land in the expected level, and the weight operator
    is a near-derivation with coefficients (0, -n).

    The table is the tensor's integer form re-indexed.  q0' commutes with q
    and q0 is a subalgebra, so [x + x', y + y'] = [x, y] + [x, y]' is [x, y]
    written on the diagonal copies, and every other adapted bracket is the
    bracket in q, written on the original vectors.  The input grading is
    validated first, so a result that breaks the quasi-grading is a bug and
    raises IdentityFailed.
    """
    if spec.kind != "periodic":
        raise ValueError("extension needs a periodic grading")
    ok, wit = spec.validate(tensor)
    if not ok:
        raise ValueError("grading invalid at %r" % (wit,))
    n = spec.modulus
    zero_idx = spec.eigenspace(0)
    if not zero_idx:
        raise ValueError("grading has no zero part to extend by")
    d0 = len(zero_idx)
    # the vector of q behind each adapted vector: diagonal copies, weights 1..n-1, then q0
    source = [*zero_idx, *(i for w in range(1, n) for i in spec.eigenspace(w)), *zero_idx]
    diagonal = {i: p for p, i in enumerate(zero_idx)}
    original = {i: a for a, i in enumerate(source) if a >= d0}
    den, ints = tensor.integer_form()

    def entry(a, b):
        at = diagonal if a < d0 and b < d0 else original
        return dict(sorted((at[k], c) for k, c in ints.get((source[a], source[b]), {}).items()))

    labels = (["%s+%s'" % (tensor.labels[i], tensor.labels[i]) for i in zero_idx]
              + [tensor.labels[i] for i in source[d0:]])
    ext = StructureTensor._of(len(source), tuple(labels),
                              (den, pair_table(len(source), entry, skew=True)), True)
    new_spec = GradingSpec((0,) * d0 + tuple(spec.weights[i] for i in source[d0:-d0])
                           + (n,) * d0, kind="quasi")
    ok, wit = new_spec.validate(ext)
    if not ok:
        raise IdentityFailed("extension violates the quasi-grading at %r" % (wit,))
    return ext, new_spec, grading_operator(new_spec)


def splitting_operators(tensor, part_a, part_b):
    """Projections onto the two parts of a vector-space splitting q = h (+) r.

    Both index sets must partition the basis and span subalgebras.  Each
    projection is then a near-derivation with coefficients (0, -1), and the
    negatives of the two derived tensors sum back to the bracket.
    """
    part_a, part_b = list(part_a), list(part_b)
    n = tensor.dim
    if sorted(part_a + part_b) != list(range(n)):
        raise ArgumentError("parts", "index sets do not partition the basis")
    for name, part in (("part_a", part_a), ("part_b", part_b)):
        pset = set(part)
        for i in part:
            for j in part:
                if any(k not in pset for k in tensor.bracket(i, j)):
                    raise ArgumentError(name, "part %r is not a subalgebra" % (sorted(part),))
    d1 = RatMatrix.diagonal([ONE if i in set(part_a) else ZERO for i in range(n)])
    d2 = RatMatrix.identity(n) - d1
    return d1, d2


@dataclass
class NilpotentSquareReport:
    """Diagnostics for D = (ad e)^2."""

    derived: StructureTensor
    ad_e_cubed_zero: bool
    d_squared_zero: bool
    image_bracket_zero: bool
    image_in_kernel: bool
    formula_check: bool


def nilpotent_square(tensor, e):
    """The operator D = (ad e)^2 together with its structural diagnostics.

    formula_check is the derived bracket against 2[[e,x],[e,y]] on all basis
    pairs.  For a Lie tensor it holds by the Leibniz rule: ad e is a
    derivation, so (ad e)^2 [x, y] = [(ad e)^2 x, y] + 2[ad e x, ad e y] +
    [x, (ad e)^2 y], and it is read from the tensor's Jacobi verdict (a
    tensor built by `_expand` carries it); any other tensor is compared by a
    `contract` call.  The three sufficient conditions reported (D^2 = 0, the
    image bracketing to zero: [Dx, Dy] = 0, the image landing in the kernel:
    D[Dx, y] = 0) each force D to be a quasi-derivation when they hold; both
    image conditions are `contract` calls.  D^2 = (ad e)^3 ad e, so D^2 = 0
    is read from (ad e)^3 = 0 when that holds, and formed only otherwise.
    """
    ade = ad(tensor, e)
    op = ade * ade
    t1 = derived(tensor, op)
    return op, NilpotentSquareReport(
        derived=t1,
        ad_e_cubed_zero=(cubed_zero := (op * ade).is_zero()),
        d_squared_zero=cubed_zero or (op * op).is_zero(),
        image_bracket_zero=contract(tensor, [(1, None, op, op)]).is_zero(),
        image_in_kernel=contract(tensor, [(1, op, op, None)]).is_zero(),
        formula_check=is_lie(tensor) or t1 == contract(tensor, [(2, None, ade, ade)]),
    )


@dataclass
class Sl2Triple:
    """Coordinates of a standard triple in the ambient algebra basis;
    tensor is the ambient algebra, as the triple's guard checked it."""

    e: list
    h: list
    f: list
    tensor: StructureTensor | None = field(default=None, repr=False, compare=False)


def sl2_complete(family, n, partition):
    """Standard triple for the block-Jordan nilpotent of a partition of n.

    Only family "sl" is constructed here (blocks of size at most 2, so the
    cube of ad e vanishes); for so/sp supply the triple explicitly.  Family,
    size and partition are refused, as `build_classical` refuses them, before
    any matrix is built.
    """
    _check_family(family, n)
    if family != "sl":
        raise ArgumentError("family", "triples are built for sl only; supply e, h, f directly")
    parts = [int(p) for p in partition]
    if sum(parts) != n or any(p < 1 for p in parts):
        raise ArgumentError("partition", "partition %r does not sum to %d" % (parts, n))
    if max(parts) > 2:
        raise ArgumentError("partition",
                            "partition %r exceeds the height criterion (parts <= 2)" % (parts,))
    e, h, f = ([[0] * n for _ in range(n)] for _ in range(3))
    off = 0
    for p in parts:
        for i in range(p - 1):
            e[off + i][off + i + 1] = 1
            f[off + i + 1][off + i] = (i + 1) * (p - 1 - i)
        for i in range(p):
            h[off + i][off + i] = p - 1 - 2 * i
        off += p
    mats, labels = basis_matrices("sl", n)
    coords = _matrix_reader(mats)
    tensor = _expand(mats, labels, coords)
    triple = Sl2Triple(*([coords(_flat(m), 1).get(k, ZERO) for k in range(len(mats))]
                         for m in (e, h, f)), tensor)
    if tensor.apply(triple.h, triple.e) != [2 * c for c in triple.e]:
        raise IdentityFailed("[h,e] != 2e")
    if tensor.apply(triple.h, triple.f) != [-2 * c for c in triple.f]:
        raise IdentityFailed("[h,f] != -2f")
    if tensor.apply(triple.e, triple.f) != triple.h:
        raise IdentityFailed("[e,f] != h")
    return triple
