"""Builders: classical matrix algebras, gradings, splittings, standard triples.

Conventions fixed here:
  * gl_n uses the unit matrices E_ij in row-major order;
  * sl_2 uses the triple (e, h, f) with [e,f] = h, [h,e] = 2e, [h,f] = -2f;
  * sl_n (n > 2) uses off-diagonal E_ij plus H_k = E_kk - E_(k+1)(k+1);
  * so_n is the set of matrices antisymmetric for a symmetric J (default the
    identity, basis F_ij = E_ij - E_ji), sp_n uses the standard skew J;
  * periodic gradings are weight assignments w_i in {0..n-1} with
    [q_i, q_j] inside q_(i+j mod n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .exact import (ONE, ZERO, RatMatrix, _int_coordinates, _reduced, coordinates,
                    kernel_basis, mat_commutator, unit_vector)
from .tensors import (StructureTensor, IdentityFailed, _form_of, ad, check_jacobi, contract,
                      derived, pair_table)


class ArgumentError(ValueError):
    """A builder's refusal naming the argument at fault, for a front end's message."""

    def __init__(self, argument, message):
        super().__init__(message)
        self.argument = argument


def unit_matrix(n, i, j):
    return RatMatrix([[int(r == i and c == j) for c in range(n)] for r in range(n)])


def _flat(mat):
    return [x for row in mat.rows for x in row]


def _matrix_reader(basis_mats):
    """Coordinates of matrices with respect to fixed basis matrices, from one
    elimination, each target read from its integer form; a matrix outside
    the span raises ValueError."""
    read = _int_coordinates([_flat(b) for b in basis_mats])

    def coords(target):
        sol = read([x for row in target.ints for x in row], target.den)
        if sol is None:
            raise ValueError("matrix is not in the span of the basis")
        return sol
    return coords


def tensor_from_matrix_basis(mats, labels):
    """Lie structure tensor of the commutator expanded over a matrix basis."""
    return _expand(mats, labels, _matrix_reader(mats))


def _expand(mats, labels, coords):
    """`tensor_from_matrix_basis` over the basis reader coords; a commutator
    outside the span, or a table that fails Jacobi, raises ValueError.  A
    commutator is expanded once per pair i < j; row j, filled after row i,
    writes [x_j, x_i] as the negated vector, so the table keeps row-major key
    order and is skew by construction."""
    n = len(mats)
    table = {}
    for i in range(n):
        for j in range(n):
            if i < j:
                vec = {k: c for k, c in enumerate(coords(mat_commutator(mats[i], mats[j])))
                       if c}
            else:
                vec = {k: -c for k, c in table.get((j, i), {}).items()}
            if vec:
                table[(i, j)] = vec

    tensor = StructureTensor._of(n, tuple(labels), _form_of(table))
    ok, wit = check_jacobi(tensor)
    if not ok:
        raise ValueError("Jacobi fails at %r" % (wit,))
    return tensor


def standard_symplectic(n):
    if n % 2:
        raise ArgumentError("n", "sp needs even size")
    m = n // 2
    J = [[0] * n for _ in range(n)]
    for i in range(m):
        J[i][m + i] = 1
        J[m + i][i] = -1
    return RatMatrix(J)


def basis_matrices(family, n):
    """Matrix basis and labels for a classical family."""
    if family == "gl":
        mats = [unit_matrix(n, i, j) for i in range(n) for j in range(n)]
        labels = ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    elif family == "sl":
        if n < 2:
            raise ArgumentError("n", "sl needs n >= 2")
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
    elif family == "sp":
        split = involution_split(n, standard_symplectic(n))
        mats, labels = split.odd, list(split.odd_tensor.labels)
    else:
        raise ArgumentError("family", "unknown family %r" % (family,))
    return mats, labels


def build_classical(family, n):
    """Lie structure tensor of gl/sl/so/sp on its standard basis; sp is the
    odd part of the symplectic involution split, whose tensor it reads."""
    if family == "sp":
        return involution_split(n, standard_symplectic(n)).odd_tensor
    return tensor_from_matrix_basis(*basis_matrices(family, n))


def direct_sum(t1, t2):
    """Direct sum of two structure tensors (blocks commute)."""
    n1 = t1.dim
    (d1, f1), (d2, f2) = t1.integer_form(), t2.integer_form()
    L = lcm(d1, d2)
    ints = {ij: {k: c * (L // d1) for k, c in vec.items()} for ij, vec in f1.items()}
    ints.update({(i + n1, j + n1): {k + n1: c * (L // d2) for k, c in vec.items()}
                 for (i, j), vec in f2.items()})
    labels = t1.labels + tuple("%s'" % s for s in t2.labels)
    return StructureTensor._of(n1 + t2.dim, labels, _reduced(L, ints))


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
    """
    if spec.kind != "periodic":
        raise ValueError("extension needs a periodic grading")
    ok, wit = spec.validate(tensor)
    if not ok:
        raise ValueError("grading invalid at %r" % (wit,))
    n = spec.modulus
    dim = tensor.dim
    zero_idx = list(spec.eigenspace(0))
    if not zero_idx:
        raise ValueError("grading has no zero part to extend by")
    d0 = len(zero_idx)
    big_dim = dim + d0
    # coordinates in q (+) q0': first dim slots are q, the rest the ideal copy
    adapted = []
    labels = []
    weights = []
    for pos, i in enumerate(zero_idx):
        v = unit_vector(big_dim, i)
        v[dim + pos] = ONE
        adapted.append(v)
        labels.append("%s+%s'" % (tensor.labels[i], tensor.labels[i]))
        weights.append(0)
    for w in range(1, n):
        for i in spec.eigenspace(w):
            adapted.append(unit_vector(big_dim, i))
            labels.append(tensor.labels[i])
            weights.append(w)
    for i in zero_idx:
        adapted.append(unit_vector(big_dim, i))
        labels.append(tensor.labels[i])
        weights.append(n)
    big = direct_sum(tensor, _restrict(tensor, zero_idx))
    read = coordinates(adapted)

    def entry(a, b):
        coords = read(big.apply(adapted[a], adapted[b]))
        if coords is None:
            raise ValueError("adapted basis failed to close")
        return {k: c for k, c in enumerate(coords) if c}

    ext = StructureTensor(big_dim, pair_table(big_dim, entry, skew=True), labels)
    new_spec = GradingSpec(tuple(weights), kind="quasi")
    ok, wit = new_spec.validate(ext)
    if not ok:
        raise ValueError("extension violates the quasi-grading at %r" % (wit,))
    return ext, new_spec, grading_operator(new_spec)


def _restrict(tensor, idx):
    """Substructure tensor on a list of basis indices (must be closed)."""
    pos = {i: p for p, i in enumerate(idx)}
    den, ints = tensor.integer_form()
    table = {}
    for (i, j), vec in ints.items():
        if i in pos and j in pos:
            if any(k not in pos for k in vec):
                raise ValueError("index set is not closed under the bracket")
            table[(pos[i], pos[j])] = {pos[k]: c for k, c in vec.items()}
    return StructureTensor._of(len(idx), tuple(tensor.labels[i] for i in idx),
                               _reduced(den, table))


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

    operator: RatMatrix
    derived: StructureTensor
    ad_e_cubed_zero: bool
    d_squared_zero: bool
    image_bracket_zero: bool
    image_in_kernel: bool
    formula_check: bool


def nilpotent_square(tensor, e):
    """The operator D = (ad e)^2 together with its structural diagnostics.

    The derived bracket is cross-checked against 2[[e,x],[e,y]] on all basis
    pairs.  The three sufficient conditions reported (D^2 = 0, the image
    bracketing to zero: [Dx, Dy] = 0, the image landing in the kernel:
    D[Dx, y] = 0) each force D to be a quasi-derivation when they hold.  The
    cross-check and both image conditions are `contract` calls.
    """
    ade = ad(tensor, e)
    op = ade * ade
    t1 = derived(tensor, op)
    return op, NilpotentSquareReport(
        operator=op,
        derived=t1,
        ad_e_cubed_zero=(ade * ade * ade).is_zero(),
        d_squared_zero=(op * op).is_zero(),
        image_bracket_zero=contract(tensor, [(1, None, op, op)]).is_zero(),
        image_in_kernel=contract(tensor, [(1, op, op, None)]).is_zero(),
        formula_check=t1 == contract(tensor, [(2, None, ade, ade)]),
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
    cube of ad e vanishes); for so/sp supply the triple explicitly.  The basis
    is read first, so a bad family or size is named as `build_classical` does.
    """
    mats = basis_matrices(family, n)[0]
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
    coords = _matrix_reader(mats)
    tensor = build_classical("sl", n)
    triple = Sl2Triple(*(coords(RatMatrix(m)) for m in (e, h, f)), tensor)
    if tensor.apply(triple.h, triple.e) != [2 * c for c in triple.e]:
        raise IdentityFailed("[h,e] != 2e")
    if tensor.apply(triple.h, triple.f) != [-2 * c for c in triple.f]:
        raise IdentityFailed("[h,f] != -2f")
    if tensor.apply(triple.e, triple.f) != triple.h:
        raise IdentityFailed("[e,f] != h")
    return triple


@dataclass
class InvolutionSplit:
    """Splitting of gl_n by the involution x -> J^-1 x^T J.

    odd is the fixed-minus part (a Lie subalgebra: so or sp depending on the
    symmetry of J), even the fixed-plus part; together they grade gl_n by Z_2.
    odd_coords(x) reads a matrix's coordinates on odd from one elimination,
    and odd_tensor, the commutator on the basis S1, S2, ..., is read through
    it; a commutator outside the odd part raises IdentityFailed.
    """

    n: int
    J: RatMatrix
    odd: list
    even: list
    odd_coords: object = field(init=False, repr=False, compare=False)
    odd_tensor: StructureTensor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.odd_coords = _matrix_reader(self.odd)
        labels = ["S%d" % (k + 1) for k in range(len(self.odd))]
        try:
            self.odd_tensor = _expand(self.odd, labels, self.odd_coords)
        except ValueError:
            raise IdentityFailed("odd part is not a subalgebra")

    def star(self, x):
        return self.J.inverse() * x.transpose() * self.J


def involution_split(n, J=None):
    """Compute the two eigenspaces of the adjoint involution of J."""
    if J is None:
        J = RatMatrix.identity(n)
    if J.nrows != n or J.ncols != n:
        raise ValueError("J shape mismatch")
    Jt = J.transpose()
    if not (Jt == J or Jt == -J):
        raise ValueError("J must be symmetric or skew")
    Jinv = J.inverse()
    # sigma as an n^2 x n^2 matrix acting on flattened gl
    sig_cols = []
    for i in range(n):
        for j in range(n):
            sig_cols.append(_flat(Jinv * unit_matrix(n, i, j).transpose() * J))
    sigma = RatMatrix(sig_cols).transpose()
    ident = RatMatrix.identity(n * n)
    odd_vecs = kernel_basis(sigma + ident)
    even_vecs = kernel_basis(sigma - ident)
    if len(odd_vecs) + len(even_vecs) != n * n:
        raise IdentityFailed("involution eigenspaces do not fill gl")

    def to_mats(vecs):
        return [RatMatrix([v[i * n:(i + 1) * n] for i in range(n)]) for v in vecs]

    return InvolutionSplit(n, J, to_mats(odd_vecs), to_mats(even_vecs))
