"""Builders: classical matrix algebras, gradings, contractions, deformations.

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

from .exact import (ONE, ZERO, RatMatrix, _int_coordinates, coordinates,
                    kernel_basis, mat_commutator, unit_vector)
from .tensors import (StructureTensor, TAG_NEAR, IdentityFailed, ad, check_jacobi,
                      check_skew, classify_operator, contract, derived, pair_table,
                      tensor_combination)


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


def matrix_coords(basis_mats, target):
    """Coordinates of a matrix with respect to a list of basis matrices."""
    return _matrix_reader(basis_mats)(target)


def tensor_from_matrix_basis(mats, labels, product="commutator", check_lie=True):
    """Structure tensor of a bilinear matrix product expanded over a basis."""
    return _expand(mats, labels, _matrix_reader(mats), product, check_lie)


def _expand(mats, labels, coords, product="commutator", check_lie=True):
    """`tensor_from_matrix_basis` over the basis reader coords; a product
    outside the span raises ValueError.  A commutator is expanded once per
    pair i < j; row j, filled after row i, writes [x_j, x_i] as the negated
    vector, so the table keeps row-major key order."""
    n = len(mats)
    table = {}
    for i in range(n):
        for j in range(n):
            if product != "commutator":
                vec = {k: c for k, c in enumerate(coords(mats[i] * mats[j])) if c}
            elif i < j:
                vec = {k: c for k, c in enumerate(coords(mat_commutator(mats[i], mats[j])))
                       if c}
            else:
                vec = {k: -c for k, c in table.get((j, i), {}).items()}
            if vec:
                table[(i, j)] = vec

    tensor = StructureTensor._of(n, table, tuple(labels))
    if check_lie:
        ok, wit = check_skew(tensor)
        if not ok:
            raise ValueError("commutator tensor not skew at %r" % (wit,))
        ok, wit = check_jacobi(tensor)
        if not ok:
            raise ValueError("Jacobi fails at %r" % (wit,))
    return tensor


def standard_symplectic(n):
    if n % 2:
        raise ValueError("sp needs even size")
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
            raise ValueError("sl needs n >= 2")
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
        raise ValueError("unknown family %r" % (family,))
    return mats, labels


def build_classical(family, n):
    """Lie structure tensor of gl/sl/so/sp on its standard basis; sp is the
    odd part of the symplectic involution split, whose tensor it reads."""
    if family == "sp":
        return involution_split(n, standard_symplectic(n)).odd_tensor
    return tensor_from_matrix_basis(*basis_matrices(family, n))


def build_gl_associative(n):
    """Associative product tensor of the full matrix algebra on the E_ij basis."""
    return tensor_from_matrix_basis(*basis_matrices("gl", n), product="assoc", check_lie=False)


def direct_sum(t1, t2):
    """Direct sum of two structure tensors (blocks commute)."""
    n1, n2 = t1.dim, t2.dim
    table = {}
    for (i, j), vec in t1.table.items():
        table[(i, j)] = dict(vec)
    for (i, j), vec in t2.table.items():
        table[(i + n1, j + n1)] = {k + n1: c for k, c in vec.items()}
    labels = list(t1.labels) + ["%s'" % s for s in t2.labels]
    return StructureTensor(n1 + n2, table, labels)


@dataclass(frozen=True)
class GradingSpec:
    """Weight assignment on a basis.

    kind "periodic": weights in {0..modulus-1}, brackets add mod modulus.
    kind "integer": arbitrary integer weights, brackets add in Z.
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
                raise ValueError("periodic weights must lie in 0..modulus-1")
        elif self.kind not in ("integer", "quasi"):
            raise ValueError("unknown grading kind %r" % (self.kind,))

    @property
    def top(self):
        return max(self.weights)

    def eigenspace(self, w):
        return tuple(i for i, wi in enumerate(self.weights) if wi == w)

    def validate(self, tensor):
        """Check the bracket respects the grading; returns (ok, witness)."""
        for (i, j), vec in tensor.table.items():
            s = self.weights[i] + self.weights[j]
            if self.kind == "periodic":
                want = s % self.modulus
            elif self.kind == "integer":
                want = s
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


def contractions_from_grading(tensor, spec):
    """Split a periodically graded bracket into its two degenerate contractions.

    T_0 keeps the pairs whose weights add to less than the modulus, T_inf the
    rest (those wrap around).  Both are Lie, they sum to T, and T_inf is
    positively graded for the reversed weights, hence nilpotent.
    """
    if spec.kind != "periodic":
        raise ValueError("contractions need a periodic grading")
    ok, wit = spec.validate(tensor)
    if not ok:
        raise ValueError("grading invalid at %r" % (wit,))
    n = spec.modulus
    low, high = {}, {}
    for (i, j), vec in tensor.table.items():
        if spec.weights[i] + spec.weights[j] < n:
            low[(i, j)] = dict(vec)
        else:
            high[(i, j)] = dict(vec)
    t0 = StructureTensor(tensor.dim, low, tensor.labels)
    tinf = StructureTensor(tensor.dim, high, tensor.labels)
    for t in (t0, tinf):
        okx, wit = check_skew(t)
        if okx:
            okx, wit = check_jacobi(t)
        if not okx:
            raise ValueError("contraction fails Lie checks at %r" % (wit,))
    return t0, tinf


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
    table = {}
    for (i, j), vec in tensor.table.items():
        if i in pos and j in pos:
            sub = {}
            for k, c in vec.items():
                if k not in pos:
                    raise ValueError("index set is not closed under the bracket")
                sub[pos[k]] = c
            if sub:
                table[(pos[i], pos[j])] = sub
    return StructureTensor(len(idx), table, [tensor.labels[i] for i in idx])


def splitting_operators(tensor, part_a, part_b):
    """Projections onto the two parts of a vector-space splitting q = h (+) r.

    Both index sets must partition the basis and span subalgebras.  Each
    projection is then a near-derivation with coefficients (0, -1), and the
    negatives of the two derived tensors sum back to the bracket.
    """
    part_a, part_b = list(part_a), list(part_b)
    n = tensor.dim
    if sorted(part_a + part_b) != list(range(n)):
        raise ValueError("index sets do not partition the basis")
    for part in (part_a, part_b):
        pset = set(part)
        for i in part:
            for j in part:
                if any(k not in pset for k in tensor.bracket(i, j)):
                    raise ValueError("part %r is not a subalgebra" % (sorted(part),))
    d1 = RatMatrix.diagonal([ONE if i in set(part_a) else ZERO for i in range(n)])
    d2 = RatMatrix.identity(n) - d1
    return d1, d2


@dataclass
class DeformationTable:
    """Laurent table of a weight deformation: exponent -> tensor term."""

    weights: tuple
    terms: dict

    @property
    def is_polynomial(self):
        return all(e >= 0 for e in self.terms)

    def negative_exponents(self):
        return sorted(e for e in self.terms if e < 0)

    def at(self, t):
        """Evaluate the table at a nonzero rational t."""
        t = Fraction(t)
        return tensor_combination([(t ** e if e >= 0 else ONE / t ** (-e), term)
                                   for e, term in self.terms.items()])


def deform_bracket(tensor, weights):
    """Conjugate the bracket by the weight scaling x_i -> t^w_i x_i.

    The pair (i, j) contributes at exponent w_i + w_j - w_k for each value
    index k.  Negative exponents are legal and simply reported in the table.
    """
    if isinstance(weights, GradingSpec):
        weights = weights.weights
    weights = tuple(int(w) for w in weights)
    if len(weights) != tensor.dim:
        raise ValueError("weight count mismatch")
    buckets = {}
    for (i, j), vec in tensor.table.items():
        for k, c in vec.items():
            e = weights[i] + weights[j] - weights[k]
            buckets.setdefault(e, {}).setdefault((i, j), {})[k] = c
    terms = {e: StructureTensor(tensor.dim, tab, tensor.labels)
             for e, tab in sorted(buckets.items())}
    return DeformationTable(weights, terms)


@dataclass
class SpecialReport:
    is_special: bool
    m: int | None
    checks: dict


def check_special(table):
    """Decide whether a polynomial deformation has exactly the terms {0, m}.

    For a special table the weight operator is a semisimple near-derivation
    with coefficients (0, -m); the checks dict also records the support
    containment (every pair lands in levels i+j and i+j-m) and the maximal
    weight bounds (p <= m when the top level brackets nontrivially with
    itself, p = m when it is a non-abelian subalgebra).
    """
    if not table.is_polynomial:
        raise ValueError("table has negative exponents %r" % table.negative_exponents())
    exps = sorted(table.terms)
    if len(exps) != 2 or exps[0] != 0 or exps[1] < 1:
        top = max(exps) if exps else None
        return SpecialReport(False, top, {})
    m = exps[1]
    weights = table.weights
    total = tensor_combination([(ONE, t) for t in table.terms.values()])
    op = RatMatrix.diagonal([Fraction(w) for w in weights])
    checks = {}
    checks["derived_is_minus_m_times_tm"] = (
        derived(total, op) == table.terms[m].scale(-m))
    action = classify_operator(total, op)
    checks["classified_near_0_minus_m"] = (
        action.tag == TAG_NEAR and action.a == 0 and action.b == -m)
    support_ok = True
    for (i, j), vec in total.table.items():
        s = weights[i] + weights[j]
        for k in vec:
            if weights[k] not in (s, s - m):
                support_ok = False
    checks["support_in_two_levels"] = support_ok
    p = max(weights)
    top_idx = [i for i, w in enumerate(weights) if w == p]
    top_brackets = any(total.bracket(i, j) for i in top_idx for j in top_idx)
    top_closed = all(all(weights[k] == p for k in total.bracket(i, j))
                     for i in top_idx for j in top_idx)
    checks["top_weight_bound"] = (not top_brackets) or p <= m
    checks["top_subalgebra_forces_equality"] = (
        not (top_brackets and top_closed)) or p == m
    return SpecialReport(True, m, checks)


@dataclass
class NilpotentSquareReport:
    """Diagnostics for D = (ad e)^2."""

    ad_e: RatMatrix
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
        ad_e=ade,
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
        raise ValueError("triples are built for sl only; supply e, h, f directly")
    parts = [int(p) for p in partition]
    if sum(parts) != n or any(p < 1 for p in parts):
        raise ValueError("partition %r does not sum to %d" % (parts, n))
    if max(parts) > 2:
        raise ValueError("partition %r exceeds the height criterion (parts <= 2)" % (parts,))
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


@dataclass
class AssocOperators:
    """Left/right multiplications by a fixed element of a matrix algebra.

    checks holds the verified identities: minus the derived bracket along L_a
    is x a y - y a x, powers of L_a are left multiplications by powers of a,
    and (with an involution) the second derived bracket along the symmetrized
    operator D_a restricted to the odd part is the a^2 sandwich bracket.
    """

    a: RatMatrix
    left: RatMatrix
    right: RatMatrix
    gl_tensor: StructureTensor
    derived_left: StructureTensor
    checks: dict
    split: InvolutionSplit | None = None
    d_a: RatMatrix | None = None
    odd_tensor: StructureTensor | None = None
    d_a_odd: RatMatrix | None = None


def assoc_operators(n, a, J=None):
    """L_a, R_a and their derived tensors on gl_n, optionally split by J."""
    gl_mats, gl_labels = basis_matrices("gl", n)
    gl_coords = _matrix_reader(gl_mats)
    left_cols = [gl_coords(a * b) for b in gl_mats]
    right_cols = [gl_coords(b * a) for b in gl_mats]
    left = RatMatrix(left_cols).transpose()
    right = RatMatrix(right_cols).transpose()
    gl_tensor = _expand(gl_mats, gl_labels, gl_coords)
    t1 = derived(gl_tensor, left)
    checks = {}
    sandwich_ok = True
    for i, x in enumerate(gl_mats):
        for j, y in enumerate(gl_mats):
            want = gl_coords(x * a * y - y * a * x)
            vec = t1.bracket(i, j)
            got = [-vec.get(k, ZERO) for k in range(n * n)]
            if got != want:
                sandwich_ok = False
    checks["minus_derived_is_sandwich"] = sandwich_ok
    power_ok = True
    acc = a
    lp = left
    for _ in range(2, 5):
        acc = acc * a
        lp = lp * left
        la_k = RatMatrix([gl_coords(acc * b) for b in gl_mats]).transpose()
        if lp != la_k:
            power_ok = False
    checks["left_powers_match"] = power_ok
    result = AssocOperators(a, left, right, gl_tensor, t1, checks)
    if J is not None:
        split = involution_split(n, J)
        if split.star(a) != a:
            raise ValueError("a must be fixed by the involution")
        result.split = split
        result.d_a = (left + right).scale(Fraction(1, 2))
        odd = split.odd
        d_odd_cols = [split.odd_coords((a * b + b * a).scale(Fraction(1, 2)))
                      for b in odd]
        result.d_a_odd = RatMatrix(d_odd_cols).transpose()
        result.odd_tensor = split.odd_tensor
        second = derived(derived(split.odd_tensor, result.d_a_odd), result.d_a_odd)
        a2 = a * a
        ok2 = True
        for i, x in enumerate(odd):
            for j, y in enumerate(odd):
                want = split.odd_coords(x * a2 * y - y * a2 * x)
                vec = second.bracket(i, j)
                got = [vec.get(k, ZERO) for k in range(len(odd))]
                if got != want:
                    ok2 = False
        checks["odd_second_derived_is_a2_sandwich"] = ok2
    return result
