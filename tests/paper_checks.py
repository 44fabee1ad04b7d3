"""The paper's statements that no `liepencil` command checks.

Each helper here runs only under the tests.  They check, with the engine's
exact arithmetic:

  * the index theorem for brackets derived along (ad e)^2: the index of the
    derived bracket equals the centraliser dimension of e and the dimension
    of its own centre, and the bracket is nilpotent of class at most two
    (`verify_index_theorem`);
  * the two degenerate contractions of a periodically graded bracket
    (`contractions_from_grading`), and weight deformations whose table has
    exactly the exponents {0, m}, whose weight operator is then a
    near-derivation with coefficients (0, -m) (`deform_bracket`,
    `check_special`);
  * the splitting of gl_n by the involution x -> J^-1 x^T J, whose odd
    part for the standard skew J is the oracle for the closed-form sp basis
    (`involution_split`, `standard_symplectic`);
  * the closed form of the torsion of a diagonal operator diag(mu),
    (mu_k - mu_i)(mu_k - mu_j) c_ij^k, the oracle for `nijenhuis.torsion`
    and for the eigenvalue witnesses that `liepencil torsion` and
    `nijenhuis-check` read off its support (`diagonal_torsion_witnesses`);
  * the per-power Nijenhuis properties computed one by one, the oracle of
    `nijenhuis.check_N_properties`, which reads them from the hierarchy,
    and the inputs on which a tensor that is not Lie reaches its scans:
    the skew tensors in the kernel of T -> tau_N(T) and the brackets graded
    by the max of integer weights (`reference_N_properties`,
    `torsion_kernel`, `max_graded_bracket`);
  * the associative operators L_a, R_a on gl_n, the sandwich brackets they
    derive, and the comparison with Nijenhuis operators: the torsion of
    D_a = (L_a + R_a)/2 on the odd part of an involution split is
    -1/4 [[a, x], [a, y]] (`assoc_operators`, `assoc_torsion_formula`);
  * vanishing propagation along an operator and the shift of the derived
    brackets by a derivation (`check_vanishing_propagation`,
    `shift_by_derivation`);
  * the frozen bracket at a covector and the weight components of a
    polynomial (`frozen_bracket`, `bihomogeneous_components`).

Engine functions are called through their modules (`analysis.lie_index`,
not a name bound at import), so a test that patches a module attribute
sees every call made here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from liepencil import analysis, constructions, exact, io as iomod, nijenhuis, poisson, tensors
from liepencil.exact import ONE, ZERO, RatMatrix, SparsePoly, _unpack
from liepencil.tensors import IdentityFailed, StructureTensor

from helpers import inverse, mat_commutator, terms, transpose


# analysis

def centraliser(tensor, x):
    """Canonical basis of the kernel of ad x."""
    return exact.kernel_basis(tensors.ad(tensor, x))


@dataclass
class IndexTheoremReport:
    """Cross-checked invariants of a derived bracket at a nilpotent square."""

    dim: int
    index_prob: int
    index_exact: int | None
    centraliser_dim: int
    centre_dim: int
    nilpotency_class: int
    consistent: bool


def nilpotency_class(tensor):
    """Length of the lower central series until it hits zero.

    Abelian tensors have class 1; raises if the series stabilises above zero.
    """
    dims = analysis.lower_central_series(tensor)
    if dims[-1] != 0:
        raise ValueError("tensor is not nilpotent; series stabilises at %d"
                         % dims[-1])
    return len(dims) - 1


def verify_index_theorem(family, n, partition, seed=None):
    """Index of the derived bracket at (ad e)^2 for a standard triple.

    Builds the matrix algebra, takes the triple attached to the partition,
    forms the derived bracket, and checks that its index equals both the
    centraliser dimension of e and the dimension of its own centre, and
    that the derived bracket is nilpotent of class at most two.  Each
    centre vector is a constant kernel vector of the structure matrix, so
    dim z <= index <= index_prob; index_exact is the index when the two
    bounds meet, else None.
    """
    triple = constructions.sl2_complete(family, n, partition)
    derived_tensor = constructions.nilpotent_square(triple.tensor, triple.e)[1].derived

    rep_p = analysis.lie_index(derived_tensor, mode="prob", seed=seed)
    cent = centraliser(triple.tensor, triple.e)
    centre = analysis.lie_centre(derived_tensor)
    cls = nilpotency_class(derived_tensor)

    index_exact = rep_p.index if rep_p.index == len(centre) else None
    consistent = index_exact == len(cent) and cls <= 2
    return IndexTheoremReport(
        dim=derived_tensor.dim,
        index_prob=rep_p.index,
        index_exact=index_exact,
        centraliser_dim=len(cent),
        centre_dim=len(centre),
        nilpotency_class=cls,
        consistent=consistent,
    )


# constructions

def matrix_reader(basis_mats):
    """(read, coords) on a list of basis matrices: read is the basis reader
    `constructions._matrix_reader` makes, which reads a matrix's integer
    form, and coords reads a `RatMatrix` through it into a coordinate list."""
    read = constructions._matrix_reader(basis_mats)

    def coords(m):
        sol = read(constructions._flat(m.ints), m.den)
        return [sol.get(k, ZERO) for k in range(len(basis_mats))]
    return read, coords


def matrix_coords(basis_mats, target):
    """Coordinates of a matrix with respect to a list of basis matrices."""
    return matrix_reader(basis_mats)[1](target)


def build_gl_associative(n):
    """Associative product tensor of the full matrix algebra on the E_ij
    basis, each product x_i x_j read by one basis reader in row-major order."""
    mats, labels = constructions.basis_matrices("gl", n)
    coords = matrix_reader(mats)[1]
    table = {}
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            vec = {k: c for k, c in enumerate(coords(x * y)) if c}
            if vec:
                table[(i, j)] = vec
    return StructureTensor._of(len(mats), tuple(labels), tensors._form_of(table))


def standard_symplectic(n):
    if n % 2:
        raise constructions.ArgumentError("n", "sp needs even size")
    m = n // 2
    J = [[0] * n for _ in range(n)]
    for i in range(m):
        J[i][m + i] = 1
        J[m + i][i] = -1
    return RatMatrix(J)


@dataclass
class InvolutionSplit:
    """Splitting of gl_n by the involution x -> J^-1 x^T J.

    odd is the fixed-minus part (a Lie subalgebra: so or sp depending on the
    symmetry of J), even the fixed-plus part; together they grade gl_n by Z_2.
    odd_coords(x) reads a matrix's coordinates on odd from one elimination,
    and odd_tensor, the commutator on the basis S1, S2, ..., is read through
    it; a commutator outside the odd part raises IdentityFailed.  With the
    standard skew J, odd and odd_tensor are the oracle for the closed-form
    sp basis of `constructions.basis_matrices`.
    """

    n: int
    J: RatMatrix
    odd: list
    even: list
    odd_coords: object = field(init=False, repr=False, compare=False)
    odd_tensor: StructureTensor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        read, self.odd_coords = matrix_reader(self.odd)
        labels = ["S%d" % (k + 1) for k in range(len(self.odd))]
        try:
            self.odd_tensor = constructions._expand(self.odd, labels, read)
        except ValueError:
            raise IdentityFailed("odd part is not a subalgebra")

    def star(self, x):
        return inverse(self.J) * transpose(x) * self.J


def involution_split(n, J=None):
    """Compute the two eigenspaces of the adjoint involution of J."""
    if J is None:
        J = RatMatrix.identity(n)
    if J.nrows != n or J.ncols != n:
        raise ValueError("J shape mismatch")
    Jt = transpose(J)
    if not (Jt == J or Jt == -J):
        raise ValueError("J must be symmetric or skew")
    Jinv = inverse(J)
    # sigma as an n^2 x n^2 matrix acting on flattened gl
    sig_cols = []
    for i in range(n):
        for j in range(n):
            sig = Jinv * transpose(constructions.unit_matrix(n, i, j)) * J
            sig_cols.append([x for row in sig.rows for x in row])
    sigma = transpose(RatMatrix(sig_cols))
    ident = RatMatrix.identity(n * n)
    odd_vecs = exact.kernel_basis(sigma + ident)
    even_vecs = exact.kernel_basis(sigma - ident)
    if len(odd_vecs) + len(even_vecs) != n * n:
        raise IdentityFailed("involution eigenspaces do not fill gl")

    def to_mats(vecs):
        return [RatMatrix([v[i * n:(i + 1) * n] for i in range(n)]) for v in vecs]

    return InvolutionSplit(n, J, to_mats(odd_vecs), to_mats(even_vecs))


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
        okx, wit = tensors.check_skew(t)
        if okx:
            okx, wit = tensors.check_jacobi(t)
        if not okx:
            raise ValueError("contraction fails Lie checks at %r" % (wit,))
    return t0, tinf


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
        return tensors.tensor_combination([(t ** e if e >= 0 else ONE / t ** (-e), term)
                                           for e, term in self.terms.items()])


def deform_bracket(tensor, weights):
    """Conjugate the bracket by the weight scaling x_i -> t^w_i x_i.

    The pair (i, j) contributes at exponent w_i + w_j - w_k for each value
    index k.  Negative exponents are legal and simply reported in the table.
    """
    if isinstance(weights, constructions.GradingSpec):
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
    total = tensors.tensor_combination([(ONE, t) for t in table.terms.values()])
    op = RatMatrix.diagonal([Fraction(w) for w in weights])
    checks = {}
    checks["derived_is_minus_m_times_tm"] = (
        tensors.derived(total, op) == table.terms[m].scale(-m))
    action = tensors.classify_operator(total, op)
    checks["classified_near_0_minus_m"] = (
        action.tag == tensors.TAG_NEAR and action.a == 0 and action.b == -m)
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
    gl_mats, gl_labels = constructions.basis_matrices("gl", n)
    gl_read, gl_coords = matrix_reader(gl_mats)
    left_cols = [gl_coords(a * b) for b in gl_mats]
    right_cols = [gl_coords(b * a) for b in gl_mats]
    left = transpose(RatMatrix(left_cols))
    right = transpose(RatMatrix(right_cols))
    gl_tensor = constructions._expand(gl_mats, gl_labels, gl_read)
    t1 = tensors.derived(gl_tensor, left)
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
        la_k = transpose(RatMatrix([gl_coords(acc * b) for b in gl_mats]))
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
        result.d_a_odd = transpose(RatMatrix(d_odd_cols))
        result.odd_tensor = split.odd_tensor
        second = tensors.derived(tensors.derived(split.odd_tensor, result.d_a_odd),
                                 result.d_a_odd)
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


# io

def poly_to_list(p):
    """Terms as [{"exponents": [...], "coeff": "p/q"}], graded order."""
    return [{"exponents": list(e), "coeff": exact.format_rat(c)}
            for e, c in sorted(terms(p).items(), key=lambda t: (sum(t[0]), t[0]))]


def seeds_to_dict(polys):
    return {"seeds": [poly_to_list(p) for p in polys]}


def save_seeds(polys, path):
    iomod._write_json(seeds_to_dict(polys), path)


# nijenhuis

def diagonal_torsion_witnesses(tensor, op):
    """Eigenvalue obstructions to a diagonal operator being Nijenhuis.

    For N = diag(mu) the torsion entry over c_ij^k is
    (mu_k - mu_i)(mu_k - mu_j) c_ij^k: [N x_i, N x_j] gives mu_i mu_j c,
    N^2 [x_i, x_j] gives mu_k^2 c and each mixed term -mu_k mu_i c or
    -mu_k mu_j c.  Every support triple where that factor is nonzero is a
    witness, in support order; the list is empty exactly when N is
    Nijenhuis for the tensor.
    """
    if not op.is_diagonal():
        raise ValueError("diagnostic needs a diagonal operator")
    mu = [op[i, i] for i in range(op.nrows)]
    out = []
    for i, j, k, c in tensor.support():
        factor = (mu[k] - mu[i]) * (mu[k] - mu[j])
        if factor:
            out.append((i, j, k, factor * c))
    return out



def reference_N_properties(tensor, op, depth=3):
    """`nijenhuis.check_N_properties` computed field by field, none read
    from an identity: per power k the iterate, the torsion of N^k and, from
    k = 2 on, the derived bracket along N^k (at k = 1 the iterate is that
    bracket), and the Jacobi scan of every iterate and of every pairwise
    sum."""
    iterates = [tensor]
    for _ in range(depth):
        iterates.append(tensors.derived(iterates[-1], op))
    power = RatMatrix.identity(op.nrows)
    steps = []
    all_ok = True
    for k in range(1, depth + 1):
        power = power * op
        nij, _ = nijenhuis.is_nijenhuis(tensor, power)
        sign = Fraction(1) if k % 2 == 1 else Fraction(-1)
        matches = k == 1 or iterates[k] == tensors.derived(tensor, power).scale(sign)
        lie = tensors.is_lie(iterates[k])
        steps.append(nijenhuis.NStepReport(k, nij, matches, lie))
        all_ok = all_ok and nij and matches and lie
    witness = next(((i, j) for i, j in combinations(range(depth + 1), 2)
                    if not tensors.is_lie(iterates[i] + iterates[j])), None)
    return nijenhuis.NPropertiesReport(nijenhuis.torsion(tensor, op), steps, witness is None,
                                       witness, all_ok and witness is None)


def torsion_kernel(op):
    """A basis of the skew tensors T on Q^n, n = op.nrows, with
    tau_N(T) = 0 for N = op: the kernel of the linear map T -> tau_N(T),
    solved on the unit tensors [x_i, x_j] = x_k, i < j."""
    n = op.nrows
    units = [StructureTensor(n, {(i, j): {k: 1}, (j, i): {k: -1}})
             for i, j in combinations(range(n), 2) for k in range(n)]
    rows = defaultdict(dict)
    for col, unit in enumerate(units):
        for i, j, k, c in nijenhuis.torsion(unit, op).support():
            rows[i, j, k][col] = c
    return [tensors.tensor_combination([(c, u) for c, u in zip(vec, units) if c])
            for vec in exact.kernel_basis(list(rows.values()), len(units))]


def max_graded_bracket(weights, rng):
    """A skew tensor with [x_i, x_j] in the span of the x_k of weight
    max(w_i, w_j), coefficients drawn from rng in -2..2.  Then diag(w) is
    Nijenhuis: its torsion is (w_k - w_i)(w_k - w_j) c_ij^k and w_k is w_i
    or w_j.  Most draws fail Jacobi."""
    n = len(weights)
    table = {}
    for i, j in combinations(range(n), 2):
        top = max(weights[i], weights[j])
        vec = {k: Fraction(rng.randint(-2, 2)) for k in range(n) if weights[k] == top}
        table[i, j] = vec
        table[j, i] = {k: -c for k, c in vec.items()}
    return StructureTensor(n, table)


@dataclass
class AssocTorsionReport:
    """Torsion of the symmetrized multiplication operator on the odd part.

    For a fixed by the involution, D_a = (L_a + R_a)/2 preserves the odd
    part and its torsion there is -1/4 [[a, x], [a, y]]; the derived bracket
    along (ad a)^2 is twice the double commutator.  nijenhuis records whether
    the torsion vanishes outright.
    """

    operator: RatMatrix
    torsion: StructureTensor
    torsion_matches: bool
    derived_matches: bool
    nijenhuis: bool
    double_commutator_zero: bool
    witness: tuple | None
    ok: bool


def assoc_torsion_formula(n, a, J=None):
    if J is None:
        J = RatMatrix.identity(n)
    ops = assoc_operators(n, a, J)
    split = ops.split
    odd = split.odd
    dim = len(odd)
    tors = nijenhuis.torsion(ops.odd_tensor, ops.d_a_odd)

    quarter = Fraction(-1, 4)

    def entry(i, j):
        w = mat_commutator(mat_commutator(a, odd[i]), mat_commutator(a, odd[j]))
        return {k: quarter * c for k, c in enumerate(split.odd_coords(w)) if c}

    expected = StructureTensor._of(dim, ops.odd_tensor.labels,
                                   tensors._form_of(tensors.pair_table(dim, entry)))
    double = expected.scale(-8)     # 2 [[a, x], [a, y]]

    ada_cols = [split.odd_coords(mat_commutator(a, mat_commutator(a, b)))
                for b in odd]
    ada_sq = transpose(RatMatrix(ada_cols))
    derived_ok = tensors.derived(ops.odd_tensor, ada_sq) == double

    matches = tors == expected
    nij = tors.is_zero()
    witness = None if matches else nijenhuis._first_difference(tors, expected)
    return AssocTorsionReport(
        operator=ops.d_a_odd,
        torsion=tors,
        torsion_matches=matches,
        derived_matches=derived_ok,
        nijenhuis=nij,
        double_commutator_zero=double.is_zero(),
        witness=witness,
        ok=matches and derived_ok,
    )


# poisson

def frozen_bracket(tensor, gamma):
    """Constant bracket {x, y}_gamma = gamma([x, y]) at a covector gamma."""
    if not tensors.is_lie(tensor):
        raise ValueError("frozen bracket needs a Lie tensor")
    n = tensor.dim
    gamma = [Fraction(c) for c in gamma]
    if len(gamma) != n:
        raise ValueError("covector length mismatch")
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = sum((c * gamma[k] for k, c in tensor.bracket(i, j).items()), ZERO)
            if val:
                table[(i, j)] = SparsePoly.const(n, val)
    return poisson.PoissonStructure(n, table)


def bihomogeneous_components(f, weights):
    """Split f by total weight of its monomials.

    Returns an ordered dict weight -> component; the components sum to f and
    each is an eigenvector of the lifted weight operator.
    """
    weights = [int(w) for w in weights]
    if len(weights) != f.nvars:
        raise ValueError("weight count mismatch")
    buckets = {}
    for m, c in f.ints.items():
        w = sum(wi * ei for wi, ei in zip(weights, _unpack(m, f.nvars)))
        buckets.setdefault(w, {})[m] = c
    return {w: SparsePoly._of(f.nvars, f.den, ints)
            for w, ints in sorted(buckets.items())}


# tensors

class PreconditionViolated(ValueError):
    """A hypothesis check failed; carries the first failing power."""

    def __init__(self, power, side):
        self.power = power
        self.side = side
        super().__init__("vanishing hypothesis fails at D^%d on the %s argument"
                         % (power, side))


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


def is_derivation(tensor, op):
    return tensors.derived(tensor, op).is_zero()


def shift_by_derivation(tensor, op, der):
    """Derived tensors of D + d for a derivation d.

    Returns (rho(D+d).T, rho(D+d)^2.T) and checks the two shift identities:
    the first derived tensor is unchanged and the second moves by the derived
    tensor along the commutator [d, D].
    """
    if not is_derivation(tensor, der):
        raise ValueError("shift operator is not a derivation of the tensor")
    shifted = op + der
    t1 = tensors.derived(tensor, shifted)
    t2 = tensors.derived(t1, shifted)
    base1 = tensors.derived(tensor, op)
    base2 = tensors.derived(base1, op)
    if t1 != base1:
        raise IdentityFailed("first derived tensor moved under a derivation shift")
    corr = tensors.derived(tensor, mat_commutator(der, op))
    if t2 != base2 + corr:
        raise IdentityFailed("second derived shift identity failed")
    return t1, t2
