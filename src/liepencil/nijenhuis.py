"""Torsion of operators on bracket algebras and the exponential identities.

The torsion of an operator N against a bracket is the bilinear map

    tau_N(x, y) = [Nx, Ny] + N(N[x, y] - [Nx, y] - [x, Ny]);

N is Nijenhuis when it vanishes.  The second derived bracket always splits as
twice the torsion minus the derived bracket along N^2, which ties torsion to
the classification machinery.  Nilpotent Nijenhuis operators and operators
with proportional first and second derived brackets both satisfy closed-form
exponential deformation identities; the checkers here verify them pointwise
with exact arithmetic.

The torsion and both sides of each exponential identity (bar the tensor
sum T + c(s) T' of the near case) are sums of terms c O psi(A., B.), so
each is one `tensors.contract` call on the one packed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exact import RatMatrix, nilpotent_exp
from .tensors import StructureTensor, contract, derived, derived_iter, is_lie, tensor_combination


def torsion(tensor, op):
    """Torsion tensor of an operator against a bracket tensor.

    psi(N., N.) + N^2 psi - N psi(N., .) - N psi(., N.), one `contract` call.
    """
    return contract(tensor, [(1, None, op, op), (1, op * op, None, None),
                             (-1, op, op, None), (-1, op, None, op)])


def torsion_verdict(tors):
    """(vanishes, witness pair or None) of a torsion tensor.

    The witness is the first basis pair, in row-major order, whose torsion
    is nonzero.
    """
    witness = min(tors.integer_form()[1], default=None)
    return witness is None, witness


def is_nijenhuis(tensor, op):
    """(vanishes, witness pair or None); see `torsion_verdict`."""
    return torsion_verdict(torsion(tensor, op))


@dataclass
class TorsionSplit:
    """Second derived bracket against twice torsion minus the squared shift."""

    second: StructureTensor
    torsion: StructureTensor
    ok: bool


def torsion_decomposition(tensor, op):
    """Verify second-derived = 2 * torsion - derived along op^2."""
    return torsion_split(tensor, op, derived_iter(tensor, op, 2))


def torsion_split(tensor, op, second):
    """`torsion_decomposition` for a caller that already holds the second
    derived bracket rho(op)^2.T (`classify_operator` computes it)."""
    tors = torsion(tensor, op)
    shift = derived(tensor, op * op)
    return TorsionSplit(second, tors, second == tensor_combination([(2, tors), (-1, shift)]))


@dataclass
class NStepReport:
    k: int
    power_is_nijenhuis: bool
    iterate_matches_power: bool
    iterate_is_lie: bool


@dataclass
class NPropertiesReport:
    """Per-power behaviour of a Nijenhuis operator on a Lie tensor.

    For each k up to depth: N^k has vanishing torsion, the k-fold derived
    bracket is (-1)^(k-1) times the derived bracket along N^k, and every
    iterate is again a Lie bracket.  pairwise_compatible records that the sum
    of any two iterates still satisfies Jacobi.
    """

    steps: list
    pairwise_compatible: bool
    compat_witness: tuple | None
    ok: bool


def check_N_properties(tensor, op, depth=3):
    iterates = [tensor]
    for _ in range(depth):
        iterates.append(derived(iterates[-1], op))
    power = RatMatrix.identity(op.nrows)
    steps = []
    all_ok = True
    for k in range(1, depth + 1):
        power = power * op
        nij, _ = is_nijenhuis(tensor, power)
        sign = Fraction(1) if k % 2 == 1 else Fraction(-1)
        matches = iterates[k] == derived(tensor, power).scale(sign)
        lie = is_lie(iterates[k])
        steps.append(NStepReport(k, nij, matches, lie))
        all_ok = all_ok and nij and matches and lie
    witness = next(((i, j) for i, j in combinations(range(depth + 1), 2)
                    if not is_lie(iterates[i] + iterates[j])), None)
    return NPropertiesReport(steps, witness is None, witness, all_ok and witness is None)


@dataclass
class ExpReport:
    ok: bool
    witness: tuple | None = None
    precondition_ok: bool = True
    points: list = field(default_factory=list)


def exp_identity_nijenhuis(tensor, op, s):
    """One-point check of the deformation identity for nilpotent Nijenhuis ops.

    exp(-sN) [exp(sN) x, exp(sN) y]
        = [exp(sN) x, y] + [x, exp(sN) y] - exp(sN) [x, y].
    """
    s = Fraction(s)
    E = nilpotent_exp(op, s)
    Einv = nilpotent_exp(op, -s)
    lhs = contract(tensor, [(1, Einv, E, E)])
    rhs = contract(tensor, [(1, None, E, None), (1, None, None, E), (-1, E, None, None)])
    if lhs == rhs:
        return ExpReport(True, points=[s])
    witness = _first_difference(lhs, rhs)
    return ExpReport(False, witness=witness, points=[s])


def certified_exp_identity_nijenhuis(tensor, op, points=None):
    """Check at enough points to certify the polynomial identity in s.

    Both sides are polynomial in s of degree below three times the dimension,
    so agreement at 4*dim + 1 distinct rationals proves equality.
    """
    if points is None:
        points = [Fraction(k) for k in range(4 * tensor.dim + 1)]
    return check_points(lambda s: exp_identity_nijenhuis(tensor, op, s), points)


def check_points(check, points):
    """Run check(s) at each point until the first failure.

    Returns the report of the last point checked, its points field listing
    every point checked so far; an empty point list passes.
    """
    rep = ExpReport(True)
    checked = []
    for s in points:
        rep = check(s)
        checked.append(Fraction(s))
        if not rep.ok:
            break
    rep.points = checked
    return rep


def exp_identity_near(tensor, op, m, points):
    """Deformation identity when the second derived bracket is m times the first.

    With T'' = m T' the flow acts by

        exp(sD) [exp(-sD) x, exp(-sD) y] = [x, y] + c(s) [x, y]'

    where c(s) = s for m = 0 (D must be nilpotent; each point plays the role
    of s) and c = (v^m - 1)/m for m != 0 with the point v standing in for
    exp(s); the m != 0 path needs an integer m and an integer diagonal
    operator so that v^D makes exact sense.  T', T'' and the precondition
    T'' = m T' are computed once, and the report carries the precondition
    also for an empty point list; the points are checked as by
    `check_points`.
    """
    m = Fraction(m)
    first = derived(tensor, op)
    pre = derived(first, op) == first.scale(m)
    if m:
        if not op.is_diagonal():
            raise ValueError("nonzero m needs a diagonal operator")
        diagonal = [op[i, i] for i in range(tensor.dim)]
        if any(w.denominator != 1 for w in diagonal):
            raise ValueError("diagonal entries must be integers")
        weights = [int(w) for w in diagonal]
        if m.denominator != 1:
            raise ValueError("m must be an integer for the diagonal path")

    def check(value):
        if not m:
            s = Fraction(value)
            E, Einv, coeff = nilpotent_exp(op, s), nilpotent_exp(op, -s), s
        else:
            v = Fraction(value)
            if v == 0:
                raise ValueError("value must be nonzero")
            E = RatMatrix.diagonal([v ** w for w in weights])
            Einv = RatMatrix.diagonal([v ** -w for w in weights])
            coeff = (v ** m.numerator - 1) / m
        lhs = contract(tensor, [(1, E, Einv, Einv)])
        rhs = tensor + first.scale(coeff)
        if lhs == rhs:
            return ExpReport(True, points=[Fraction(value)])
        return ExpReport(False, witness=_first_difference(lhs, rhs), points=[Fraction(value)])
    rep = check_points(check, points)
    rep.precondition_ok = pre
    return rep


def _first_difference(t1, t2):
    """The least (i, j, k) at which t1 and t2 differ, or None."""
    return min(((i, j, k) for (i, j), vec in (t1 - t2).integer_form()[1].items() for k in vec),
               default=None)


def diagonal_torsion_witnesses(tensor, op):
    """Eigenvalue obstructions to a diagonal operator being Nijenhuis.

    For diagonal N the torsion entry over c_ij^k carries the factor
    (mu_k - mu_i)(mu_k - mu_j); any support triple where that factor is
    nonzero is a witness.  Empty list means N is Nijenhuis for the tensor.
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
