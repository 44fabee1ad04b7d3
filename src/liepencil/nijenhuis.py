"""Torsion of operators on bracket algebras and the exponential identities.

The torsion of an operator N against a bracket is the bilinear map

    tau_N(x, y) = [Nx, Ny] + N(N[x, y] - [Nx, y] - [x, Ny]);

N is Nijenhuis when it vanishes.  For a diagonal N = diag(mu) it is
tau_ij^k = (mu_k - mu_i)(mu_k - mu_j) c_ij^k for every bilinear T, so the
support of the computed torsion already lists the eigenvalue obstructions;
the closed form stays in the tests as the oracle of `torsion`.  The second
derived bracket always splits as twice the torsion minus the derived
bracket along N^2, which ties torsion to the classification machinery.
The split is an identity, proved at `torsion_decomposition`, so
`liepencil report` reads its gate from the proof and computes only the
torsion; the function stays as the tests' oracle.
Nilpotent Nijenhuis operators and operators with proportional first and
second derived brackets both satisfy closed-form exponential deformation
identities; both are checked pointwise with exact arithmetic by one loop,
`_check_points`, up to the first failing point.

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


def is_nijenhuis(tensor, op):
    """(vanishes, witness pair or None) of the torsion.

    The witness is the first basis pair, in row-major order, whose torsion
    is nonzero.
    """
    witness = min(torsion(tensor, op).integer_form()[1], default=None)
    return witness is None, witness


@dataclass
class TorsionSplit:
    """Second derived bracket against twice torsion minus the squared shift."""

    second: StructureTensor
    torsion: StructureTensor
    ok: bool


def torsion_decomposition(tensor, op):
    """Verify second-derived = 2 * torsion - derived along op^2.

    This holds for every bilinear T and every N.  Write T(x, y) = xy.
    Expanding rho(N) twice, rho(N)^2.T(x, y) = N^2(xy) - 2N(Nx y) -
    2N(x Ny) + (N^2 x)y + x(N^2 y) + 2(Nx)(Ny), and rho(N^2).T(x, y) =
    N^2(xy) - (N^2 x)y - x(N^2 y); twice the torsion,
    2(Nx)(Ny) + 2N^2(xy) - 2N(Nx y) - 2N(x Ny), is their sum.
    """
    tors = torsion(tensor, op)
    second = derived_iter(tensor, op, 2)
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
    """The `NPropertiesReport` of op on tensor up to N^depth.

    The iterates are derived brackets along op, one pass each.  At k = 1
    the iterate is derived(tensor, op) and N^1 = op, so the derived bracket
    along the power is the same pass on the same operator:
    `iterate_matches_power` holds by identity there, and is compared from
    k = 2 on.
    """
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
        matches = k == 1 or iterates[k] == derived(tensor, power).scale(sign)
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


def exp_identity_nijenhuis(tensor, op, points=None):
    """Deformation identity for nilpotent Nijenhuis ops, at each point s:

    exp(-sN) [exp(sN) x, exp(sN) y]
        = [exp(sN) x, y] + [x, exp(sN) y] - exp(sN) [x, y].

    Both sides are polynomial in s of degree below three times the dimension,
    so agreement at the 4*dim + 1 distinct points 0, 1, ..., 4*dim, taken
    when points is None, proves the identity.
    """
    if points is None:
        points = range(4 * tensor.dim + 1)

    def sides(s):
        E, Einv = nilpotent_exp(op, s), nilpotent_exp(op, -s)
        return (contract(tensor, [(1, Einv, E, E)]),
                contract(tensor, [(1, None, E, None), (1, None, None, E), (-1, E, None, None)]))
    return _check_points(sides, points)


def _check_points(sides, points):
    """Compare lhs with rhs, (lhs, rhs) = sides(s), at each point s (as a
    Fraction) until the first failure.  The report lists every point
    checked, the failing one last; an empty point list passes."""
    checked = []
    for s in map(Fraction, points):
        checked.append(s)
        lhs, rhs = sides(s)
        if lhs != rhs:
            return ExpReport(False, _first_difference(lhs, rhs), points=checked)
    return ExpReport(True, points=checked)


def exp_identity_near(tensor, op, m, points):
    """Deformation identity when the second derived bracket is m times the first.

    With T'' = m T' the flow acts by

        exp(sD) [exp(-sD) x, exp(-sD) y] = [x, y] + c(s) [x, y]'

    where c(s) = s for m = 0 (D must be nilpotent; each point plays the role
    of s) and c = (v^m - 1)/m for m != 0 with the point v standing in for
    exp(s); the m != 0 path needs an integer m and an integer diagonal
    operator so that v^D makes exact sense (a non-integer weight would make
    v ** w a float).  T', T'' and the precondition T'' = m T' are computed
    once, and the report carries the precondition also for an empty point
    list; the points run through the same `_check_points` loop as the
    Nijenhuis identity.
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

    def sides(value):
        if not m:
            E, Einv, coeff = nilpotent_exp(op, value), nilpotent_exp(op, -value), value
        else:
            if value == 0:
                raise ValueError("value must be nonzero")
            E = RatMatrix.diagonal([value ** w for w in weights])
            Einv = RatMatrix.diagonal([value ** -w for w in weights])
            coeff = (value ** m.numerator - 1) / m
        return contract(tensor, [(1, E, Einv, Einv)]), tensor + first.scale(coeff)
    rep = _check_points(sides, points)
    rep.precondition_ok = pre
    return rep


def _first_difference(t1, t2):
    """The least (i, j, k) at which t1 and t2 differ, or None."""
    return min(((i, j, k) for (i, j), vec in (t1 - t2).integer_form()[1].items() for k in vec),
               default=None)
