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
torsion; the function stays as the tests' oracle.  Past k = 2 the same
algebra gives the Kosmann-Schwarzbach--Magri hierarchy, so
`check_N_properties` computes the torsion once, reads every power's
fields from it, and scans iterates only on a tensor that is not Lie (the
proof is at the function); the per-power loop is the tests' oracle.
Nilpotent Nijenhuis operators and operators with proportional first and
second derived brackets both satisfy closed-form exponential deformation
identities.  The left side minus the right side of each is a polynomial in
the point, built once (the proofs are at the two functions): its
coefficients are derived brackets for the Nijenhuis identity and the near
one at m = 0, and the parts of T by weight for the diagonal near one at
m != 0.  One loop, `_check_points`, evaluates it at each point by one
`tensor_combination` up to the first failing point, so no matrix
exponential is formed and no contraction runs per point.  Each
precondition is refused here, before any `derived` pass, by a
`tensors.ArgumentError` naming the parameter at fault; so a zero point at
m != 0 is refused up front, before any point is evaluated.

The torsion is a sum of terms c O psi(A., B.), so it is one
`tensors.contract` call on the one packed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod

from .exact import nilpotent_powers
from .tensors import (ArgumentError, StructureTensor, contract, derived, derived_iter, is_lie,
                      tensor_combination)


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
    """Per-power behaviour of an operator N on a tensor T, and its torsion.

    For each k up to depth: N^k has vanishing torsion, the k-fold derived
    bracket is (-1)^(k-1) times the derived bracket along N^k, and the
    iterate is a Lie bracket.  pairwise_compatible records that the sum of
    any two iterates, T itself among them, is a Lie bracket.  When the
    torsion is not zero nothing past it is computed: steps is empty and
    pairwise_compatible and ok are False.
    """

    torsion: StructureTensor
    steps: list
    pairwise_compatible: bool
    compat_witness: tuple | None
    ok: bool


def check_N_properties(tensor, op, depth=3):
    """The `NPropertiesReport` of N = op on T = tensor up to N^depth, from
    one torsion and, only when T is not Lie, the scans of the iterates.

    Proof.  Let a, u and v act on bilinear maps S by N on the output, on
    the first input and on the second: (a^i u^j v^l . S)(x, y) =
    N^i S(N^j x, N^l y).  This makes the bilinear maps a module over the
    commutative ring Q[a, u, v].  In it rho(P).S = (a - u - v).S for
    P = N, (a^k - u^k - v^k).S for P = N^k, and the torsion of N is
    (a - u)(a - v).S.  Let tau_N(T) = 0, so the ideal I generated by
    (a - u)(a - v) kills T.  I is the intersection of the prime ideals
    (a - u) and (a - v), so a polynomial lies in I when it vanishes at
    a = u and at a = v.
      * power_is_nijenhuis: (a^k - u^k)(a^k - v^k) is a multiple of
        (a - u)(a - v), so tau_(N^k)(T) = 0.
      * iterate_matches_power: (a - u - v)^k - (-1)^(k-1)(a^k - u^k - v^k)
        is (-v)^k - (-1)^k v^k = 0 at a = u, and likewise at a = v.  So
        rho(N)^k T = (-1)^(k-1) rho(N^k) T.  This is the Kosmann-Schwarzbach
        and Magri hierarchy; at k = 2 it is `torsion_decomposition`.
    Both hold for every bilinear T, so both fields are True once the
    torsion is zero.  Every iterate T_i = rho(N)^i T is killed by I too, so
    T_j = (-1)^(j-i-1) rho(N^(j-i)) T_i for i < j, and T_(i+2) =
    -rho(N^2) T_i.
      * iterate_is_lie and pairwise_compatible need Jacobi.  Let T be Lie.
        `tensors.pencil_lie` proves, for a Lie S and any E,
        M(S, rho(E)S) = 0 and Jac(rho(E)S) = -M(S, rho(E)^2 S) / 2, where
        M is the polar form of Jac.  By induction on i, with S = T_i Lie:
        Jac(T_(i+1)) = -M(T_i, T_(i+2)) / 2 = M(T_i, rho(N^2) T_i) / 2 = 0,
        and T_(i+1) = rho(N) T_i is skew, so T_(i+1) is Lie.  For i < j,
        Jac(T_i + T_j) = Jac(T_i) + M(T_i, T_j) + Jac(T_j)
        = +-M(T_i, rho(N^(j-i)) T_i) = 0, and T_i + T_j is skew.
    So on a Lie T every field is True, and no iterate is built or scanned.
    A T that is not Lie keeps, for those two fields only, the iterates
    rho(N)^k T (one derived pass each) and their Jacobi scans; the tests
    compare the whole report with the per-power loop that checks every
    field (`paper_checks.reference_N_properties`).
    """
    tors = torsion(tensor, op)
    if not tors.is_zero():
        return NPropertiesReport(tors, [], False, None, False)
    lie, witness = [True] * depth, None
    if not is_lie(tensor):
        iterates = [tensor]
        for _ in range(depth):
            iterates.append(derived(iterates[-1], op))
        lie = [is_lie(t) for t in iterates[1:]]
        witness = next(((i, j) for i, j in combinations(range(depth + 1), 2)
                        if not is_lie(iterates[i] + iterates[j])), None)
    steps = [NStepReport(k, True, True, lie[k - 1]) for k in range(1, depth + 1)]
    return NPropertiesReport(tors, steps, witness is None, witness, all(lie) and witness is None)


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

    Proof of the expansion.  In the module of `check_N_properties`, where
    a, u and v apply N to the output and to each input and commute, the
    left side is exp(-sa) exp(su) exp(sv).T = exp(-s rho(N)).T, and the
    right side is (exp(su) + exp(sv) - exp(sa)).T = T - sum_p s^p
    rho(N^p).T / p!, p >= 1, since rho(N^p) = a^p - u^p - v^p.  Both
    sides start T - s rho(N).T, so left minus right is

        sum_(j >= 2) (-s)^j rho(N)^j.T / j! + sum_(p >= 2) s^p rho(N^p).T / p!.

    With N^k = 0 each of a, u and v has index k, so rho(N)^j.T = 0 for
    j > 3(k - 1), and rho(N^p).T = 0 once N^p = 0.  The first sum is read
    off `derived` passes, from rho(N)^2.T, each negated, until an iterate
    vanishes; the second takes one pass per nonzero power N^p, from the
    powers `nilpotent_powers` formed to test nilpotency.  The iterates can
    vanish before the powers do, so the powers run on their own.

    The difference is a polynomial in s of degree below three times the
    dimension, so agreement at the 4*dim + 1 distinct points 0, 1, ...,
    4*dim, taken when points is None, proves the identity.  An operator
    that is not nilpotent raises `ArgumentError` once a point is given,
    before any `derived` pass.
    """
    points = list(range(4 * tensor.dim + 1) if points is None else points)
    terms = []
    if points:
        if (powers := nilpotent_powers(op)) is None:
            raise ArgumentError("op", "must be nilpotent for the Nijenhuis identity")
        terms = list(_series(derived_iter(tensor, op, 2), lambda t: -derived(t, op)))
        terms += [(p, derived(tensor, x).scale(Fraction(1, prod(range(2, p + 1)))))
                  for p, x in enumerate(powers[1:], 2)]
    return _check_points(tensor, terms, points)


def _series(x, step):
    """(j, x_j / j!) for j = 2, 3, ... while the tensor x_j is not zero,
    where x_2 = x and x_(j+1) = step(x_j)."""
    j, c = 2, Fraction(1, 2)
    while not x.is_zero():
        yield j, x.scale(c)
        j, c, x = j + 1, c / (j + 1), step(x)


def _check_points(tensor, terms, points):
    """Evaluate sum_j s^j x_j over terms [(j, x_j)], an identity's left
    side minus its right side, at each point s by one `tensor_combination`
    (the zero multiple of tensor fixes the dimension) until the first
    nonzero value, whose least (i, j, k) is the witness.  The report lists
    every point checked, the failing one last; no points pass."""
    checked = []
    for s in map(Fraction, points):
        checked.append(s)
        value = tensor_combination([(0, tensor)] + [(s ** j, x) for j, x in terms])
        if ints := value.integer_form()[1]:
            return ExpReport(False, min((*ij, min(v)) for ij, v in ints.items()), points=checked)
    return ExpReport(True, points=checked)


def exp_identity_near(tensor, op, m, points):
    """Deformation identity when the second derived bracket is m times the first.

    With T'' = m T' the flow acts by

        exp(sD) [exp(-sD) x, exp(-sD) y] = [x, y] + c(s) [x, y]'

    where c(s) = s for m = 0 (D must be nilpotent; each point plays the role
    of s) and c = (v^m - 1)/m for m != 0 with the point v standing in for
    exp(s); the m != 0 path needs an integer m, an integer diagonal
    operator and nonzero points.  Every refusal raises `ArgumentError`
    naming the parameter at fault before any `derived` pass, so a zero
    point is refused up front, before any point is evaluated.  T', T'' and
    the precondition T'' = m T' are computed once, and the report carries
    the precondition also for an empty point list.

    For m = 0 the left side is exp(s rho(D)).T (as at
    `exp_identity_nijenhuis`, with D for N and s for -s), so left minus
    right is sum_(j >= 2) s^j rho(D)^j.T / j!, finite for a nilpotent D,
    read off `derived` passes from T''; a D that is not nilpotent is
    refused once a point is given.  For m != 0 and D = diag(w), split T
    in one pass into the parts T_e of its entries c_ij^k with
    e = w_k - w_i - w_j.  The left side is sum_e v^e T_e, since
    exp(-sD) x_i = v^(-w_i) x_i, and T' = sum_e e T_e, so left minus right
    is the Laurent polynomial sum_e v^e T_e + (T'/m - T) - v^m T'/m.
    """
    m, points, terms = Fraction(m), [Fraction(p) for p in points], []
    if m:
        if not op.is_diagonal():
            raise ArgumentError("op", "must be diagonal for a nonzero m")
        if any(row[i] % op.den for i, row in enumerate(op.ints)):
            raise ArgumentError("op", "must have integer diagonal entries for a nonzero m")
        if m.denominator != 1:
            raise ArgumentError("m", "must be an integer for the diagonal path")
        if not all(points):
            raise ArgumentError("points", "must be nonzero for a nonzero m")
        w = [row[i] // op.den for i, row in enumerate(op.ints)]
        den, ints = tensor.integer_form()
        parts = {}
        for (i, j), vec in ints.items():
            for k, c in vec.items():
                parts.setdefault(w[k] - w[i] - w[j], {}).setdefault((i, j), {})[k] = c
        terms = [(e, StructureTensor._of(tensor.dim, tensor.labels, (den, part)))
                 for e, part in parts.items()]
    elif points and nilpotent_powers(op) is None:
        raise ArgumentError("op", "must be nilpotent for the near identity at m = 0")
    first = derived(tensor, op)
    second = derived(first, op)
    if m:
        terms += [(0, -tensor), (0, first.scale(1 / m)), (m, first.scale(-1 / m))]
    elif points:
        terms = list(_series(second, lambda t: derived(t, op)))
    rep = _check_points(tensor, terms, points)
    rep.precondition_ok = second == first.scale(m)
    return rep
