"""`nijenhuis.check_N_properties` against the per-power loop.

Once the torsion vanishes, `check_N_properties` reads `power_is_nijenhuis`
and `iterate_matches_power` from the Kosmann-Schwarzbach--Magri hierarchy,
and on a Lie tensor it reads `iterate_is_lie`, `pairwise_compatible` and
`ok` from it as well (the proof is in its docstring).
`paper_checks.reference_N_properties` computes each field by itself.  The
two reports agree field by field on:

  * Lie inputs with N^2 = 0 (nilpotent squares) and with N^k != 0 (left
    multiplications L_A on gl_n by seeded rational A, and the splitting
    projections of sl2);
  * Nijenhuis inputs that are not Lie, where only the scans can answer:
    seeded skew tensors in the kernel of T -> tau_N(T) for N = L_A on gl2,
    brackets graded by the max of integer weights under diag(w), and the
    associative product of gl_n under L_A, which is not skew.

On the two skew families every iterate fails Jacobi, so a report that took
the Lie fields from the theorem without T's own verdict would disagree.
"""

import random
from dataclasses import fields

import pytest

from liepencil import nijenhuis, tensors
from liepencil.constructions import (GradingSpec, build_classical, grading_operator,
                                     nilpotent_square, sl2_complete, splitting_operators)
from liepencil.exact import RatMatrix

from helpers import rand_matrix
from paper_checks import (assoc_operators, build_gl_associative, max_graded_bracket,
                          reference_N_properties, torsion_kernel)


def nilpotent_square_case(n, partition):
    triple = sl2_complete("sl", n, partition)
    return triple.tensor, nilpotent_square(triple.tensor, triple.e)[0]


def left_multiplication(n, rng):
    """gl_n and L_A for A drawn from rng, entries in -3..3 over 1, 2 or 3."""
    ops = assoc_operators(n, rand_matrix(rng, n, -3, 3))
    return ops.gl_tensor, ops.left


def splitting(index):
    sl2 = build_classical("sl", 2)
    return sl2, splitting_operators(sl2, [0, 1], [2])[index]


def torsion_kernel_draw(seed):
    """(T, N): N = L_A on gl2 and T a combination, with integer coefficients
    in -3..3, of the basis of skew tensors with tau_N(T) = 0; A and the
    coefficients come from one seeded generator."""
    rng = random.Random(seed)
    _, op = left_multiplication(2, rng)
    return (tensors.tensor_combination([(rng.randint(-3, 3), t) for t in torsion_kernel(op)]),
            op)


def max_graded_draw(seed):
    """(T, diag(w)): five weights w in 1..3 and a `max_graded_bracket` on
    them, from one seeded generator."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 3) for _ in range(5)]
    return max_graded_bracket(weights, rng), RatMatrix.diagonal(weights)


def associative(n, seed):
    return build_gl_associative(n), left_multiplication(n, random.Random(seed))[1]


LIE = {
    "sl3-(2,1)-nilsquare": (lambda: nilpotent_square_case(3, (2, 1)), 3),
    "sl4-(2,2)-nilsquare": (lambda: nilpotent_square_case(4, (2, 2)), 3),
    "sl2-splitting-sub": (lambda: splitting(0), 3),
    "sl2-splitting-complement": (lambda: splitting(1), 3),
    **{"gl%d-left-seed%d" % (n, seed): (lambda n=n, seed=seed: left_multiplication(
        n, random.Random(seed)), 4) for n in (2, 3) for seed in (1, 2)},
}
SKEW_NOT_LIE = {
    **{"gl2-torsion-kernel-seed%d" % seed: (lambda seed=seed: torsion_kernel_draw(seed), 4)
       for seed in (0, 1, 2)},
    **{"max-graded-seed%d" % seed: (lambda seed=seed: max_graded_draw(seed), 3)
       for seed in (0, 1, 2)},
}
NOT_SKEW = {"gl%d-associative" % n: (lambda n=n: associative(n, n), 3) for n in (2, 3)}
CASES = {**LIE, **SKEW_NOT_LIE, **NOT_SKEW}


@pytest.mark.parametrize("name", CASES)
def test_report_matches_the_reference(name):
    build, depth = CASES[name]
    tensor, op = build()
    assert nijenhuis.torsion(tensor, op).is_zero()
    assert tensors.is_lie(tensor) == (name in LIE)
    rep = nijenhuis.check_N_properties(tensor, op, depth)
    ref = reference_N_properties(tensor, op, depth)
    for f in fields(rep):
        assert getattr(rep, f.name) == getattr(ref, f.name), f.name
    assert [s.k for s in rep.steps] == list(range(1, depth + 1))


@pytest.mark.parametrize("name", SKEW_NOT_LIE)
def test_the_counter_cases_fail_jacobi_at_every_power(name):
    # so every Lie field the theorem would claim is wrong here
    build, depth = SKEW_NOT_LIE[name]
    tensor, op = build()
    assert tensor.is_skew() and not tensors.is_lie(tensor)
    ref = reference_N_properties(tensor, op, depth)
    assert not any(s.iterate_is_lie for s in ref.steps)
    assert not ref.pairwise_compatible and not ref.ok


def test_the_torsion_kernel_of_a_left_multiplication_on_gl2():
    # 24 skew unit tensors on gl2, of which a 20-dimensional space is
    # annihilated by tau_N for L_A at a seeded A
    _, op = left_multiplication(2, random.Random(0))
    assert len(torsion_kernel(op)) == 20


def test_a_nonzero_torsion_ends_the_report():
    sl2 = build_classical("sl", 2)
    op = grading_operator(GradingSpec((1, 0, 1), "periodic", 2))
    rep = nijenhuis.check_N_properties(sl2, op, 3)
    assert rep.torsion == nijenhuis.torsion(sl2, op) and not rep.torsion.is_zero()
    assert (rep.steps, rep.pairwise_compatible, rep.compat_witness, rep.ok) == ([], False, None,
                                                                                False)
    assert not reference_N_properties(sl2, op, 3).ok


def test_a_lie_input_builds_no_iterate_and_scans_only_t(monkeypatch):
    tensor, op = left_multiplication(3, random.Random(1))
    scanned, built = [], []
    jacobi, derive = tensors.check_jacobi, nijenhuis.derived
    monkeypatch.setattr(tensors, "check_jacobi",
                        lambda t: scanned.append(t) or jacobi(t))
    monkeypatch.setattr(nijenhuis, "derived",
                        lambda t, d: built.append(t) or derive(t, d))
    assert nijenhuis.check_N_properties(tensor, op, 4).ok
    assert scanned == [tensor] and built == []
