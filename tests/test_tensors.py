"""Structure tensors, derived operations, classification, pencils."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import liepencil
from liepencil import tensors
from liepencil.exact import RatMatrix, mat_commutator
from liepencil.tensors import (IdentityFailed, IrrationalEigenvalues,
                               StructureTensor, ad, check_jacobi, check_skew,
                               classify_operator,
                               derived, derived_iter, is_lie,
                               normalize_pencil,
                               tensor_combination)

from helpers import columns, rand_matrix, rand_vector
from paper_checks import (PreconditionViolated, check_vanishing_propagation, is_derivation,
                          shift_by_derivation)


def F(p, q=1):
    return Fraction(p, q)


def sl2():
    """Basis (e, h, f): [h,e] = 2e, [e,f] = h, [h,f] = -2f."""
    table = {
        (1, 0): {0: F(2)}, (0, 1): {0: F(-2)},
        (0, 2): {1: F(1)}, (2, 0): {1: F(-1)},
        (1, 2): {2: F(-2)}, (2, 1): {2: F(2)},
    }
    return StructureTensor(3, table, ("e", "h", "f"))


def solvable2():
    """[x, y] = y."""
    return StructureTensor(2, {(0, 1): {1: F(1)}, (1, 0): {1: F(-1)}}, ("x", "y"))


GRADING_OP = RatMatrix.diagonal([F(1), F(0), F(1)])


def test_sl2_is_lie():
    t = sl2()
    assert check_skew(t) == (True, None)
    assert check_jacobi(t) == (True, None)
    assert is_lie(t)


def test_identity_acts_as_minus_one():
    t = sl2()
    assert derived(t, RatMatrix.identity(3)) == t.scale(F(-1))
    for c in (F(2), F(-3, 2)):
        scaled = RatMatrix.identity(3).scale(c)
        assert derived(t, scaled) == t.scale(-c)


def test_derived_linear_in_operator():
    rng = random.Random(41)
    t = sl2()
    for _ in range(10):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        c = rand_vector(rng, 1)[0]
        lhs = derived(t, a + b.scale(c))
        rhs = derived(t, a) + derived(t, b).scale(c)
        assert lhs == rhs


def test_inner_operators_are_derivations():
    rng = random.Random(42)
    t = sl2()
    for _ in range(6):
        x = rand_vector(rng, 3)
        assert is_derivation(t, ad(t, x))


def test_second_derived_reference_formula():
    # ground truth computed directly from the six-term expansion
    rng = random.Random(43)
    t = sl2()
    for _ in range(10):
        op = rand_matrix(rng, 3)
        op2 = op * op
        cols = columns(op)
        cols2 = columns(op2)
        got = derived_iter(t, op, 2)
        for i in range(3):
            for j in range(3):
                base = t.apply([F(1) if k == i else F(0) for k in range(3)],
                               [F(1) if k == j else F(0) for k in range(3)])
                mixed = [a + b for a, b in zip(
                    t.apply(cols[i], [F(1) if k == j else F(0) for k in range(3)]),
                    t.apply([F(1) if k == i else F(0) for k in range(3)], cols[j]))]
                want = [p + 2 * q + r + s - 2 * u for p, q, r, s, u in zip(
                    t.apply(cols2[i], [F(1) if k == j else F(0) for k in range(3)]),
                    t.apply(cols[i], cols[j]),
                    t.apply([F(1) if k == i else F(0) for k in range(3)], cols2[j]),
                    op2.apply(base),
                    op.apply(mixed))]
                vec = got.bracket(i, j)
                assert [vec.get(k, F(0)) for k in range(3)] == want


def test_power_shift_identity_for_derivations():
    # for a derivation d, psi(d^k x, d^k y) sums telescope so that the k-fold
    # derived bracket vanishes; spot-check through derived_iter
    t = sl2()
    rng = random.Random(44)
    for k in range(1, 5):
        x = rand_vector(rng, 3)
        d = ad(t, x)
        assert derived_iter(t, d, k).is_zero()


def test_classification_table():
    t = sl2()
    act = classify_operator(t, GRADING_OP)
    assert (act.tag, act.a, act.b) == ("near", F(0), F(-2))

    adh = ad(t, [F(0), F(1), F(0)])
    assert classify_operator(t, adh).tag == "derivation"

    ident = classify_operator(t, RatMatrix.identity(3))
    assert ident.tag == "scalar-type"
    assert ident.scalar == F(-1)


def test_not_near_witness():
    # D(h) = e, all else 0: the second derived bracket leaves the pencil
    t = sl2()
    d = RatMatrix([[F(0), F(1), F(0)], [F(0)] * 3, [F(0)] * 3])
    act = classify_operator(t, d)
    assert act.tag == "not-near"
    assert act.derived.bracket(0, 2) == {0: F(1)}
    assert act.derived.bracket(1, 2) == {1: F(-1)}


def test_quasi_tag_on_nilpotent_shift():
    # D(y) = x on the solvable algebra [x, y] = y is a quasi-derivation
    t = solvable2()
    d = RatMatrix([[F(0), F(1)], [F(0), F(0)]])
    act = classify_operator(t, d)
    assert (act.tag, act.a, act.b) == ("quasi", F(0), F(0))


def test_normalize_grading_pencil():
    t = sl2()
    norm = normalize_pencil(classify_operator(t, GRADING_OP))
    assert norm.shift == F(0)
    assert norm.mode == "semisimple"
    assert norm.eigenvalues == (F(0), F(-2))
    assert norm.degenerate_lines == [(0, 1), (norm.b, -1)]
    lines = [line_tensor(t, norm, *line) for line in norm.degenerate_lines]
    for line in lines:
        assert is_lie(line)
    # the two degenerate lines split the bracket
    assert lines[0] + lines[1] == t.scale(norm.b)


def line_tensor(t, norm, alpha, beta):
    """The member alpha T + beta S of a degenerate line, S = rho(D1).T
    computed from the normalized operator D1 (not read off norm.derived)."""
    return tensor_combination([(alpha, t), (beta, derived(t, norm.operator))])


def two_sl2():
    """Two copies of sl2, and D = 1 on the first and -2 on the second."""
    table = {}
    for (i, j), vec in sl2().table.items():
        table[(i, j)] = dict(vec)
        table[(i + 3, j + 3)] = {k + 3: c for k, c in vec.items()}
    t = StructureTensor(6, table, ("e", "h", "f", "e'", "h'", "f'"))
    return t, RatMatrix.diagonal([F(1)] * 3 + [F(-2)] * 3)


def test_normalize_block_scalar_pencil():
    # two copies of sl2 scaled by 1 and -2: coefficients (2, 1), shift -1
    t, d = two_sl2()
    assert is_lie(t)
    act = classify_operator(t, d)
    assert (act.tag, act.a, act.b) == ("near", F(2), F(1))
    norm = normalize_pencil(act)
    assert norm.shift == F(-1)
    assert norm.b == F(3)
    assert norm.mode == "semisimple"
    assert norm.degenerate_lines == [(0, 1), (3, -1)]
    for line in norm.degenerate_lines:
        assert is_lie(line_tensor(t, norm, *line))


def test_normalize_rejects_irrational_roots():
    # D(x) = y, D(y) = 2x on [x, y] = y gives T'' = 2T, discriminant 8
    t = solvable2()
    d = RatMatrix([[F(0), F(2)], [F(1), F(0)]])
    act = classify_operator(t, d)
    assert (act.tag, act.a, act.b) == ("near", F(2), F(0))
    with pytest.raises(IrrationalEigenvalues) as exc:
        normalize_pencil(act)
    assert exc.value.a == F(2)
    assert exc.value.b == F(0)


def test_normalize_refuses_other_tags():
    t = sl2()
    act = classify_operator(t, ad(t, [F(1), F(0), F(0)]))
    with pytest.raises(ValueError):
        normalize_pencil(act)


def test_normalize_reads_the_certified_coefficients(monkeypatch):
    # a = 0: no shift, and the (a, b) classify proved is the guard itself
    act = classify_operator(sl2(), GRADING_OP)
    assert (act.tag, act.a, act.b) == ("near", 0, -2)
    calls, kernel = [], tensors._contraction
    monkeypatch.setattr(tensors, "_contraction", lambda *args: calls.append(args) or kernel(*args))
    assert normalize_pencil(act).b == -2
    assert calls == []


EDITS = {"b": lambda act: act.b - 1,
         # a = -1 moves both roots to -1: the guard checks the pencil of D + I
         "a": lambda act: act.a - 1,
         # the T' of 2 D, twice this one's
         "derived": lambda act: classify_operator(act.tensor, GRADING_OP.scale(2)).derived,
         # 2 D, whose T' is twice the action's
         "operator": lambda act: act.operator.scale(2)}


@pytest.mark.parametrize("edit", ["b", "a", "derived", "operator"])
def test_normalize_guard_refuses_an_edited_action(edit):
    act = classify_operator(sl2(), GRADING_OP)
    with pytest.raises(IdentityFailed):
        normalize_pencil(replace(act, **{edit: EDITS[edit](act)}))


@pytest.mark.parametrize("edit", ["b", "a", "derived", "operator"])
def test_normalize_guard_refuses_an_action_edited_in_place(edit):
    # a plain assignment keeps the certificate on the action, but it no
    # longer matches the action's fields
    act = classify_operator(sl2(), GRADING_OP)
    setattr(act, edit, EDITS[edit](act))
    with pytest.raises(IdentityFailed):
        normalize_pencil(act)


def test_normalize_guard_recomputes_a_copied_action(monkeypatch):
    # `replace` copies the fields but not the certificate: the guard
    # computes both sides, two contractions, and normalizes as before
    act = classify_operator(sl2(), GRADING_OP)
    calls, kernel = [], tensors._contraction
    monkeypatch.setattr(tensors, "_contraction", lambda *args: calls.append(args) or kernel(*args))
    assert normalize_pencil(replace(act)) == normalize_pencil(act)
    assert len(calls) == 2


def test_normalize_guard_refuses_a_nearly_holding_claim():
    # near (1, 0) on [x0, x0] = -2 x0 + x1 with D = diag(1, 3).  Under the
    # claim a = 0, b = (q - 2) / q, q = 2^64 + 1, T'' - a T - b T' is
    # (4 - 4q) / q x0 + 2 / q x1 on the one nonzero pair: its x1 coordinate
    # is only 2 / q, about 2^-63 (times q, the fields 4 - 4q and 2 cancel by
    # a carry when packed at width 65).  The hand-made guard compares
    # derived(T', D) with a T + b T' exactly and raises
    t = StructureTensor(2, {(0, 0): {0: F(-2), 1: F(1)}})
    act = classify_operator(t, RatMatrix.diagonal([1, 3]))
    assert (act.tag, act.a, act.b) == ("near", 1, 0)
    q = 2 ** 64 + 1
    with pytest.raises(IdentityFailed):
        normalize_pencil(replace(act, a=F(0), b=F(q - 2, q)))


def test_normalize_guard_refuses_an_edited_tensor():
    # near (2, 1): with a != 0 the guard runs on rho(D - I).T, so a T put in
    # after classify is checked; [x0, x1] = x3 sits at level -4, not a root
    # of t^2 - t - 2
    act = classify_operator(*two_sl2())
    assert (act.tag, act.a, act.b) == ("near", 2, 1)
    other = StructureTensor(6, {(0, 1): {3: F(1)}, (1, 0): {3: F(-1)}})
    with pytest.raises(IdentityFailed):
        normalize_pencil(replace(act, tensor=other))


def test_kernel_guard_holds_wherever_the_certificate_does():
    oracle = pytest.importorskip("test_tensor_oracle")
    for tag, tensor, op in oracle.PENCIL_SEEDS:
        if tag not in ("near", "quasi"):
            continue
        act = classify_operator(tensor, op)
        assert act._proof == (tensor, act.derived, op, act.a, act.b)
        # the guard of a hand-made action, and the normalized pencil's identity
        assert derived(tensor, op) == act.derived
        assert derived(act.derived, op) == tensor_combination([(act.a, tensor),
                                                               (act.b, act.derived)])
        norm = normalize_pencil(act)
        assert derived(norm.derived, norm.operator) == norm.derived.scale(norm.b)


# asserts are stripped under -O, so the script reports through its exit code
OPTIMIZED_GUARD_SCRIPT = """
import sys
from dataclasses import replace
from liepencil.constructions import build_classical
from liepencil.exact import RatMatrix
from liepencil.tensors import IdentityFailed, classify_operator, normalize_pencil
if __debug__:
    sys.exit("not running under -O")
act = classify_operator(build_classical("sl", 2), RatMatrix.diagonal([1, 0, 1]))
if (act.tag, act.a, act.b) != ("near", 0, -2):
    sys.exit("unexpected classification")
# the T' of 2 D, twice this one's, stands in for T', and 2 T for T; a = -1
# moves both roots to -1, so the guard checks the pencil of D + I
double = classify_operator(build_classical("sl", 2), RatMatrix.diagonal([2, 0, 2]))
for wrong in (replace(act, b=act.b - 1), replace(act, derived=double.derived),
              replace(act, tensor=act.tensor.scale(2)), replace(act, a=act.a - 1),
              replace(act, operator=double.operator)):
    try:
        normalize_pencil(wrong)
    except IdentityFailed:
        print("raised")
# an edit in place leaves the certificate on the action, unmatched
act.b -= 1
try:
    normalize_pencil(act)
except IdentityFailed:
    print("raised")
"""


def test_normalize_guard_survives_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(liepencil.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GUARD_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 6


def test_vanishing_propagation():
    t = sl2()
    # x = y = e: psi(D^i e, e) = psi(e, e) = 0, conclusion holds
    e = [F(1), F(0), F(0)]
    assert check_vanishing_propagation(t, GRADING_OP, e, e, 3) is True
    # x = e, y = f violates the hypothesis at i = 0
    f = [F(0), F(0), F(1)]
    with pytest.raises(PreconditionViolated) as exc:
        check_vanishing_propagation(t, GRADING_OP, e, f, 2)
    assert exc.value.power == 0
    assert exc.value.side == "left"


def test_shift_by_derivation():
    t = sl2()
    adh = ad(t, [F(0), F(1), F(0)])
    ade = ad(t, [F(1), F(0), F(0)])
    # commuting shift: second derived tensor unchanged
    t1, t2 = shift_by_derivation(t, GRADING_OP, adh)
    base1 = derived(t, GRADING_OP)
    assert t1 == base1
    assert t2 == derived(base1, GRADING_OP)
    # non-commuting shift picks up the commutator correction (checked inside)
    t1b, t2b = shift_by_derivation(t, GRADING_OP, ade)
    assert t1b == base1
    corr = derived(t, mat_commutator(ade, GRADING_OP))
    assert t2b == derived(base1, GRADING_OP) + corr
    with pytest.raises(ValueError):
        shift_by_derivation(t, GRADING_OP, GRADING_OP)


def test_tensor_combination_and_support():
    t = sl2()
    zero = tensor_combination([(F(1), t), (F(-1), t)])
    assert zero.is_zero()
    entries = [(i, j, k) for i, j, k, _ in t.support() if i < j]
    assert entries == [(0, 1, 0), (0, 2, 1), (1, 2, 2)]
