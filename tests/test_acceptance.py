"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line naming the criterion it covers,
then asserts.  Every comparison is exact rational arithmetic; there are no
tolerances anywhere in this file.
"""

from fractions import Fraction as F
import random

from liepencil.exact import RatMatrix, SparsePoly, rational_sqrt, kernel_basis, rank_exact
from liepencil.tensors import (
    ad, check_jacobi, check_skew,
    classify_operator, derived, derived_iter, is_lie, tensor_combination,
)
from liepencil.constructions import (
    GradingSpec, build_classical, grading_operator,
    nilpotent_square, quasi_grading_extension, sl2_complete,
    splitting_operators,
)
from liepencil.analysis import lie_index
from liepencil.nijenhuis import (
    check_N_properties, exp_identity_near, exp_identity_nijenhuis, is_nijenhuis,
    torsion_decomposition,
)
from liepencil.poisson import (
    directional, from_tensor, lifted, pc_generate,
    pc_verify,
)

from helpers import coeff_vector, rand_matrix, rand_rat, terms, transpose, variable
from paper_checks import (assoc_operators, assoc_torsion_formula, bihomogeneous_components,
                          check_vanishing_propagation, diagonal_torsion_witnesses,
                          verify_index_theorem)


Z2_SPEC = GradingSpec((1, 0, 1), "periodic", 2)

TEST_ALGEBRAS = (("sl", 2), ("sl", 3), ("gl", 3))

SQUARE_CASES = (("sl", 2, (2,)), ("sl", 3, (2, 1)), ("sl", 4, (2, 2)))


def _report(num, ok, detail):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _basis_vector(dim, i):
    return [F(int(k == i)) for k in range(dim)]


def constructed_near_derivations():
    """Every near-derivation the construction layer produces on demand."""
    out = []
    t2 = build_classical("sl", 2)
    out.append(("grading operator", t2, grading_operator(Z2_SPEC)))
    d1, d2 = splitting_operators(t2, [0, 1], [2])
    out.append(("borel projection", t2, d1))
    out.append(("complement projection", t2, d2))
    for fam, n, part in SQUARE_CASES:
        t = build_classical(fam, n)
        triple = sl2_complete(fam, n, part)
        op, _rep = nilpotent_square(t, triple.e)
        out.append(("square %s%d" % (fam, n), t, op))
    ext, _spec, eop = quasi_grading_extension(t2, Z2_SPEC)
    out.append(("quasi extension", ext, eop))
    return out


def test_criterion_01_second_derived_matches_expansion():
    rng = random.Random(101)
    checked = 0
    ok = True
    for (fam, n), count in zip(TEST_ALGEBRAS, (34, 33, 33)):
        t = build_classical(fam, n)
        dim = t.dim
        for _ in range(count):
            op = rand_matrix(rng, dim)
            second = derived_iter(t, op, 2)
            op2 = op * op
            for i in range(dim):
                x = _basis_vector(dim, i)
                for j in range(dim):
                    y = _basis_vector(dim, j)
                    ta = t.apply(op2.apply(x), y)
                    tb = t.apply(op.apply(x), op.apply(y))
                    tc = t.apply(x, op2.apply(y))
                    td = op2.apply(t.apply(x, y))
                    mixed = [p + q for p, q in zip(t.apply(op.apply(x), y),
                                                   t.apply(x, op.apply(y)))]
                    te = op.apply(mixed)
                    want = [a + 2 * b + c + d - 2 * e
                            for a, b, c, d, e in zip(ta, tb, tc, td, te)]
                    ok = ok and second.apply(x, y) == want
            checked += 1
    _report(1, ok and checked == 100,
            "twice-derived bracket equals its six-term expansion "
            "for %d random operators on sl2/sl3/gl3" % checked)


def test_criterion_02_constructions_classify_as_promised():
    t2 = build_classical("sl", 2)
    results = []
    act = classify_operator(t2, grading_operator(Z2_SPEC))
    results.append((act.tag, act.a, act.b) == ("near", F(0), F(-2)))
    d1, d2 = splitting_operators(t2, [0, 1], [2])
    for d in (d1, d2):
        act = classify_operator(t2, d)
        results.append((act.tag, act.a, act.b) == ("near", F(0), F(-1)))
    for fam, n, part in SQUARE_CASES:
        t = build_classical(fam, n)
        triple = sl2_complete(fam, n, part)
        op, rep = nilpotent_square(t, triple.e)
        results.append(rep.ad_e_cubed_zero)
        results.append(classify_operator(t, op).tag == "quasi")
    _report(2, all(results),
            "grading operator is near (0,-2), both splitting projections are "
            "near (0,-1), all three nilpotent squares are quasi")


def _pencil_roots(act):
    disc = act.b * act.b + 4 * act.a
    root = rational_sqrt(disc)
    assert root is not None
    return ((act.b - root) / 2, (act.b + root) / 2)


def test_criterion_03_pencil_members_are_lie():
    rng = random.Random(103)
    ok = True
    total = 0
    for name, t, op in constructed_near_derivations():
        act = classify_operator(t, op)
        t1 = act.derived
        roots = _pencil_roots(act)
        drawn = 0
        while drawn < 20:
            alpha, beta = rand_rat(rng), rand_rat(rng)
            if (alpha, beta) == (F(0), F(0)):
                continue
            if any(alpha + lam * beta == 0 for lam in roots):
                continue
            member = tensor_combination([(alpha, t), (beta, t1)])
            skew_ok, _ = check_skew(member)
            jac_ok, _ = check_jacobi(member)
            ok = ok and skew_ok and jac_ok
            drawn += 1
            total += 1
        for lam in set(roots):
            degenerate = tensor_combination([(-lam, t), (F(1), t1)])
            skew_ok, _ = check_skew(degenerate)
            jac_ok, _ = check_jacobi(degenerate)
            ok = ok and skew_ok and jac_ok
    _report(3, ok and total == 20 * 7,
            "%d off-degenerate pencil members and every degenerate member "
            "satisfy skew-symmetry and Jacobi exactly" % total)


def test_criterion_04_index_theorem_three_cases():
    ok = True
    values = []
    for (fam, n, part), want in zip(SQUARE_CASES, (1, 4, 7)):
        rep = verify_index_theorem(fam, n, part, seed=104)
        ok = ok and rep.consistent
        ok = ok and rep.index_prob == rep.index_exact == want
        ok = ok and rep.centraliser_dim == rep.centre_dim == want
        ok = ok and rep.nilpotency_class <= 2
        values.append(rep.index_exact)
    _report(4, ok,
            "derived-algebra index equals centraliser and centre dimensions "
            "(%s) with nilpotency class <= 2, probabilistic and exact modes "
            "agreeing" % values)


def test_criterion_05_commutative_family_from_casimir():
    t = build_classical("sl", 2)
    struct = from_tensor(t)
    x0, x1, x2 = (variable(3, i) for i in range(3))
    casimir = x1 * x1 + SparsePoly.const(3, 4) * x0 * x2
    fam = pc_generate(struct, lifted(grading_operator(Z2_SPEC)), [casimir])
    cert = pc_verify(fam, struct)
    ok = cert.ok and len(fam.generators) == 2

    comps = []
    for g in fam.generators:
        comps.extend(bihomogeneous_components(g, Z2_SPEC.weights).values())
    monos = sorted({e for q in fam.generators + comps for e in terms(q)})
    rank = lambda polys: rank_exact([coeff_vector(q, monos) for q in polys])
    ok = ok and rank(fam.generators) == rank(comps) == rank(fam.generators + comps)

    mf = pc_generate(struct, directional([F(0), F(0), F(1)]), [casimir])
    mf_cert = pc_verify(mf, struct)
    ok = ok and mf_cert.ok and len(mf.generators) == 2
    _report(5, ok,
            "casimir orbit under the lifted grading operator commutes, its "
            "span equals the bihomogeneous-component span, and the "
            "directional family commutes as well")


def _vanishing_instance(rng, t, op, n):
    """Random (x, y) with [D^i x, y] = 0 and [x, D^i y] = 0 for all i <= n."""
    dim = t.dim
    powers = [RatMatrix.identity(dim)]
    for _ in range(n):
        powers.append(op * powers[-1])
    for _attempt in range(60):
        if rng.random() < 0.5:
            x = [rand_rat(rng) for _ in range(dim)]
        else:
            x = _basis_vector(dim, rng.randrange(dim))
        if all(c == 0 for c in x):
            continue
        rows = []
        for i in range(n + 1):
            rows.extend(ad(t, powers[i].apply(x)).rows)
        adx = ad(t, x)
        for i in range(1, n + 1):
            rows.extend((adx * powers[i]).rows)
        kernel = kernel_basis(RatMatrix(rows))
        if not kernel:
            continue
        coeffs = [rand_rat(rng) for _ in kernel]
        y = [sum((c * v[k] for c, v in zip(coeffs, kernel)), F(0))
             for k in range(dim)]
        if any(y):
            return x, y
    return None


def test_criterion_06_vanishing_propagation():
    rng = random.Random(106)
    cases = constructed_near_derivations()
    checked = 0
    ok = True
    slot = 0
    while checked < 50:
        _name, t, op = cases[slot % len(cases)]
        slot += 1
        n = rng.choice((1, 2, 3))
        inst = _vanishing_instance(rng, t, op, n)
        if inst is None:
            continue
        x, y = inst
        ok = ok and check_vanishing_propagation(t, op, x, y, n) is True
        checked += 1
    _report(6, ok and checked == 50,
            "derived-bracket vanishing propagates on %d random instances "
            "meeting the commutation precondition" % checked)


def test_criterion_07_torsion_decomposition():
    rng = random.Random(107)
    checked = 0
    ok = True
    for (fam, n), count in zip(TEST_ALGEBRAS, (67, 67, 66)):
        t = build_classical(fam, n)
        for _ in range(count):
            split = torsion_decomposition(t, rand_matrix(rng, t.dim))
            ok = ok and split.ok
            checked += 1
    _report(7, ok and checked == 200,
            "second derived bracket splits as twice the torsion minus the "
            "squared-operator derived bracket for %d random operators" % checked)


def test_criterion_08_nijenhuis_and_witness():
    e11 = RatMatrix([[F(1), F(0)], [F(0), F(0)]])
    ops = assoc_operators(2, e11)
    flat, witness = is_nijenhuis(ops.gl_tensor, ops.left)
    props = check_N_properties(ops.gl_tensor, ops.left, depth=3)
    ok = flat and witness is None and props.ok and props.pairwise_compatible
    ok = ok and all(s.power_is_nijenhuis and s.iterate_matches_power
                    and s.iterate_is_lie for s in props.steps)

    t2 = build_classical("sl", 2)
    g = grading_operator(Z2_SPEC)
    bad, pair = is_nijenhuis(t2, g)
    ok = ok and not bad and pair == (0, 2)
    # the witness pair shows up among the diagonal eigenvalue obstructions
    eigen = {(i, j) for i, j, _k, _c in diagonal_torsion_witnesses(t2, g)}
    ok = ok and pair in eigen
    _report(8, ok,
            "left multiplication by the idempotent passes all depth-3 "
            "Nijenhuis properties; the grading operator fails with "
            "eigenvector witness pair (0, 2)")


def test_criterion_09_exponential_identities():
    e12 = RatMatrix([[F(0), F(1)], [F(0), F(0)]])
    ops = assoc_operators(2, e12)
    points = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(5, 3), F(7))
    ok = all(exp_identity_nijenhuis(ops.gl_tensor, ops.left, [s]).ok
             for s in points)

    t2 = build_classical("sl", 2)
    g = grading_operator(Z2_SPEC)
    rep = exp_identity_near(t2, g, -2, [F(2), F(3), F(5), F(7)])
    ok = ok and rep.ok and rep.precondition_ok and len(rep.points) == 4

    triple = sl2_complete("sl", 2, (2,))
    sq, _ = nilpotent_square(t2, triple.e)
    rep = exp_identity_near(t2, sq, 0, [F(1), F(2), F(3)])
    ok = ok and rep.ok and rep.precondition_ok and len(rep.points) == 3
    _report(9, ok,
            "exponential conjugation identities hold at 9 nilpotent points, "
            "4 semisimple points, and 3 quasi points")


def test_criterion_10_involution_torsion_formula():
    rng = random.Random(110)
    worked = assoc_torsion_formula(3, RatMatrix.diagonal([F(1), F(0), F(0)]))
    ok = worked.ok and worked.torsion.bracket(0, 1) == {2: F(1, 4)}
    for _ in range(20):
        m = rand_matrix(rng, 3)
        report = assoc_torsion_formula(3, m + transpose(m))
        ok = ok and report.torsion_matches and report.derived_matches
    _report(10, ok,
            "torsion of the symmetrised conjugation operator equals the "
            "double-commutator formula for 20 random symmetric matrices and "
            "the worked projection")


def test_criterion_11_quasi_grading_extension():
    t2 = build_classical("sl", 2)
    ext, spec, op = quasi_grading_extension(t2, Z2_SPEC)
    act = classify_operator(ext, op)
    ok = (act.tag, act.a, act.b) == ("near", F(0), F(-2))

    tinf = derived(ext, op).scale(F(-1, 2))
    w = spec.weights
    pairs = {}
    for i in range(ext.dim):
        for j in range(i + 1, ext.dim):
            entry = tinf.bracket(i, j)
            if entry:
                pairs[(i, j)] = entry
    # the wrapped part only holds products that overflow the grading, each
    # landing in the shifted component with its original coefficient
    for (i, j), entry in pairs.items():
        ok = ok and w[i] + w[j] >= 2
        for k in entry:
            ok = ok and k != 0 and w[k] == w[i] + w[j] - 2
    ok = ok and pairs == {(1, 3): {1: F(-2)}, (2, 3): {2: F(2)}}

    t0 = ext - tinf
    ok = ok and is_lie(t0)
    ok = ok and t0.bracket(0, 1) == {1: F(2)}
    ok = ok and t0.bracket(0, 2) == {2: F(-2)}
    ok = ok and t0.bracket(1, 2) == {3: F(1)}
    exact = lie_index(t0, mode="exact")
    prob = lie_index(t0, mode="prob", seed=111)
    ok = ok and exact.index == prob.index == 2
    _report(11, ok,
            "extended bracket is near (0,-2); its overflow part matches the "
            "grade table entry-by-entry and the finite part has index 2 in "
            "both modes")


if __name__ == "__main__":
    import sys
    names = sorted(n for n in dir() if n.startswith("test_criterion_"))
    failures = 0
    for name in names:
        try:
            globals()[name]()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
