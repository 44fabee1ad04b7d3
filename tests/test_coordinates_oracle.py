"""One elimination per basis against one elimination per target.

`exact._int_coordinates` reduces [B | I] once and reads every target from
that reduction (`helpers.coordinates` reads `Fraction` targets with it).
The references here are the per-target solve it replaced: the augmented
system [B | t] reduced afresh for each target, and the structure
tensor of a matrix basis built with one such solve per product.  Tables
must agree with the key order at both levels; answers must agree on
consistent and inconsistent targets, over generated column sets with
dependent and zero columns.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from liepencil import cli, constructions, exact
from liepencil.constructions import (basis_matrices, build_classical,
                                     sl2_complete, tensor_from_matrix_basis)
from liepencil.exact import ZERO, RatMatrix, rank_exact, rref, solve_columns
from liepencil.tensors import IdentityFailed, StructureTensor

from helpers import coordinates, inverse, mat_commutator, product_form, rand_rat
from paper_checks import (assoc_operators, build_gl_associative, involution_split,
                          standard_symplectic, verify_index_theorem)


def reference_solve_columns(cols, target):
    """The per-target solve: reduce [B | target] and read the last column."""
    k = len(cols)
    if k == 0:
        return [] if not any(target) else None
    aug = [list(row) + [t] for row, t in zip(zip(*cols), target)]
    red, pivots = rref(aug)
    if k in pivots:
        return None
    sol = [ZERO] * k
    for row, pc in zip(red, pivots):
        sol[pc] = row[k]
    return sol


def flat(mat):
    return [x for row in mat.rows for x in row]


def reference_tensor(mats, labels, product="commutator"):
    """Structure tensor with one `reference_solve_columns` per product.

    Each ordered pair is solved on its own.  A commutator table is keyed
    as a skew table is built: each pair i < j followed by its mirror
    (j, i); a product table in row-major order."""
    n = len(mats)
    if product == "commutator":
        pairs = [p for i in range(n) for j in range(i + 1, n) for p in ((i, j), (j, i))]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    cols = [flat(b) for b in mats]
    table = {}
    for i, j in pairs:
        x, y = mats[i], mats[j]
        prod = mat_commutator(x, y) if product == "commutator" else x * y
        coords = reference_solve_columns(cols, flat(prod))
        assert coords is not None
        vec = {k: c for k, c in enumerate(coords) if c}
        if vec:
            table[(i, j)] = vec
    return StructureTensor(n, table, labels)


def layout(tensor):
    return [(ij, list(vec.items())) for ij, vec in tensor.table.items()]


CLASSICAL = ([("gl", n) for n in range(1, 6)] + [("sl", n) for n in range(2, 6)]
             + [("so", n) for n in range(1, 6)] + [("sp", n) for n in (2, 4, 6, 8)])


@pytest.mark.parametrize("family, n", CLASSICAL, ids=["%s%d" % c for c in CLASSICAL])
def test_build_classical_matches_per_pair_reference(family, n):
    mats, labels = basis_matrices(family, n)
    got = build_classical(family, n)
    want = reference_tensor(mats, labels)
    assert layout(got) == layout(want)
    assert got.labels == want.labels


def dense_conjugate(mats, seed):
    """P B P^-1 for each B, P a seeded invertible matrix with no zero entry
    and denominators up to 3."""
    rng, n = random.Random(seed), mats[0].nrows
    while True:
        P = RatMatrix([[Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                        for _ in range(n)] for _ in range(n)])
        if rank_exact(P) == n:
            break
    Pinv = inverse(P)
    return [P * b * Pinv for b in mats]


DENSE = [("gl", 3), ("sl", 3), ("so", 4), ("sp", 4)]


@pytest.mark.parametrize("family, n", DENSE, ids=["%s%d" % c for c in DENSE])
def test_dense_rational_basis_matches_per_pair_reference(family, n):
    # every basis matrix is dense with den_k > 1, so every coordinate read
    # against its integer form must be scaled back by den_k
    mats, labels = basis_matrices(family, n)
    mats = dense_conjugate(mats, 1)
    assert all(m.den > 1 and all(map(all, m.ints)) for m in mats)
    got = tensor_from_matrix_basis(mats, labels)
    assert layout(got) == layout(reference_tensor(mats, labels))
    # conjugation keeps the structure constants
    assert got.integer_form() == build_classical(family, n).integer_form()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_associative_matches_per_pair_reference(n):
    mats, labels = basis_matrices("gl", n)
    assert layout(build_gl_associative(n)) == layout(reference_tensor(mats, labels, "assoc"))


def random_form(rng, n, skew):
    """An invertible symmetric (or skew) rational n x n matrix."""
    while True:
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j and skew:
                    continue
                x = rand_rat(rng, -3, 3)
                rows[i][j] = x
                rows[j][i] = -x if skew else x
        if rank_exact(rows) == n:
            return RatMatrix(rows)


FORMS = ([(n, False, seed) for n in range(1, 5) for seed in range(3)]
         + [(n, True, seed) for n in (2, 4) for seed in range(3)])


@pytest.mark.parametrize("n, skew, seed", FORMS,
                         ids=["%s%d-%d" % ("skew" if s else "sym", n, seed)
                              for n, s, seed in FORMS])
def test_involution_split_odd_part_matches_reference(n, skew, seed):
    rng = random.Random(seed)
    J = random_form(rng, n, skew)
    split = involution_split(n, J)
    labels = ["S%d" % (k + 1) for k in range(len(split.odd))]
    assert (layout(tensor_from_matrix_basis(split.odd, labels))
            == layout(reference_tensor(split.odd, labels)))
    cols = [flat(m) for m in split.odd]
    for _ in range(5):
        coeffs = [rand_rat(rng) for _ in split.odd]
        x = RatMatrix.zero(n)
        for c, m in zip(coeffs, split.odd):
            x = x + m.scale(c)
        assert split.odd_coords(x) == reference_solve_columns(cols, flat(x)) == coeffs
    for y in split.even:
        if y.is_zero():
            continue
        assert reference_solve_columns(cols, flat(y)) is None
        with pytest.raises(ValueError):
            split.odd_coords(y)


def count_reductions(monkeypatch):
    """The row count of every elimination from here on: each one builds
    one `exact._Echelon`."""
    calls = []
    real = exact._Echelon.__init__

    def counting(self, rows):
        calls.append(len(rows))
        real(self, rows)
    monkeypatch.setattr(exact._Echelon, "__init__", counting)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_build_gl_reduces_once(monkeypatch, n):
    calls = count_reductions(monkeypatch)
    build_classical("gl", n)
    assert len(calls) == 1


def test_sl2_complete_reduces_at_most_twice(monkeypatch):
    calls = count_reductions(monkeypatch)
    sl2_complete("sl", 4, (2, 2))
    assert len(calls) <= 2


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to module.name from here on."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("n, partition, commutators", [(4, "2,2", 105), (6, "2,2,2", 595)])
def test_nilpotent_square_example_builds_sl_n_once(monkeypatch, tmp_path, n, partition,
                                                   commutators):
    # the triple hands back the algebra its guard checked; the example reuses it
    builds = count_calls(monkeypatch, constructions, "basis_matrices")
    products = count_calls(monkeypatch, constructions, "_commutator")
    calls = count_reductions(monkeypatch)
    argv = ["example", "nilpotent-square", "sl", str(n), "--partition", partition,
            "--out-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert builds == [("sl", n)]
    assert len(products) == commutators
    assert len(calls) <= 2


def test_index_theorem_builds_sl_n_once(monkeypatch):
    builds = count_calls(monkeypatch, constructions, "basis_matrices")
    products = count_calls(monkeypatch, constructions, "_commutator")
    assert verify_index_theorem("sl", 4, (2, 2)).consistent
    assert builds == [("sl", 4)]
    assert len(products) == 15 * 14 // 2


@pytest.mark.parametrize("n, most", [(4, 100), (6, 441)])
def test_build_sp_expands_each_commutator_once(monkeypatch, n, most):
    products = count_calls(monkeypatch, constructions, "_commutator")
    calls = count_reductions(monkeypatch)
    t = build_classical("sp", n)
    assert len(products) == t.dim * (t.dim - 1) // 2 <= most
    # the basis reader; the basis itself is written in closed form
    assert len(calls) == 1


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_sp_closed_form_is_the_odd_part_of_the_split(n):
    # the canonical kernel basis of sigma + I, sigma(x) = J^-1 x^T J
    split = involution_split(n, standard_symplectic(n))
    mats, labels = basis_matrices("sp", n)
    assert mats == split.odd
    assert labels == list(split.odd_tensor.labels)
    got = build_classical("sp", n)
    assert got.integer_form() == split.odd_tensor.integer_form()
    assert layout(got) == layout(split.odd_tensor)
    assert got.labels == split.odd_tensor.labels


@pytest.mark.parametrize("params", [["gl", "60", "--partition", "1"],
                                    ["so", "30", "--partition", "1"],
                                    ["sp", "8", "--partition", "1"],
                                    ["sl", "60", "--partition", "1"]],
                         ids=["gl60", "so30", "sp8", "sl60-partition"])
def test_nilpotent_square_refuses_before_building(monkeypatch, tmp_path, params):
    # the family, the size and the partition are read before any matrix is built
    built = count_calls(monkeypatch, constructions, "unit_matrix")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["example", "nilpotent-square"] + params
                        + ["--out-dir", str(tmp_path)]) == 2
    assert err.getvalue().startswith("input error: ")
    assert built == []


def test_assoc_operators_read_each_basis_once(monkeypatch):
    products = count_calls(monkeypatch, constructions, "_commutator")
    shapes = []
    real = exact._Echelon.__init__

    def recording(self, rows):
        # a row's width is its last column; [B | I] has one in every I column
        shapes.append((len(rows), 1 + max((max(row, default=-1) for row in rows), default=-1)))
        real(self, rows)
    monkeypatch.setattr(exact._Echelon, "__init__", recording)
    ops = assoc_operators(3, RatMatrix.diagonal([1, 0, 0]), RatMatrix.identity(3))
    assert ops.checks["odd_second_derived_is_a2_sandwich"]
    assert len(products) <= 81
    # [B | I] of the odd basis (9 x 3 + 9) and of the gl basis (9 x 9 + 9)
    assert shapes.count((9, 12)) == 1
    assert shapes.count((9, 18)) == 1


@pytest.mark.parametrize("n, skew, seed", FORMS,
                         ids=["%s%d-%d" % ("skew" if s else "sym", n, seed)
                              for n, s, seed in FORMS])
def test_involution_split_odd_tensor_matches_reference(n, skew, seed):
    split = involution_split(n, random_form(random.Random(seed), n, skew))
    labels = ["S%d" % (k + 1) for k in range(len(split.odd))]
    want = reference_tensor(split.odd, labels)
    assert layout(split.odd_tensor) == layout(want)
    assert split.odd_tensor.labels == want.labels


def test_split_whose_odd_part_does_not_close_raises(monkeypatch):
    # x y in place of [x, y]: F12 F23 = E13 is not antisymmetric
    monkeypatch.setattr(constructions, "_commutator", product_form)
    with pytest.raises(IdentityFailed):
        involution_split(3)
    with pytest.raises(IdentityFailed):
        build_classical("sp", 4)


# asserts are stripped under -O, so the script reports through its exit code
OPTIMIZED_SPLIT_SCRIPT = """
import sys
from helpers import product_form
from liepencil import constructions
from liepencil.tensors import IdentityFailed
if __debug__:
    sys.exit("not running under -O")
constructions._commutator = product_form
try:
    constructions.build_classical("sp", 4)
except IdentityFailed:
    print("raised")
"""


def test_split_guard_survives_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(constructions.__file__)))
    env = dict(os.environ)
    tests = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SPLIT_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_empty_column_set():
    read = coordinates([])
    assert read([]) == []
    assert read([ZERO, ZERO]) == []
    assert read([ZERO, Fraction(1)]) is None
    assert coordinates([[], []])([]) == [ZERO, ZERO]


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

# the example budget is the "liepencil" profile in conftest.py

ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def column_sets(draw):
    """Up to 6 columns of length 0..6: drawn, zero, or combinations of the
    columns before."""
    m = draw(st.integers(0, 6))
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["drawn", "zero", "combination"]))
        if kind == "zero":
            cols.append([Fraction(0)] * m)
        elif kind == "combination" and cols:
            coeffs = draw(st.lists(ENTRIES, min_size=len(cols), max_size=len(cols)))
            cols.append([sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0))
                         for i in range(m)])
        else:
            cols.append(draw(st.lists(ENTRIES, min_size=m, max_size=m)))
    return m, cols


@given(column_sets(), st.data())
def test_one_reader_matches_fresh_eliminations(columns, data):
    m, cols = columns
    read = coordinates(cols)
    for _ in range(data.draw(st.integers(1, 8), label="targets")):
        if cols and data.draw(st.booleans(), label="consistent"):
            coeffs = data.draw(st.lists(ENTRIES, min_size=len(cols), max_size=len(cols)))
            target = [sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0))
                      for i in range(m)]
        else:
            target = data.draw(st.lists(ENTRIES, min_size=m, max_size=m))
        want = reference_solve_columns(cols, target)
        assert read(target) == want
        assert solve_columns(cols, target) == want
