"""The commutation verdict `pc-check` reads from a proof, against the scan.

`cli._pc_family` forms no bracket for the argument shift of --gamma, nor
for the orbit of a lifted operator with `near_theorem` (T Lie, D not tagged
not-near); its docstring holds the proof.  Proof (c) transports brackets
by exp(sD), so it needs `poisson.lifted` and `tensors.derived` to read one
D: on generators, L{x_i, x_j}_T - {L x_i, x_j}_T - {x_i, L x_j}_T must be
{x_i, x_j}_T' for L = lifted(D) and T' = derived(T, D), checked here as
polynomials on skew tensors with operators of every tag.  The verdict the
theorem path returns must equal `pc_verify`'s on classified lifted orbits
of every tag, on the argument shift for random covectors on sl3, sp4 and
gl3, and on the sl3 and sl4 nilpotent squares.  A not-near lift keeps the
scan: `pc-check --operator` on a sparse not-near sl3 operator exits 1 with
`pc_verify`'s witness, and the CLI makes no `pc_verify` call for --gamma,
the nilpotent squares or a dense near sl4 operator, and one for it.
"""

import contextlib
import io
import json
from argparse import Namespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil import poisson as pois
from liepencil.cli import _pc_family, main
from liepencil.constructions import build_classical, nilpotent_square, sl2_complete
from liepencil.exact import RatMatrix
from liepencil.io import save_operator
from liepencil.poisson import centre_candidates, from_tensor, pc_verify
from liepencil.tensors import classify_operator, derived, is_lie

from helpers import variable
from test_lazy_table import conjugated_grading
from test_poisson_oracle import linear_table, reference_poisson_bracket
from test_tensor_oracle import (ENTRIES, LIE, PENCIL_SEEDS, classified_pencils, fixed_lists,
                                lie_with_inner, unit_operator)

# T' = -T for D = ad x + I, as rho(ad x).T = 0 and rho(I).T = -T
SCALAR_SEEDS = [("scalar-type", tensor, op + RatMatrix.identity(tensor.dim))
                for tensor, op in (lie_with_inner(LIE[0]), lie_with_inner(LIE[3]))]
# the seeds of every tag on a skew tensor, all of them Lie
LIFT_SEEDS = [seed for seed in PENCIL_SEEDS if seed[1].is_skew()] + SCALAR_SEEDS
TAGS = {"derivation", "scalar-type", "quasi", "near", "not-near"}
# a sparse not-near operator on sl3 (entries (row, column, value)): the
# orbit of the quadratic Casimir C is C, DC, D^2 C, and {DC, D^2 C} != 0
NOT_NEAR_SL3 = [(6, 0, 1), (7, 5, 1), (7, 6, 1)]


def check_lift_convention(tensor, op):
    """The lift defect of each generator pair's bracket is its T' bracket,
    as polynomials, for the skew tensor T."""
    n = tensor.dim
    struct, moved, lift = linear_table(tensor), linear_table(derived(tensor, op)), pois.lifted(op)
    x = [variable(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            defect = (lift(reference_poisson_bracket(struct, x[i], x[j]))
                      - reference_poisson_bracket(struct, lift(x[i]), x[j])
                      - reference_poisson_bracket(struct, x[i], lift(x[j])))
            assert defect == reference_poisson_bracket(moved, x[i], x[j])


def test_lift_seeds_cover_every_tag():
    assert {classify_operator(tensor, op).tag for _, tensor, op in LIFT_SEEDS} == TAGS
    assert all(classify_operator(tensor, op).tag == tag for tag, tensor, op in LIFT_SEEDS)


@pytest.mark.parametrize("tag, tensor, op", LIFT_SEEDS)
def test_lift_and_derived_read_one_operator(tag, tensor, op):
    check_lift_convention(tensor, op)


@given(st.sampled_from(["near", "lie", "any", "graded"]), st.data())
def test_lift_and_derived_read_one_operator_on_classified_pencils(kind, data):
    act, _ = data.draw(classified_pencils(kind), label="pencil")
    if act.tensor.is_skew():
        check_lift_convention(act.tensor, act.operator)


def theorem_and_scan(tensor, operator, act, degree):
    """(ok, witness) of `_pc_family` on the orbit of the centre candidates
    of the Lie tensor up to degree, and of `pc_verify` on the same family;
    None when there is no candidate."""
    seeds = centre_candidates(from_tensor(tensor), degree)
    if not seeds:
        return None
    family, cert = _pc_family(Namespace(degree_bound=degree), tensor, operator, seeds, act)
    scan = pc_verify(family, from_tensor(tensor))
    assert (cert.ok, cert.witness) == (scan.ok, scan.witness)
    return cert.ok


def lifted_orbit(tensor, op, degree):
    return theorem_and_scan(tensor, pois.lifted(op), classify_operator(tensor, op), degree)


@pytest.mark.parametrize("tag, tensor, op", LIFT_SEEDS)
def test_theorem_matches_the_scan_on_lift_seeds(tag, tensor, op):
    # the one not-near seed, on sl2, has a family that fails
    assert lifted_orbit(tensor, op, 3) is (tag != "not-near")


@given(st.sampled_from(["near", "lie"]), st.data())
def test_theorem_matches_the_scan_on_classified_pencils(kind, data):
    # Lie tensors on random bases, near operators moved with them or
    # random operators, mostly not near
    act, _ = data.draw(classified_pencils(kind), label="pencil")
    if is_lie(act.tensor):
        theorem_and_scan(act.tensor, pois.lifted(act.operator), act, 2)


@pytest.mark.parametrize("family, n, degree", [("sl", 3, 3), ("sp", 4, 4), ("gl", 3, 3)])
@given(data=st.data())
def test_argument_shift_matches_the_scan(family, n, degree, data):
    tensor = build_classical(family, n)
    gamma = data.draw(fixed_lists(ENTRIES, tensor.dim), label="gamma")
    assert theorem_and_scan(tensor, pois.directional(gamma), None, degree) is True


@pytest.mark.parametrize("n, partition", [(3, (2, 1)), (4, (2, 2))])
def test_theorem_matches_the_scan_on_nilpotent_squares(n, partition):
    tensor = build_classical("sl", n)
    op, _ = nilpotent_square(tensor, sl2_complete("sl", n, partition).e)
    assert classify_operator(tensor, op).tag == "quasi"
    assert lifted_orbit(tensor, op, 4) is True


def run(argv, exit):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == exit
    return out.getvalue()


@pytest.fixture
def scans(monkeypatch, tmp_path):
    """The `pc_verify` calls made in the test, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    recorded, scan = [], pois.pc_verify
    monkeypatch.setattr(pois, "pc_verify", lambda *args: recorded.append(args) or scan(*args))
    return recorded


def test_a_not_near_lift_is_scanned_for_its_witness(scans):
    run(["example", "sl", "3"], 0)
    tensor = build_classical("sl", 3)
    op = unit_operator(tensor.dim, NOT_NEAR_SL3)
    assert classify_operator(tensor, op).tag == "not-near"
    save_operator(op, "op.json")
    scans.clear()
    doc = json.loads(run(["pc-check", "--algebra", "sl3.json", "--operator", "op.json",
                          "--json"], 1))
    assert len(scans) == 1
    struct = from_tensor(tensor)
    family = pois.pc_generate(struct, pois.lifted(op), centre_candidates(struct, 2))
    cert = pc_verify(family, struct)
    assert not cert.ok
    assert (doc["commutes"], doc["witness"]) == (False, list(cert.witness)) == (False, [1, 2])


def test_theorem_families_make_no_scan(scans):
    for n, partition in [("3", "2,1"), ("4", "2,2")]:
        run(["example", "nilpotent-square", "sl", n, "--partition", partition], 0)
        files = ["--algebra", "sl%s.json" % n, "--operator", "sl%s-nilsquare-op.json" % n]
        run(["pc-check"] + files, 0)
        run(["report", "--pc"] + files, 0)
        gamma = ",".join(str(k % 5 - 2) for k in range(int(n) ** 2 - 1))
        run(["pc-check", "--algebra", "sl%s.json" % n, "--gamma=" + gamma], 0)
        run(["report", "--gamma=" + gamma] + files, 0)
    sl4 = build_classical("sl", 4)
    op = conjugated_grading(sl4, [1, -1, -1, 1, 1, -1, 1, 1, -1, -1, 1, -1])
    assert classify_operator(sl4, op).tag == "near"
    save_operator(op, "dense.json")
    run(["pc-check", "--algebra", "sl4.json", "--operator", "dense.json"], 0)
    assert scans == []
