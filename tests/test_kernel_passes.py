"""Kernel passes per command: how often `tensors._contraction` runs.

Each command reads what `classify_operator` proved instead of deriving it
again.  `report` runs three passes on a quasi or near action: T' = rho(D).T,
classify's one pencil check, and the torsion for the Nijenhuis diagnostic.
The torsion-decomposition gate is an identity (`nijenhuis.torsion_decomposition`),
and T'' is named by classify's (a, b), never built.  `normalize_pencil` on a
classified action runs none, shifted or not, also after every field of the
action and every table of its tensors has been read, and
`example nilpotent-square` reads its formula check from the Jacobi verdict
of the algebra.  `torsion` and `nijenhuis-check` compute the torsion once
and read the eigenvalue witnesses off it.  `exp-check` reads the
Nijenhuis identity, and the near one at m = 0, off `derived` once: one
pass per iterate up to the first zero one, one per nonzero power N^p with
p >= 2, and none at any point.  On a nilpotent square that is two passes
each, and the near ones are the T' and T'' its precondition needs.  The
diagonal near path at m != 0 reads its polynomial off T's parts by weight,
so it too runs only T' and T''.  Each `exp-check` forms the powers of N
once, in the engine, whose nilpotency test is the only refusal of a
non-nilpotent N, and a refused `exp-check` runs no pass.
`nijenhuis-check` makes one torsion call, and on a Lie tensor that is its only pass at every `--depth`: the
powers, the iterates and their Jacobi verdicts are read from the
hierarchy (`nijenhuis.check_N_properties`).  On a Nijenhuis input that is
not Lie it adds one pass per iterate, 1 + depth in all.

No command scans a tensor for skewness: every builder that mirrors its
pairs i < j hands its skew verdict to `StructureTensor._of` (`io` on a
loaded tensor, `contract` on a mirrored result, the classical and
quasi-grading builders of `example`), and a `tensor_combination` of known
skew tensors is known skew, so `check_skew` runs 0 times per command,
pencil members that fail Jacobi included.
"""

import contextlib
import io
import json
from dataclasses import fields
from pathlib import Path

import pytest

from liepencil import io as iomod, nijenhuis, tensors
from liepencil.cli import main
from liepencil.tensors import StructureTensor, classify_operator, normalize_pencil

from helpers import count_products
from test_cli_golden import FILES
from test_nijenhuis_oracle import max_graded_draw
from test_tensors import two_sl2

GRADING_WEIGHTS = "1,2,2,1,1,2,0,0"


@pytest.fixture
def calls(monkeypatch, tmp_path):
    """The `_contraction` calls made in the test, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    recorded, kernel = [], tensors._contraction
    monkeypatch.setattr(tensors, "_contraction",
                        lambda *args: recorded.append(args) or kernel(*args))
    return recorded


def passes(calls, argv, exit=0):
    """The kernel passes of one command line, which must exit with exit."""
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == exit
    return len(calls)


def test_report_on_a_nilpotent_square(calls):
    assert passes(calls, ["example", "nilpotent-square", "sl", "4", "--partition", "2,2"]) == 3
    assert passes(calls, ["report", "--algebra", "sl4.json",
                          "--operator", "sl4-nilsquare-op.json"]) == 3


def test_report_on_a_grading_operator(calls):
    assert passes(calls, ["example", "grading", "sl", "3", "--weights", GRADING_WEIGHTS,
                          "--modulus", "3"]) == 0
    files = ["--algebra", "sl3.json", "--operator", "sl3-grading-op.json"]
    assert passes(calls, ["classify"] + files) == 2
    assert passes(calls, ["pencil"] + files) == 2
    assert passes(calls, ["report"] + files) == 3


def test_nijenhuis_commands_compute_one_torsion(calls):
    # torsion and nijenhuis-check read the eigenvalue witnesses off the
    # torsion they computed; the diagonal near identity runs T' and T'' and
    # reads its Laurent polynomial off T's parts by weight, with no pass per
    # point; on the nilpotent square the certified identity runs
    # rho(N)^2 T = 0 in two passes and N^2 = 0 in none, and the near one at
    # m = 0 reads its expansion off T' and T'' = 0
    passes(calls, ["example", "grading", "sl", "3", "--weights", GRADING_WEIGHTS,
                   "--modulus", "3"])
    files = ["--algebra", "sl3.json", "--operator", "sl3-grading-op.json"]
    assert passes(calls, ["torsion"] + files) == 1
    assert passes(calls, ["exp-check"] + files + ["--kind", "near", "--m", "-3",
                                                  "--points", "2,-1"]) == 2
    passes(calls, ["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    assert passes(calls, ["nijenhuis-check", "--algebra", "sl2.json",
                          "--operator", "sl2-grading-op.json"], exit=1) == 1
    passes(calls, ["example", "nilpotent-square", "sl", "3", "--partition", "2,1"])
    assert passes(calls, ["exp-check", "--algebra", "sl3.json",
                          "--operator", "sl3-nilsquare-op.json",
                          "--kind", "nijenhuis", "--certified"]) == 2
    assert passes(calls, ["exp-check", "--algebra", "sl3.json",
                          "--operator", "sl3-nilsquare-op.json",
                          "--kind", "near", "--m", "0", "--points", "1,2/3"]) == 2


def test_exp_check_refuses_before_any_pass(calls):
    # the engine is the one owner of each exp-check refusal, and it refuses
    # before its first `derived` pass: no T' is built for a refused input
    passes(calls, ["example", "nilpotent-square", "sl", "2", "--partition", "2"])
    passes(calls, ["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    for op, kind in [("grading", ["nijenhuis", "--certified"]),
                     ("grading", ["near", "--m", "0", "--points", "1"]),
                     ("nilsquare", ["near", "--m", "-2", "--points", "2"]),
                     ("grading", ["near", "--m", "3", "--points", "2,0"])]:
        argv = ["exp-check", "--algebra", "sl2.json", "--operator", "sl2-%s-op.json" % op]
        assert passes(calls, argv + ["--kind"] + kind, exit=2) == 0


def test_exp_check_forms_each_power_of_the_operator_once(calls, monkeypatch):
    # on the sl3 (2,1) square, N^2 = 0: one product, for the engine's
    # nilpotency test, whose powers the Nijenhuis series reads; the CLI
    # leaves that refusal to the engine and forms no power of its own
    passes(calls, ["example", "nilpotent-square", "sl", "3", "--partition", "2,1"])
    files = ["--algebra", "sl3.json", "--operator", "sl3-nilsquare-op.json"]
    products = count_products(monkeypatch)
    for kind in (["nijenhuis", "--certified"], ["near", "--m", "0", "--points", "1,2/3"]):
        products.clear()
        passes(calls, ["exp-check"] + files + ["--kind"] + kind)
        assert len(products) == 1


def test_nijenhuis_check_reads_the_hierarchy_by_identity(calls, monkeypatch):
    # one torsion and no iterate on a Lie input; on one that is not Lie the
    # torsion and one derived pass per iterate
    torsions, torsion = [], nijenhuis.torsion
    monkeypatch.setattr(nijenhuis, "torsion",
                        lambda tensor, op: torsions.append(op) or torsion(tensor, op))
    passes(calls, ["example", "nilpotent-square", "sl", "3", "--partition", "2,1"])
    files = ["--algebra", "sl3.json", "--operator", "sl3-nilsquare-op.json"]
    for depth in (1, 3):
        torsions.clear()
        assert passes(calls, ["nijenhuis-check"] + files + ["--depth", str(depth)]) == 1
        assert len(torsions) == 1
    tensor, op = max_graded_draw(0)
    iomod.save_algebra(tensor, "graded.json")
    iomod.save_operator(op, "graded-op.json")
    files = ["--algebra", "graded.json", "--operator", "graded-op.json"]
    for depth in (1, 3):
        torsions.clear()
        assert passes(calls, ["nijenhuis-check"] + files + ["--depth", str(depth)],
                      exit=1) == 1 + depth
        assert len(torsions) == 1


def test_commands_read_the_skew_verdict_of_a_loaded_tensor(calls, monkeypatch):
    # every example kind builds its tensors skew, every command reads the
    # verdict of the tensor it loads, and pencil and report on a graded
    # algebra that is not Lie scan its pencil members for Jacobi only
    scans, check_skew = [], tensors.check_skew
    monkeypatch.setattr(tensors, "check_skew",
                        lambda tensor: scans.append(tensor) or check_skew(tensor))
    for name in ("graded-nonlie.json", "graded-nonlie-weight-op.json"):
        Path(name).write_text(json.dumps(FILES[name]))
    sl3 = ["--algebra", "sl3.json", "--operator", "sl3-nilsquare-op.json"]
    graded = ["--algebra", "graded-nonlie.json", "--operator", "graded-nonlie-weight-op.json"]
    cases = [(["example", "sl", "4"], 0),
             (["example", "grading", "sl", "3", "--weights", GRADING_WEIGHTS, "--modulus", "3"], 0),
             (["example", "quasi-grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"], 0),
             (["example", "nilpotent-square", "sl", "3", "--partition", "2,1"], 0),
             (["example", "splitting", "sl", "2", "--sub", "0,1", "--complement", "2"], 0)]
    cases += [([command] + sl3, 0) for command in ("report", "classify", "derive", "torsion",
                                                    "pencil", "nijenhuis-check")]
    cases += [(["pencil"] + graded, 1), (["report"] + graded + ["--seed", "4"], 1)]
    for argv, exit in cases:
        scans.clear()
        passes(calls, argv, exit)
        assert scans == [], argv


def test_normalize_a_classified_action(calls):
    # near (2, 1): the shift lambda1 = -1 takes rho(D1).T = T' + T
    act = classify_operator(*two_sl2())
    assert (act.tag, act.a, act.b) == ("near", 2, 1)
    calls.clear()
    assert normalize_pencil(act).shift == -1
    assert calls == []


def test_normalize_after_every_field_is_read(calls):
    # reading the action, down to the tables of its tensors, leaves the
    # certificate in place
    act = classify_operator(*two_sl2())
    for field in fields(act):
        value = getattr(act, field.name)
        if isinstance(value, StructureTensor):
            assert value.table == value.table
    calls.clear()
    assert normalize_pencil(act).shift == -1
    assert calls == []
