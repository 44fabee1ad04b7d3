"""Kernel passes per command: how often `tensors._contraction` runs.

Each command reads what `classify_operator` proved instead of deriving it
again.  `report` runs three passes on a quasi or near action: T' = rho(D).T,
classify's one pencil check, and the torsion for the Nijenhuis diagnostic.
The torsion-decomposition gate is an identity (`nijenhuis.torsion_decomposition`),
and T'' is named by classify's (a, b), never built.  `normalize_pencil` on a
classified action runs none, shifted or not, also after every field of the
action and every table of its tensors has been read, and
`example nilpotent-square` reads its formula check from the Jacobi verdict
of the algebra.
"""

import contextlib
import io
from dataclasses import fields

import pytest

from liepencil import tensors
from liepencil.cli import main
from liepencil.tensors import StructureTensor, classify_operator, normalize_pencil

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


def passes(calls, argv):
    """The kernel passes of one command line, which must exit 0."""
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return len(calls)


def test_report_on_a_nilpotent_square(calls):
    assert passes(calls, ["example", "nilpotent-square", "sl", "4", "--partition", "2,2"]) == 3
    assert passes(calls, ["report", "--algebra", "sl4.json",
                          "--operator", "sl4-nilsquare-op.json"]) == 3


def test_report_on_a_grading_operator(calls):
    passes(calls, ["example", "grading", "sl", "3", "--weights", GRADING_WEIGHTS,
                   "--modulus", "3"])
    files = ["--algebra", "sl3.json", "--operator", "sl3-grading-op.json"]
    assert passes(calls, ["classify"] + files) == 2
    assert passes(calls, ["pencil"] + files) == 2
    assert passes(calls, ["report"] + files) == 3


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
