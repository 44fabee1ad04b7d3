"""`report` agrees with the commands it aggregates.

On every (algebra, operator) pair of the golden fixtures, one `report`
and one `report --pc` are checked against the commands that check each
part on its own:

* the `classification` check's tag, a, b and mode are `classify`'s;
* wherever `pencil` normalizes, `pencil-members-lie` fails exactly when a
  member `pencil` lists is not Lie, naming the first such member, and
  `degenerate-lines-lie` is `pencil`'s `degenerate_lines_lie`;
* `index --seed S` gives the index of `report --seed S`, and refuses an
  algebra on which `report` checks no index;
* `diagnostics.nijenhuis` is the verdict of `nijenhuis-check`;
* `pc-family-commutes` of `report --pc` has the `commutes` and
  `family_size` of `pc-check`, and both refuse an algebra without seeds.
"""

import contextlib
import io
import json
import os

import pytest

from liepencil.cli import main

from test_cli_golden import COMMANDS, FILES

SEED = "3"
PAIRS = sorted({(words[words.index("--algebra") + 1], words[words.index("--operator") + 1])
                for words in map(str.split, COMMANDS) if "--operator" in words})


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """A folder with the golden fixtures: the hand-written files and those
    the `example` commands write."""
    folder = tmp_path_factory.mktemp("fixtures")
    for name, doc in FILES.items():
        (folder / name).write_text(json.dumps(doc))
    here = os.getcwd()
    os.chdir(folder)
    try:
        for line in COMMANDS:
            if line.startswith("example "):
                assert call(line.split())[1] == 0
        yield folder
    finally:
        os.chdir(here)


def call(argv):
    """(JSON document or None, exit code) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    return (json.loads(out.getvalue()) if out.getvalue() else None), code


def checks(doc):
    return {c["name"]: c for c in doc["checks"]}


@pytest.mark.parametrize("algebra, operator", PAIRS)
def test_report_agrees_with_the_commands_it_aggregates(fixtures, algebra, operator):
    files = ["--algebra", algebra, "--operator", operator]
    report, _ = call(["report"] + files + ["--seed", SEED])
    got = checks(report)

    classify, _ = call(["classify"] + files)
    assert {k: got["classification"][k] for k in ("tag", "a", "b", "mode")} == {
        k: classify[k] for k in ("tag", "a", "b", "mode")}

    pencil, _ = call(["pencil"] + files)
    if "members" in pencil:
        failing = [[m["alpha"], m["beta"]] for m in pencil["members"] if not m["lie"]]
        assert got["pencil-members-lie"]["ok"] == (not failing)
        assert got["pencil-members-lie"]["witness"] == (failing[0] if failing else None)
        assert got["degenerate-lines-lie"]["ok"] == pencil["degenerate_lines_lie"]

    index, code = call(["index", "--algebra", algebra, "--seed", SEED])
    gate = got.get("index-modes-agree") or got.get("index-probabilistic")
    assert (gate is None) == (code == 2)
    if gate is not None:
        assert gate["index"] == index["index"]

    nijenhuis, _ = call(["nijenhuis-check"] + files)
    assert report["diagnostics"]["nijenhuis"] == nijenhuis["nijenhuis"]

    with_pc, code = call(["report"] + files + ["--seed", SEED, "--pc"])
    pc_check, pc_code = call(["pc-check"] + files)
    if pc_check is None:
        # no seeds in the centre, or an algebra that is not Lie
        assert pc_code == 2 and (code == 2 or "pc-family-commutes" not in checks(with_pc))
    else:
        family = checks(with_pc)["pc-family-commutes"]
        assert (family["ok"], family["size"]) == (pc_check["commutes"],
                                                  pc_check["family_size"])
