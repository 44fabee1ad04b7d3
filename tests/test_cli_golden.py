"""Byte-identity of the command line on small fixtures.

`tests/golden_cli.json` holds, for each command below, the sha256 of its
stdout and its exit code, plus the sha256 of every file the commands leave
in the working directory.  The commands run in order in one fresh directory:
the `example` calls write the sl2/sl3/sl4 fixtures the later calls read.
Any change to what the CLI prints or writes for these inputs fails here,
naming the commands whose output moved.

To record the digests again after a deliberate output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from liepencil.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# written by hand: two operators on sl2 (basis e, h, f), a dense one with
# mixed denominators and the nilpotent shear h -> e, which is not Nijenhuis;
# and sl2 in the rational basis a = e/2, b = h/3, c = 5f, where
# [a, b] = -2/3 a, [a, c] = 15/2 b and [b, c] = -2/3 c.  Also written by
# hand: D = A G A^-1 on sl3, with G the Z3 grading operator of weights
# (i - j) mod 3 on E_ij and A = exp(ad x) exp(ad y) for
# x = E12 - E13 + E23 and y = -E21 + E31 + E32, which is dense and near with
# (a, b) = (0, -3); and two skew tensors that are not Lie: one whose first
# failing Jacobi triple is (0, 1, 3), and one graded mod 3 by the weights
# (1, 1, 2, 0), near for its weight operator, whose pencil members fail;
# the identity on sl2, of scalar type; the 2-dimensional algebra [x, y] = y
# with D = [[0, 2], [1, 0]], near with (a, b) = (2, 0) and discriminant 8,
# whose pencil has irrational eigenvalues; and the seed x0 on sl2, which is
# not central
FILES = {
    "sl2-dense-op.json": {"dim": 3, "matrix": [["1/2", "-1", "2/3"],
                                               ["3", "0", "-1/4"],
                                               ["-2/5", "1", "1"]]},
    "sl2-shear-op.json": {"dim": 3, "matrix": [["0", "1", "0"],
                                               ["0", "0", "0"],
                                               ["0", "0", "0"]]},
    "sl2-rational.json": {"dim": 3, "basis": ["a", "b", "c"],
                          "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "-2/3"}},
                                       {"i": 0, "j": 2, "coeffs": {"1": "15/2"}},
                                       {"i": 1, "j": 2, "coeffs": {"2": "-2/3"}}]},
    "sl3-conjugated-op.json": {"dim": 8, "matrix": [
        ["11/8", "-5/8", "-3/16", "3/8", "3/32", "5/16", "7/16", "1/16"],
        ["-23/16", "23/16", "9/32", "-5/16", "-21/64", "-33/32", "-37/32", "17/32"],
        ["-39/4", "-33/4", "7/8", "5/4", "-1/16", "-45/8", "-1/8", "41/8"],
        ["-21/8", "-23/8", "1/16", "11/8", "-15/32", "-39/16", "-7/16", "23/16"],
        ["-15/4", "-21/4", "-7/8", "3/4", "31/16", "-1/8", "23/8", "5/8"],
        ["1/4", "9/4", "3/8", "-3/4", "-7/16", "7/8", "-11/8", "-5/8"],
        ["-13/8", "1/8", "7/16", "-3/8", "-11/32", "-27/16", "-3/16", "15/16"],
        ["-3/8", "19/8", "9/16", "-5/8", "-17/32", "-13/16", "-33/16", "21/16"]]},
    "skew-nonlie.json": {"dim": 4, "basis": ["p", "q", "z", "t"],
                         "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                                      {"i": 0, "j": 3, "coeffs": {"0": "1/2"}},
                                      {"i": 1, "j": 3, "coeffs": {"1": "-1/2", "2": "3"}},
                                      {"i": 2, "j": 3, "coeffs": {"0": "2/3"}}]},
    "skew-nonlie-dense-op.json": {"dim": 4, "matrix": [["1/2", "-1", "0", "2"],
                                                       ["1", "0", "1/3", "0"],
                                                       ["0", "2", "1", "-1"],
                                                       ["1", "0", "0", "3/2"]]},
    "graded-nonlie.json": {"dim": 4, "basis": ["p", "q", "z", "t"],
                           "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                                        {"i": 0, "j": 2, "coeffs": {"3": "1"}},
                                        {"i": 0, "j": 3, "coeffs": {"0": "1/2"}},
                                        {"i": 1, "j": 3, "coeffs": {"1": "-1/2", "0": "3"}},
                                        {"i": 2, "j": 3, "coeffs": {"2": "2/3"}}]},
    "graded-nonlie-weight-op.json": {"dim": 4, "matrix": [["1", "0", "0", "0"],
                                                          ["0", "1", "0", "0"],
                                                          ["0", "0", "2", "0"],
                                                          ["0", "0", "0", "0"]]},
    "sl2-identity-op.json": {"dim": 3, "matrix": [["1", "0", "0"],
                                                  ["0", "1", "0"],
                                                  ["0", "0", "1"]]},
    "affine2.json": {"dim": 2, "basis": ["x", "y"],
                     "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]},
    "affine2-op.json": {"dim": 2, "matrix": [["0", "2"], ["1", "0"]]},
    "sl2-seed-x0.json": {"seeds": [[{"exponents": [1, 0, 0], "coeff": "1"}]]},
}

COMMANDS = [
    "example sl 2",
    "example sl 3 --json",
    "example sl 4",
    "example sp 4 --json",
    "example so 4",
    "example gl 3 --json",
    "example grading sl 2 --weights 1,0,1 --modulus 2",
    "example grading sl 3 --weights 2,1,1,2,2,1,0,0 --modulus 3 --json",
    "example nilpotent-square sl 2 --partition 2",
    "example nilpotent-square sl 3 --partition 2,1 --json",
    "example nilpotent-square sl 4 --partition 2,2 --json",
    "example splitting sl 2 --sub 0,1 --complement 2",
    "example quasi-grading sl 2 --weights 1,0,1 --modulus 2 --json",
    "classify --algebra sl3.json --operator sl3-grading-op.json --json",
    "classify --algebra sl2.json --operator sl2-dense-op.json",
    "classify --algebra sl4-nilsquare-derived.json --operator sl4-nilsquare-op.json --json",
    "derive --algebra sl3.json --operator sl3-nilsquare-op.json --power 2 --json",
    "derive --algebra sl2.json --operator sl2-dense-op.json --out sl2-derived.json",
    "pencil --algebra sl2.json --operator sl2-grading-op.json",
    "pencil --algebra sl4.json --operator sl4-nilsquare-op.json --json",
    "index --algebra sl3.json --mode exact --json",
    "index --algebra sl4.json --seed 7 --samples 3 --json",
    "index --algebra sp4.json --mode exact --json",
    "index --algebra so4.json --mode exact --json",
    "index --algebra gl3.json --mode exact --json",
    "index --algebra sl2-rational.json --mode exact --json",
    "index --algebra sp4.json --seed 3 --json",
    "index --algebra sl2-rational.json --seed 3 --json",
    "torsion --algebra sl2.json --operator sl2-dense-op.json --json",
    "torsion --algebra sl3.json --operator sl3-grading-op.json --json",
    "torsion --algebra sl4.json --operator sl4-nilsquare-op.json --out sl4-torsion.json",
    "torsion --algebra sl2-quasi-extension.json --operator sl2-quasi-weight-op.json --json",
    "nijenhuis-check --algebra sl2.json --operator sl2-shear-op.json --json",
    "nijenhuis-check --algebra sl3.json --operator sl3-nilsquare-op.json --depth 2",
    "nijenhuis-check --algebra sl2.json --operator sl2-grading-op.json --json",
    "nijenhuis-check --algebra sl2.json --operator sl2-dense-op.json",
    "exp-check --algebra sl2.json --operator sl2-shear-op.json --kind nijenhuis --certified --json",
    "exp-check --algebra sl3.json --operator sl3-nilsquare-op.json --kind nijenhuis --points 1,-1/2",
    "exp-check --algebra sl2.json --operator sl2-grading-op.json --kind near --m -2 --points 2,1/3 --json",
    "exp-check --algebra sl3.json --operator sl3-nilsquare-op.json --kind near --m 0 --points 1,2/3",
    "exp-check --algebra sl3.json --operator sl3-grading-op.json --kind near --m -3 --points 2,-1 --json",
    "exp-check --algebra sl2.json --operator sl2-shear-op.json --kind near --m 0 --points 1",
    "pc-check --algebra sl3.json --operator sl3-nilsquare-op.json --json",
    "pc-check --algebra sl2.json --gamma 0,0,1",
    "report --algebra sl2.json --operator sl2-nilsquare-op.json --seed 3 --json",
    "report --algebra sl3.json --operator sl3-nilsquare-op.json --seed 11 --pc --json",
    "report --algebra sl4.json --operator sl4-nilsquare-op.json --seed 5",
    "report --algebra sl3.json --operator sl3-grading-op.json --seed 2 --json",
    "classify --algebra sl3.json --operator sl3-conjugated-op.json --json",
    "pencil --algebra sl3.json --operator sl3-conjugated-op.json --json",
    "report --algebra skew-nonlie.json --operator skew-nonlie-dense-op.json --seed 4 --json",
    "report --algebra graded-nonlie.json --operator graded-nonlie-weight-op.json --seed 4 --json",
    "pencil --algebra graded-nonlie.json --operator graded-nonlie-weight-op.json --json",
    "pencil --algebra sl2.json --operator sl2-dense-op.json",
    "pencil --algebra sl2.json --operator sl2-identity-op.json --json",
    "pencil --algebra affine2.json --operator affine2-op.json --json",
    "pc-check --algebra sl2.json --gamma 0,0,1 --seed-file sl2-seed-x0.json --json",
    "report --algebra sl2.json --operator sl2-nilsquare-op.json --seed 3 "
    "--seed-file sl2-seed-x0.json --json",
    "report --algebra sl2.json --operator sl2-nilsquare-op.json --gamma 1,0,1 --seed 3",
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_all(workdir):
    """Digests of every command's stdout and exit code, then of every file."""
    for name, doc in FILES.items():
        (workdir / name).write_text(json.dumps(doc))
    here = os.getcwd()
    os.chdir(workdir)
    try:
        commands = {}
        for line in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(line.split())
            commands[line] = {"exit": code,
                              "stdout_sha256": _sha(out.getvalue().encode())}
    finally:
        os.chdir(here)
    files = {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return {"commands": commands, "files": files}


def test_cli_output_is_byte_identical(tmp_path):
    got = run_all(tmp_path)
    want = json.loads(GOLDEN.read_text())
    moved = [line for line in COMMANDS if got["commands"][line] != want["commands"].get(line)]
    assert not moved, "output changed for: %s" % moved
    assert got["commands"].keys() == want["commands"].keys()
    assert got["files"] == want["files"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("recorded %d commands and %d files in %s"
          % (len(record["commands"]), len(record["files"]), GOLDEN), file=sys.stderr)
