"""Every command on generated well-formed files: exit 0, 1 or 2, and no traceback.

The inputs are small (dim 0-4) and valid as files, so each verdict comes
from the mathematics or from a refusal that names its input.  The algebra
is a random skew table (mostly not Lie) or sl2 plus an abelian part; the
operator is nilpotent, diagonal or dense; one or two seed polynomials of
degree at most 2 go in a seed file.  Thirteen command lines, every command
but `example`, run in process through `cli.main` with `--json`:

* the exit code is 0, 1 or 2, never 3 (an internal error);
* on 0 or 1, stdout is one JSON document and stderr is empty;
* on 2, stdout is empty and stderr is one `input error:` line.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from liepencil import cli
from liepencil import io as iomod
from liepencil.exact import RatMatrix, SparsePoly
from liepencil.tensors import StructureTensor

from paper_checks import save_seeds

# a smaller budget than the suite's profile: each example runs 13 commands
EXAMPLES = 30

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
SL2 = [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]


@st.composite
def algebras(draw):
    """A skew table on dim 0-4 basis vectors: random upper-triangle entries,
    or sl2 on the first three vectors and an abelian rest."""
    n = draw(st.integers(0, 4), label="dim")
    if n >= 3 and draw(st.booleans(), label="sl2"):
        entries = SL2
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        entries = [(i, j, k, draw(SMALL)) for i, j in pairs for k in range(n)
                   if draw(st.integers(0, 3)) == 0]
    table = {}
    for i, j, k, c in entries:
        if c:
            table.setdefault((i, j), {})[k] = Fraction(c)
            table.setdefault((j, i), {})[k] = -Fraction(c)
    return StructureTensor(n, table)


@st.composite
def operators(draw, n):
    kind = draw(st.sampled_from(["nilpotent", "diagonal", "dense"]), label="operator")
    if kind == "nilpotent":
        rows = [[draw(SMALL) if j > i else 0 for j in range(n)] for i in range(n)]
    elif kind == "diagonal":
        rows = [[draw(st.integers(-2, 2)) if j == i else 0 for j in range(n)]
                for i in range(n)]
    else:
        rows = [[draw(SMALL) for _ in range(n)] for _ in range(n)]
    return RatMatrix(rows) if n else RatMatrix.zero(0)


@st.composite
def seeds(draw, n):
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    return [SparsePoly(n, draw(st.dictionaries(exps, SMALL, max_size=3)))
            for _ in range(draw(st.integers(1, 2), label="seeds"))]


def command_lines(path, gamma):
    """The 13 command lines on the files path(name) names."""
    alg = ["--algebra", path("alg.json")]
    both = alg + ["--operator", path("op.json")]
    return [
        ["classify"] + both,
        ["derive"] + both + ["--power", "2", "--out", path("derived.json")],
        ["pencil"] + both,
        ["index"] + alg + ["--seed", "1"],
        ["index"] + alg + ["--mode", "exact"],
        ["torsion"] + both + ["--out", path("torsion.json")],
        ["nijenhuis-check"] + both,
        ["exp-check"] + both + ["--kind", "nijenhuis", "--certified"],
        ["exp-check"] + both + ["--kind", "near", "--m", "0", "--points", "1,-1/2"],
        ["pc-check"] + both + ["--seed-file", path("seeds.json")],
        ["pc-check"] + alg + ["--gamma", gamma],    # "-1,2" as a separate word too
        ["report"] + both + ["--seed", "1"],
        ["report"] + both + ["--seed", "1", "--pc"],
    ]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_every_command_exits_0_1_or_2_on_well_formed_files(data):
    tensor = data.draw(algebras())
    n = tensor.dim
    op = data.draw(operators(n))
    polys = data.draw(seeds(n))
    gamma = ",".join(str(data.draw(st.integers(-3, 3), label="gamma")) for _ in range(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: os.path.join(tmp, name)
        iomod.save_algebra(tensor, path("alg.json"))
        iomod.save_operator(op, path("op.json"))
        save_seeds(polys, path("seeds.json"))
        for argv in command_lines(path, gamma or "0"):
            code, out, err = run(argv)
            assert code in (0, 1, 2), (argv, err)
            if code == 2:
                assert out == "" and err.startswith("input error: "), (argv, err)
                assert err.count("\n") == 1, (argv, err)
            else:
                assert err == "", (argv, err)
                assert isinstance(json.loads(out), dict), argv
