"""JSON file formats and the command-line surface."""

from fractions import Fraction as F
import dataclasses
import json

import pytest

from liepencil.exact import DEGREE_CAP, RatMatrix, SparsePoly, parse_rat
from liepencil.constructions import build_classical
from liepencil.io import (
    ParseError, algebra_to_dict, algebra_from_dict, operator_to_dict,
    operator_from_dict, poly_from_list,
    seeds_from_dict, save_algebra, load_algebra, save_operator, load_operator,
    load_seeds,
)
from liepencil import cli, nijenhuis as nij, poisson as pois, tensors
from liepencil import io as iomod
from liepencil.cli import main
from liepencil.tensors import IdentityFailed, derived

from helpers import variable
from paper_checks import (build_gl_associative, poly_to_list, reference_N_properties,
                          save_seeds, seeds_to_dict)
from test_nijenhuis_oracle import torsion_kernel_draw


def sl2():
    return build_classical("sl", 2)


def test_algebra_round_trip(tmp_path):
    t = sl2()
    path = tmp_path / "alg.json"
    save_algebra(t, path, metadata={"family": "sl", "n": 2})
    back, meta = load_algebra(path)
    assert back == t
    assert back.labels == t.labels
    assert meta == {"family": "sl", "n": 2}
    # writing the same document twice is byte-identical
    save_algebra(t, tmp_path / "again.json", metadata={"family": "sl", "n": 2})
    assert (tmp_path / "alg.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_algebra_save_refuses_non_skew(tmp_path):
    with pytest.raises(ValueError):
        algebra_to_dict(build_gl_associative(2))


def test_operator_round_trip(tmp_path):
    m = RatMatrix([[F(1, 3), F(0)], [F(-5, 2), F(7)]])
    path = tmp_path / "op.json"
    save_operator(m, path)
    assert load_operator(path) == m
    doc = operator_to_dict(m)
    assert doc["matrix"][0][0] == "1/3"
    assert doc["matrix"][1] == ["-5/2", "7"]


def test_write_json_writes_what_json_dump_streams(tmp_path):
    # one write of the dumped text: the bytes of json.dump(doc, fp, indent=2)
    # and a newline, for every kind of file, non-ASCII labels escaped alike
    algebra = algebra_to_dict(sl2(), metadata={"family": "sl"})
    labelled = dict(algebra, basis=["e\u0303", "h", "f\u00e9"])
    x = [variable(3, i) for i in range(3)]
    seeds = seeds_to_dict([x[1] * x[1] + SparsePoly.const(3, F(4, 3)) * x[0] * x[2], x[0]])
    operator = operator_to_dict(RatMatrix([[F(1, 3), F(0)], [F(-5, 2), F(7)]]))
    for k, doc in enumerate([algebra, labelled, operator, seeds]):
        path, want = tmp_path / ("%d.json" % k), tmp_path / ("%d-dump.json" % k)
        iomod._write_json(doc, path)
        with open(want, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2)
            fp.write("\n")
        assert path.read_bytes() == want.read_bytes()


def test_poly_and_seed_round_trip(tmp_path):
    x0 = variable(3, 0)
    x1 = variable(3, 1)
    c = x1 * x1 + SparsePoly.const(3, 4) * x0 * variable(3, 2)
    data = poly_to_list(c)
    assert poly_from_list(3, data) == c
    path = tmp_path / "seeds.json"
    save_seeds([c, x0], path)
    assert load_seeds(path, 3) == [c, x0]


def test_parse_errors():
    t = sl2()
    doc = algebra_to_dict(t)

    missing = dict(doc)
    del missing["dim"]
    with pytest.raises(ParseError):
        algebra_from_dict(missing)

    bad_rat = json.loads(json.dumps(doc))
    bad_rat["brackets"][0]["coeffs"] = {"0": "one"}
    with pytest.raises(ParseError) as exc:
        algebra_from_dict(bad_rat)
    assert "brackets[0]" in str(exc.value)

    bad_index = json.loads(json.dumps(doc))
    bad_index["brackets"][0]["j"] = 99
    with pytest.raises(ParseError):
        algebra_from_dict(bad_index)

    dup = json.loads(json.dumps(doc))
    dup["brackets"].append(dict(dup["brackets"][0]))
    with pytest.raises(ParseError):
        algebra_from_dict(dup)

    short_basis = json.loads(json.dumps(doc))
    short_basis["basis"] = ["a"]
    with pytest.raises(ParseError):
        algebra_from_dict(short_basis)


def test_operator_parse_errors():
    with pytest.raises(ParseError):
        operator_from_dict({"dim": 2, "matrix": [["1", "2"], ["3"]]})
    with pytest.raises(ParseError):
        operator_from_dict({})
    with pytest.raises(ParseError):
        operator_from_dict({"dim": True, "matrix": [["1"]]})


def run(args):
    return main(list(args))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cli_example_and_classify(workdir, capsys):
    assert run(["example", "sl", "2"]) == 0
    assert run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"]) == 0
    capsys.readouterr()
    code = run(["classify", "--algebra", "sl2.json",
                "--operator", "sl2-grading-op.json", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["tag"] == "near"
    assert (doc["a"], doc["b"]) == ("0", "-2")
    assert doc["mode"] == "semisimple"
    assert doc["degenerate_lines"] == 2
    assert all(doc["jacobi_checks"].values())


def test_cli_pencil_and_index(workdir, capsys):
    run(["example", "sl", "2"])
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    assert run(["pencil", "--algebra", "sl2.json",
                "--operator", "sl2-grading-op.json", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == ["0", "-2"]
    assert all(m["lie"] for m in doc["members"])
    assert run(["index", "--algebra", "sl2.json", "--mode", "exact", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["dim"], doc["rank"], doc["index"]) == (3, 2, 1)


def test_cli_nijenhuis_exit_code(workdir, capsys):
    run(["example", "sl", "2"])
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    code = run(["nijenhuis-check", "--algebra", "sl2.json",
                "--operator", "sl2-grading-op.json", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["nijenhuis"] is False
    assert doc["witness"] == [0, 2]


def test_cli_exp_check(workdir, capsys):
    run(["example", "sl", "2"])
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    code = run(["exp-check", "--algebra", "sl2.json",
                "--operator", "sl2-grading-op.json",
                "--kind", "near", "--m", "-2", "--points", "2,3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_cli_exp_check_near_derives_once(workdir, capsys, monkeypatch):
    # T' and T'' are built once per command, not once per point
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    calls = []

    def counted(tensor, op):
        calls.append(op)
        return derived(tensor, op)
    monkeypatch.setattr(tensors, "derived", counted)
    monkeypatch.setattr(nij, "derived", counted)
    assert run(["exp-check", "--algebra", "sl2.json", "--operator", "sl2-grading-op.json",
                "--kind", "near", "--m", "-2", "--points", "2,3,1/2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points_checked"] == ["2", "3", "1/2"] and doc["precondition_ok"]
    assert len(calls) == 2


def test_cli_pc_check(workdir, capsys):
    run(["example", "sl", "2"])
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    code = run(["pc-check", "--algebra", "sl2.json",
                "--operator", "sl2-grading-op.json", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutes"] is True
    assert len(doc["generators"]) == 2
    code = run(["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutes"] is True


def test_cli_pc_check_checks_a_file_seed_after_a_central_one(workdir, capsys):
    # a --seed-file seed is checked whatever stands before it, and the
    # witness counts the whole file: the Casimir is central, e = x0 is not,
    # and {x1, x0} = {h, e} = 2e is the first bracket that fails
    run(["example", "sl", "2"])
    x0 = variable(3, 0)
    casimir = variable(3, 1) * variable(3, 1) + SparsePoly.const(3, 4) * x0 * variable(3, 2)
    save_seeds([casimir, x0], workdir / "seeds.json")
    capsys.readouterr()
    code = run(["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1",
                "--seed-file", "seeds.json", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["seed_index"], doc["witness_generator"]) == (1, 1)


def test_cli_checks_exactly_the_file_seeds(workdir, capsys, monkeypatch):
    # centre candidates are central by the search's proof, so only a
    # --seed-file's seeds reach `check_central`: once, all of them, in order
    checked, check = [], pois.check_central
    monkeypatch.setattr(pois, "check_central",
                        lambda struct, seeds: checked.append(list(seeds)) or check(struct, seeds))
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    x = [variable(3, i) for i in range(3)]
    casimir = x[1] * x[1] + SparsePoly.const(3, 4) * x[0] * x[2]
    seeds = [casimir * casimir, casimir, SparsePoly.const(3, 3)]
    save_seeds(seeds, workdir / "seeds.json")
    lift = ["--algebra", "sl2.json", "--operator", "sl2-grading-op.json"]
    assert json.loads(run_json(["classify"] + lift, capsys))["tag"] == "near"
    for argv in (["pc-check", "--algebra", "sl2.json", "--gamma", "1,2,3"],
                 ["pc-check"] + lift, ["report", "--pc"] + lift):
        run_json(argv, capsys)
        assert checked == []
    for argv in (["pc-check"] + lift, ["report"] + lift):
        run_json(argv + ["--seed-file", "seeds.json"], capsys)
        assert checked == [seeds]
        checked.clear()


def test_cli_builds_the_poisson_form_only_for_its_readers(workdir, capsys, monkeypatch):
    # `from_tensor`'s form is read by `check_central` (--seed-file seeds) and
    # by `pc_verify` (a not-near lift) alone, and built once when one reads it
    built, build = [], pois.from_tensor
    monkeypatch.setattr(pois, "from_tensor", lambda tensor: built.append(tensor) or build(tensor))
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    run(["example", "sl", "3"])
    x = [variable(3, i) for i in range(3)]
    save_seeds([x[1] * x[1] + SparsePoly.const(3, 4) * x[0] * x[2]], workdir / "seeds.json")
    # a sparse not-near operator on sl3, as in test_pc_theorem
    rows = [[0] * 8 for _ in range(8)]
    rows[6][0] = rows[7][5] = rows[7][6] = 1
    save_operator(RatMatrix(rows), workdir / "op.json")
    lift = ["--algebra", "sl2.json", "--operator", "sl2-grading-op.json"]
    assert json.loads(run_json(["classify"] + lift, capsys))["tag"] == "near"
    for argv, code, builds in [
            (["pc-check", "--algebra", "sl2.json", "--gamma", "1,2,3"], 0, 0),
            (["pc-check"] + lift, 0, 0),
            (["report", "--pc"] + lift, 0, 0),
            (["pc-check", "--seed-file", "seeds.json"] + lift, 0, 1),
            (["pc-check", "--algebra", "sl3.json", "--operator", "op.json"], 1, 1)]:
        built.clear()
        capsys.readouterr()
        assert run(argv + ["--json"]) == code
        assert len(built) == builds, argv


def run_json(argv, capsys):
    """stdout of a --json run that exits 0."""
    capsys.readouterr()
    assert run(argv + ["--json"]) == 0
    return capsys.readouterr().out


def test_cli_report(workdir, capsys):
    assert run(["example", "nilpotent-square", "sl", "2", "--partition", "2"]) == 0
    capsys.readouterr()
    code = run(["report", "--algebra", "sl2.json",
                "--operator", "sl2-nilsquare-op.json", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["ok"] for c in doc["checks"])
    assert doc["diagnostics"]["derived_lower_central_series"] == [3, 1, 0]


def test_cli_input_errors(workdir, capsys):
    (workdir / "broken.json").write_text("{not json")
    assert run(["classify", "--algebra", "broken.json",
                "--operator", "broken.json"]) == 2
    run(["example", "sl", "2"])
    run(["example", "sl", "3"])
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    # operator dimension does not match the algebra
    assert run(["classify", "--algebra", "sl3.json",
                "--operator", "sl2-grading-op.json"]) == 2


@pytest.mark.parametrize("doc, field", [
    ({"dim": 2, "basis": ["a", "b"],
      "brackets": [{"i": 0, "j": 1, "coeffs": ["1"]}]}, "brackets[0].coeffs"),
    ({"dim": True, "basis": ["a"], "brackets": []}, "algebra.dim"),
    ({"dim": 2, "basis": ["a", "b"], "brackets": {"x": 1}}, "algebra.brackets"),
    ({"dim": 2, "basis": [1, {"a": 2}], "brackets": []}, "algebra.basis"),
    ({"dim": 2, "basis": ["a", "a"], "brackets": []}, "algebra.basis"),
    # rationals are strings: a JSON number may have passed through a float
    ({"dim": 2, "basis": ["a", "b"],
      "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1.5}}]}, "brackets[0].coeffs"),
    ({"dim": 2, "basis": ["a", "b"],
      "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 2}}]}, "brackets[0].coeffs"),
], ids=["coeffs-list", "dim-bool", "brackets-object", "basis-not-strings",
        "basis-duplicate", "coeff-float", "coeff-int"])
def test_cli_bad_algebra_field_exits_2(workdir, capsys, doc, field):
    (workdir / "bad.json").write_text(json.dumps(doc))
    assert run(["index", "--algebra", "bad.json"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("name, doc, argv, field", [
    ("op.json", {"dim": 3, "matrix": [[1, 0, 0], ["0", "0", "0"], ["0", "0", "0"]]},
     ["classify", "--algebra", "sl2.json", "--operator", "op.json"], "operator.matrix[0]"),
    # the sl2 Casimir h^2 + 4ef, central, with its coefficients as JSON numbers
    ("seeds.json", {"seeds": [[{"exponents": [0, 2, 0], "coeff": 1},
                               {"exponents": [1, 0, 1], "coeff": 4}]]},
     ["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--seed-file", "seeds.json"],
     "seeds[0][0].coeff"),
], ids=["operator-matrix", "seed-coeff"])
def test_cli_number_as_rational_exits_2(workdir, capsys, name, doc, argv, field):
    run(["example", "sl", "2"])
    (workdir / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["index", "--algebra", "sl2.json", "--samples", "0"], "samples"),
    (["index", "--algebra", "sl2.json", "--samples", "-1"], "samples"),
    (["nijenhuis-check", "--algebra", "sl2.json", "--operator", "sl2-nilsquare-op.json",
      "--depth", "0"], "depth"),
    (["nijenhuis-check", "--algebra", "sl2.json", "--operator", "sl2-nilsquare-op.json",
      "--depth", "-1"], "depth"),
    # --power counts derivations and may be 0, but not below
    (["derive", "--algebra", "sl2.json", "--operator", "sl2-nilsquare-op.json",
      "--power", "-1"], "--power must be at least 0, got -1"),
], ids=["samples-0", "samples-negative", "depth-0", "depth-negative", "power-negative"])
def test_cli_count_below_one_exits_2(workdir, capsys, argv, name):
    # a count of zero would check nothing and still report a verdict
    run(["example", "nilpotent-square", "sl", "2", "--partition", "2"])
    capsys.readouterr()
    assert run(argv) == 2
    assert name in capsys.readouterr().err


SKEW_NONLIE = {"dim": 4, "basis": ["p", "q", "z", "t"],
               "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                            {"i": 0, "j": 3, "coeffs": {"0": "1/2"}},
                            {"i": 1, "j": 3, "coeffs": {"1": "-1/2", "2": "3"}},
                            {"i": 2, "j": 3, "coeffs": {"0": "2/3"}}]}
SL2_OP = ["--algebra", "sl2.json", "--operator", "sl2-grading-op.json"]
# the nilpotent shear h -> e on sl2 (basis e, h, f), which is not diagonal
SHEAR = RatMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
SHEAR_OP = ["--algebra", "sl2.json", "--operator", "sl2-shear-op.json"]


@pytest.mark.parametrize("argv, name", [
    (["example", "gl", "x"], " N "),
    (["example", "gl", "-1"], " N "),
    (["example", "grading", "sl", "-2", "--weights", "1,0,1", "--modulus", "2"], " N "),
    (["example", "gl", "3", "4"], " N"),
    (["example", "grading", "sl", "2", "--modulus", "2"], "--weights"),
    (["example", "grading", "sl", "2", "--weights", "1,0,1"], "--modulus"),
    (["example", "nilpotent-square", "sl", "2"], "--partition"),
    (["example", "splitting", "sl", "2", "--complement", "2"], "--sub"),
    (["example", "splitting", "sl", "2", "--sub", "0,1"], "--complement"),
    (["example", "quasi-grading", "sl", "2", "--modulus", "2"], "--weights"),
    (["example", "bogus"], "bogus"),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--points", "2"], "--m"),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--m", "-2"], "--points"),
    (["exp-check"] + SL2_OP + ["--kind", "nijenhuis"], "--certified"),
    (["pc-check", "--algebra", "sl2.json"], "--gamma"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,1"], "--gamma"),
    (["index", "--algebra", "skew-nonlie.json"], "--algebra"),
    (["example", "grading", "sl", "3", "--weights", "0,1", "--modulus", "3"], "--weights"),
    (["example", "quasi-grading", "sl", "3", "--weights", "0,1", "--modulus", "3"],
     "--weights"),
    (["example", "so", "\u0663"], " N "),
    (["example", "so", "0_1"], " N "),
    (["example", "grading", "sl", "2", "--weights", "1,\u0660,1", "--modulus", "2"],
     "--weights"),
    (["example", "nilpotent-square", "sl", "3", "--partition", "2,\u06601"], "--partition"),
    (["report"] + SL2_OP + ["--gamma", "0,1"], "--gamma"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--operator", "no-such-file.json"],
     "--gamma or --operator"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--operator", "dim4-op.json"],
     "--gamma or --operator"),
    (["exp-check"] + SL2_OP + ["--kind", "nijenhuis", "--certified", "--points", "0"],
     "exactly one of --points and --certified"),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--m", "-2", "--points", "2", "--certified"],
     "--certified applies to --kind nijenhuis"),
    (["exp-check"] + SL2_OP + ["--kind", "nijenhuis", "--m", "0", "--points", "1"],
     "--m applies to --kind near"),
    (["exp-check"] + SL2_OP + ["--kind", "nijenhuis", "--points", "1"],
     "--operator must be nilpotent for --kind nijenhuis"),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--m", "0", "--points", "1"],
     "--operator must be nilpotent for --kind near --m 0"),
    (["exp-check"] + SHEAR_OP + ["--kind", "near", "--m", "-2", "--points", "2"],
     "--operator must be diagonal for a nonzero --m"),
    (["exp-check", "--algebra", "sl2.json", "--operator", "half-op.json", "--kind", "near",
      "--m", "-2", "--points", "2"], "--operator must have integer diagonal entries"),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--m", "-2", "--points", "2,0"],
     "--points must be nonzero for a nonzero --m"),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--m", "-2", "--points", "1,x"],
     "cannot parse --points '1,x'"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "1,y,2"],
     "cannot parse --gamma covector '1,y,2'"),
    (["index", "--algebra", "sl2.json", "--mode", "exact", "--samples", "0"],
     "--samples must be at least 1, got 0"),
    (["index", "--algebra", "sl2.json", "--samples", "0"], "--samples must be at least 1"),
    (["index", "--algebra", "sl2.json", "--max-exact-dim", "-1"],
     "--max-exact-dim must be at least 0, got -1"),
    (["nijenhuis-check"] + SL2_OP + ["--depth", "0"], "--depth must be at least 1, got 0"),
    (["report"] + SL2_OP + ["--max-exact-dim", "-3"],
     "--max-exact-dim must be at least 0, got -3"),
    (["report"] + SL2_OP + ["--gamma="], "--gamma needs a value"),
    (["report"] + SL2_OP + ["--seed-file="], "--seed-file needs a value"),
    (["pc-check", "--algebra", "sl2.json", "--operator", "sl2-grading-op.json", "--seed-file="],
     "--seed-file needs a value"),
    (["derive"] + SL2_OP + ["--out="], "--out needs a value"),
    (["example", "sl", "2", "--out-dir="], "--out-dir needs a value"),
    (["classify", "--algebra=", "--operator", "sl2-grading-op.json"], "--algebra needs a value"),
    (["index", "--algebra", "sl2.json", "--mode", "exact", "--max-exact-dim", "2"],
     "--max-exact-dim: exact-symbolic index refused above dimension 2; "
     "--algebra has dimension 3"),
], ids=["N-not-integer", "N-negative", "grading-N-negative", "N-twice",
        "grading-no-weights", "grading-no-modulus", "nilpotent-square-no-partition",
        "splitting-no-sub", "splitting-no-complement", "quasi-grading-no-weights",
        "unknown-example", "near-no-m", "near-no-points", "nijenhuis-no-points",
        "pc-check-no-operator", "pc-check-gamma-length", "index-not-lie",
        "grading-weight-count", "quasi-grading-weight-count", "N-arabic-indic-digit",
        "N-underscore", "weights-arabic-indic-digit", "partition-arabic-indic-digit",
        "report-gamma-length", "pc-check-gamma-and-missing-operator",
        "pc-check-gamma-and-wrong-dimension-operator", "nijenhuis-certified-and-points",
        "near-certified", "nijenhuis-m", "nijenhuis-not-nilpotent", "near-m0-not-nilpotent",
        "near-not-diagonal", "near-diagonal-not-integer", "near-zero-point",
        "points-not-rational", "gamma-not-rational",
        "index-exact-samples-0", "index-samples-0", "index-max-exact-dim-negative",
        "nijenhuis-depth-0", "report-max-exact-dim-negative", "report-empty-gamma",
        "report-empty-seed-file", "pc-check-empty-seed-file", "derive-empty-out",
        "example-empty-out-dir", "classify-empty-algebra", "index-exact-above-cap"])
def test_cli_input_error_names_the_argument(workdir, capsys, argv, name):
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    (workdir / "skew-nonlie.json").write_text(json.dumps(SKEW_NONLIE))
    (workdir / "dim4-op.json").write_text(json.dumps(operator_to_dict(RatMatrix.identity(4))))
    (workdir / "sl2-shear-op.json").write_text(json.dumps(operator_to_dict(SHEAR)))
    (workdir / "half-op.json").write_text(json.dumps(operator_to_dict(
        RatMatrix.diagonal([F(1, 2), 0, F(1, 2)]))))
    capsys.readouterr()
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert name in err


def test_cli_pc_check_gamma_on_sl4_at_degree_4(workdir, capsys):
    # the argument-shift family of the four centre candidates of S(sl4) up
    # to degree 4 (C2, C3, C2^2, C4) and their directional derivatives
    assert run(["example", "sl", "4"]) == 0
    capsys.readouterr()
    gamma = "1,-2,3,0,1,2,-1,1,0,3,-2,1,2,1,-1"
    assert run(["pc-check", "--algebra", "sl4.json", "--gamma=" + gamma,
                "--degree-bound", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutes"] and doc["witness"] is None
    assert doc["family_size"] == len(doc["generators"]) == 13
    assert sorted({p.split(":")[0] for p in doc["provenance"]}) == [
        "seed0", "seed1", "seed2", "seed3"]


def test_cli_report_gamma_runs_the_family_check(workdir, capsys):
    # --gamma alone starts the family check, as --pc and --seed-file do
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    assert run(["report"] + SL2_OP + ["--gamma", "0,0,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    gates = [c for c in doc["checks"] if c["name"] == "pc-family-commutes"]
    assert len(gates) == 1
    assert gates[0]["ok"] is True
    assert gates[0]["operator"] == "directional"


# an empty basis gives a 0-dimensional algebra: the output of the per-pair
# solve, recorded byte for byte
EMPTY_ALGEBRA = ('{\n  "dim": 0,\n  "basis": [],\n  "brackets": [],\n'
                 '  "metadata": {\n    "family": "%s"\n  }\n}\n')


@pytest.mark.parametrize("family, n", [("gl", "0"), ("so", "0"), ("so", "1"), ("sp", "0")])
def test_cli_empty_example_output(workdir, capsys, family, n):
    assert run(["example", family, n]) == 0
    name = "%s%s.json" % (family, n)
    assert capsys.readouterr().out == "written: [./%s]\n" % name
    assert (workdir / name).read_bytes() == (EMPTY_ALGEBRA % family).encode()
    assert run(["example", family, n, "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "written": [\n    "./%s"\n  ]\n}\n' % name


def test_cli_exp_check_on_the_empty_algebra(workdir, capsys):
    # the 0 x 0 operator is zero, hence nilpotent, and one point certifies
    (workdir / "empty.json").write_text(json.dumps({"dim": 0, "basis": [], "brackets": []}))
    (workdir / "empty-op.json").write_text(json.dumps({"dim": 0, "matrix": []}))
    assert run(["exp-check", "--algebra", "empty.json", "--operator", "empty-op.json",
                "--kind", "nijenhuis", "--certified", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["ok"], doc["points_checked"]) == (True, ["0"])


def test_cli_nijenhuis_check_names_the_incompatible_pair(workdir, capsys, monkeypatch):
    run(["example", "nilpotent-square", "sl", "2", "--partition", "2"])
    capsys.readouterr()
    argv = ["nijenhuis-check", "--algebra", "sl2.json", "--operator", "sl2-nilsquare-op.json",
            "--json"]
    assert run(argv) == 0
    assert "compat_witness" not in json.loads(capsys.readouterr().out)
    real = cli.nij.check_N_properties

    def incompatible(tensor, op, depth):
        rep = real(tensor, op, depth=depth)
        return dataclasses.replace(rep, pairwise_compatible=False, compat_witness=(0, 2),
                                   ok=False)
    monkeypatch.setattr(cli.nij, "check_N_properties", incompatible)
    assert run(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert list(doc)[-3:] == ["pairwise_compatible", "compat_witness", "ok"]
    assert (doc["pairwise_compatible"], doc["compat_witness"], doc["ok"]) == (False, [0, 2], False)


def test_cli_nijenhuis_check_scans_the_iterates_of_a_tensor_that_is_not_lie(workdir, capsys):
    # a skew T with tau_N(T) = 0 for N = L_A on gl2 that fails Jacobi: the
    # command's document is the one the per-power loop computes
    tensor, op = torsion_kernel_draw(0)
    save_algebra(tensor, workdir / "kernel.json")
    save_operator(op, workdir / "kernel-op.json")
    assert run(["nijenhuis-check", "--algebra", "kernel.json", "--operator", "kernel-op.json",
                "--depth", "2", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    ref = reference_N_properties(tensor, op, 2)
    want = {"nijenhuis": True, "witness": None, "depth": 2,
            "powers": [dataclasses.asdict(st) for st in ref.steps],
            "pairwise_compatible": False, "compat_witness": list(ref.compat_witness), "ok": False}
    assert json.dumps(doc) == json.dumps(want)     # the key order too
    assert [p["iterate_is_lie"] for p in doc["powers"]] == [False, False]


@pytest.mark.parametrize("exc", [IdentityFailed("guard broke"),
                                 ArithmeticError("inexact polynomial division"),
                                 KeyError("two\nlines")],
                         ids=["identity-failed", "arithmetic-error", "key-error"])
def test_cli_unexpected_exception_exits_3(workdir, capsys, monkeypatch, exc):
    run(["example", "sl", "2"])
    capsys.readouterr()

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_index", broken)
    assert run(["index", "--algebra", "sl2.json"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and type(exc).__name__ in err


def test_cli_seed_env(workdir, capsys, monkeypatch):
    run(["example", "sl", "2"])
    capsys.readouterr()
    monkeypatch.setenv("LIEPENCIL_SEED", "not-a-number")
    assert run(["index", "--algebra", "sl2.json"]) == 2
    monkeypatch.setenv("LIEPENCIL_SEED", "17")
    assert run(["index", "--algebra", "sl2.json", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 1


def test_parse_rat_grammar():
    assert parse_rat(" -6/4 ") == F(-3, 2)
    assert parse_rat("+7") == 7
    assert parse_rat("0/5") == 0
    for text in ["1e400", "1.5", "1_0", "١", "１/2", "1/2e3", "1/-2",
                 "0x10", ".5", "1/", "/2", "1 / 2", "- 1", "", "inf", "nan"]:
        with pytest.raises(ValueError):
            parse_rat(text)
    with pytest.raises(ZeroDivisionError):
        parse_rat("1/0")


# a rational is "p" or "p/q"; Fraction would also read decimals, exponents
# (Fraction("1e10000000") builds a ten-million-digit integer), underscores
# and non-ASCII digits
OUTSIDE_THE_GRAMMAR = ["1e400", "1.5", "1_0", "١", "2/1e3", " 1/2/3"]


@pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR,
                         ids=["exponent", "decimal", "underscore", "arabic-indic-digit",
                              "exponent-denominator", "two-slashes"])
def test_cli_rational_outside_the_grammar_exits_2(workdir, capsys, text):
    run(["example", "sl", "2"])
    doc = {"dim": 2, "basis": ["a", "b"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"1": text}}]}
    (workdir / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["index", "--algebra", "bad.json"]) == 2
    assert "brackets[0].coeffs" in capsys.readouterr().err
    assert run(["pc-check", "--algebra", "sl2.json", "--gamma", "0,0," + text]) == 2
    assert "covector" in capsys.readouterr().err


def test_cli_seed_entry_not_a_list_exits_2(workdir, capsys):
    run(["example", "sl", "2"])
    (workdir / "seeds.json").write_text(json.dumps({"seeds": [5]}))
    capsys.readouterr()
    assert run(["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1",
                "--seed-file", "seeds.json"]) == 2
    assert "seeds[0]" in capsys.readouterr().err


def test_cli_repeated_calls_in_one_process(workdir, capsys):
    # main reuses one parser per process; no call may leave state behind
    assert cli.build_parser() is cli.build_parser()
    run(["example", "sl", "2"])
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    classify = ("classify", "--algebra", "sl2.json", "--operator", "sl2-grading-op.json",
                "--json")
    index = ("index", "--algebra", "sl2.json", "--samples", "3", "--seed", "5")
    pencil = ("pencil", "--algebra", "sl2.json", "--operator", "sl2-grading-op.json")
    bad_flag = ("index", "--algebra", "sl2.json", "--no-such-flag")

    def call(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    seen = {}
    for argv in (classify, index, bad_flag, classify, pencil, bad_flag, index,
                 classify, pencil, index, bad_flag):
        seen.setdefault(argv, []).append(call(argv))
    assert {argv: len(set(results)) for argv, results in seen.items()} == dict.fromkeys(seen, 1)
    assert {argv: results[0][0] for argv, results in seen.items()} == {
        classify: 0, index: 0, pencil: 0, bad_flag: 2}


# every integer the CLI reads follows one rule: an optional sign and ASCII
# digits; int() would also read underscores and non-ASCII digits
NILSQUARE_SL2 = ["--algebra", "sl2.json", "--operator", "sl2-nilsquare-op.json"]


@pytest.mark.parametrize("argv, option", [
    (["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "0_2"], "--modulus"),
    (["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "٢"],
     "--modulus"),
    (["derive"] + NILSQUARE_SL2 + ["--power", "٢"], "--power"),
    (["index", "--algebra", "sl2.json", "--samples", "١"], "--samples"),
    (["index", "--algebra", "sl2.json", "--seed", "1_7"], "--seed"),
    (["index", "--algebra", "sl2.json", "--mode", "exact", "--max-exact-dim", "1_2"],
     "--max-exact-dim"),
    (["nijenhuis-check"] + NILSQUARE_SL2 + ["--depth", "٢"], "--depth"),
    (["exp-check"] + NILSQUARE_SL2 + ["--kind", "near", "--points", "1", "--m", "٠"],
     "--m"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--degree-bound", "٢"],
     "--degree-bound"),
    (["report"] + NILSQUARE_SL2 + ["--seed", "٣"], "--seed"),
    (["report"] + NILSQUARE_SL2 + ["--max-exact-dim", "١٢"], "--max-exact-dim"),
    (["report"] + NILSQUARE_SL2 + ["--pc", "--degree-bound", "0_2"], "--degree-bound"),
], ids=["modulus-underscore", "modulus-arabic-indic-digit", "power", "samples", "index-seed",
        "index-max-exact-dim", "depth", "m", "degree-bound", "report-seed",
        "report-max-exact-dim", "report-degree-bound"])
def test_cli_integer_option_outside_the_rule_exits_2(workdir, capsys, argv, option):
    run(["example", "nilpotent-square", "sl", "2", "--partition", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        "error: argument %s: invalid int value: %r" % (option, argv[-1]))


@pytest.mark.parametrize("raw", ["٣", "1_7", "1.0"],
                         ids=["arabic-indic-digit", "underscore", "decimal"])
def test_cli_seed_env_outside_the_rule_exits_2(workdir, capsys, monkeypatch, raw):
    run(["example", "sl", "2"])
    capsys.readouterr()
    monkeypatch.setenv("LIEPENCIL_SEED", raw)
    assert run(["index", "--algebra", "sl2.json"]) == 2
    assert capsys.readouterr().err == (
        "input error: LIEPENCIL_SEED must be an integer, got %r\n" % raw)


def test_cli_integer_rule_keeps_signs_and_spaces(workdir, capsys, monkeypatch):
    run(["example", "sl", "2"])
    capsys.readouterr()
    monkeypatch.setenv("LIEPENCIL_SEED", " +17 ")
    assert run(["index", "--algebra", "sl2.json", "--samples", " 3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 3


def test_cli_report_gamma_is_read_on_a_non_lie_algebra(workdir, capsys):
    # the family check is skipped on a non-Lie algebra, but --gamma is still read
    (workdir / "skew-nonlie.json").write_text(json.dumps(SKEW_NONLIE))
    save_operator(RatMatrix.identity(4), workdir / "id4.json")
    base = ["report", "--algebra", "skew-nonlie.json", "--operator", "id4.json"]
    assert run(base + ["--gamma", "0,1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: --gamma covector has 2 entries, "
                   "the algebra has dimension 4\n")
    assert run(base + ["--gamma", "0,1,x,0"]) == 2
    assert "covector" in capsys.readouterr().err
    assert run(base + ["--gamma", "0,0,0,1", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["checks"] if not c["ok"]] == ["input-lie"]
    assert "pc-family-commutes" not in [c["name"] for c in doc["checks"]]


@pytest.mark.parametrize("coeffs", [{"٠": "1"}, {" 0_0 ": "1"}, {"0": "-2", "00": "5"},
                                    {"1": "0", "01": "3"}, {"+1": "1"}],
                         ids=["arabic-indic-digit", "underscore-and-spaces", "repeated-index",
                              "repeated-index-after-zero", "sign"])
def test_algebra_coefficient_keys_are_ascii_digits(workdir, capsys, coeffs):
    doc = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": coeffs}]}
    with pytest.raises(ParseError) as exc:
        algebra_from_dict(doc)
    assert exc.value.context == "brackets[0].coeffs"
    (workdir / "bad.json").write_text(json.dumps(doc))
    assert run(["index", "--algebra", "bad.json"]) == 2
    assert "brackets[0].coeffs" in capsys.readouterr().err


# `example nilpotent-square` reads the family and N before the partition, as
# it did when it built the algebra before the triple
@pytest.mark.parametrize("params, message", [
    (["gl", "3", "--partition", "2,1"],
     "FAMILY: triples are built for sl only; supply e, h, f directly"),
    (["so", "3", "--partition", "2,1"],
     "FAMILY: triples are built for sl only; supply e, h, f directly"),
    (["xx", "3", "--partition", "2,1"], "FAMILY: unknown family 'xx'"),
    (["sp", "3", "--partition", "2,1"], "N: sp needs even size"),
    (["sl", "3", "--partition", "3"],
     "--partition: partition [3] exceeds the height criterion (parts <= 2)"),
    (["sl", "3", "--partition", "2,2"], "--partition: partition [2, 2] does not sum to 3"),
    (["sl", "1", "--partition", "1"], "N: sl needs n >= 2"),
    (["sl", "0", "--partition", "0"], "N: sl needs n >= 2"),
], ids=["gl", "so", "unknown-family", "sp-odd", "height", "sum", "sl1", "sl0"])
def test_cli_nilpotent_square_input_errors(workdir, capsys, params, message):
    assert run(["example", "nilpotent-square"] + params) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: %s\n" % message
    assert list(workdir.iterdir()) == []


# the other examples name FAMILY, N, --sub and --complement as nilpotent-square does
@pytest.mark.parametrize("params, message", [
    (["sl", "1"], "N: sl needs n >= 2"),
    (["sp", "3"], "N: sp needs even size"),
    (["grading", "xx", "3", "--weights", "0", "--modulus", "2"], "FAMILY: unknown family 'xx'"),
    (["grading", "sl", "1", "--weights", "0", "--modulus", "2"], "N: sl needs n >= 2"),
    (["quasi-grading", "sp", "3", "--weights", "0", "--modulus", "2"], "N: sp needs even size"),
    (["splitting", "xx", "2", "--sub", "0,1", "--complement", "2"], "FAMILY: unknown family 'xx'"),
    (["splitting", "sl", "2", "--sub", "0,5", "--complement", "1,2"],
     "--sub/--complement: index sets do not partition the basis"),
    (["splitting", "sl", "2", "--sub", "0,1", "--complement", "1,2"],
     "--sub/--complement: index sets do not partition the basis"),
    (["splitting", "sl", "2", "--sub", "0,2", "--complement", "1"],
     "--sub: part [0, 2] is not a subalgebra"),
    (["splitting", "sl", "2", "--sub", "1", "--complement", "2,0"],
     "--complement: part [0, 2] is not a subalgebra"),
    # --out-dir is made at the first write, so a refused example leaves none
    (["bogus", "--out-dir", "out/sub"], "unknown example 'bogus'"),
    (["sl", "x", "--out-dir", "out/sub"], "N must be an integer >= 0, got 'x'"),
    (["nilpotent-square", "sl", "3", "--out-dir", "out/sub"],
     "nilpotent-square needs --partition"),
], ids=["sl1", "sp-odd", "grading-family", "grading-n", "quasi-grading-n", "splitting-family",
        "splitting-outside", "splitting-overlap", "splitting-sub", "splitting-complement",
        "out-dir-unknown-name", "out-dir-bad-N", "out-dir-no-partition"])
def test_cli_example_input_errors_name_their_argument(workdir, capsys, params, message):
    assert run(["example"] + params) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: %s\n" % message
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("name", ["grading", "quasi-grading"])
@pytest.mark.parametrize("params, message", [
    (["--weights", "1,0,1", "--modulus", "0"], "--modulus must be at least 1, got 0"),
    (["--weights", "1,0,1", "--modulus", "-1"], "--modulus must be at least 1, got -1"),
    (["--weights", "1,0,3", "--modulus", "2"], "--weights: periodic weights must lie in 0..modulus-1"),
    (["--weights", "1,-1,1", "--modulus", "2"], "--weights: periodic weights must lie in 0..modulus-1"),
    (["--weights", "1,1,1", "--modulus", "2"],
     "--weights do not grade the algebra (witness (0, 1, 0))"),
], ids=["modulus-0", "modulus-negative", "weight-above", "weight-negative", "not-grading"])
def test_cli_grading_input_errors_name_their_flag(workdir, capsys, name, params, message):
    assert run(["example", name, "sl", "2"] + params) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: %s\n" % message
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("flag", [["--pc"], ["--seed-file", "seeds.json"]],
                         ids=["pc", "seed-file"])
def test_cli_report_reads_the_operator_once(workdir, capsys, monkeypatch, flag):
    # the family check lifts the operator the report already read
    assert run(["example", "nilpotent-square", "sl", "3", "--partition", "2,1"]) == 0
    save_seeds(pois.centre_candidates(load_algebra(workdir / "sl3.json")[0], 2),
               workdir / "seeds.json")
    capsys.readouterr()
    calls = []
    real = iomod.load_operator

    def counting(path):
        calls.append(path)
        return real(path)
    monkeypatch.setattr(iomod, "load_operator", counting)
    argv = ["report", "--algebra", "sl3.json", "--operator", "sl3-nilsquare-op.json"]
    assert run(argv + flag + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["ok"] for c in doc["checks"] if c["name"] == "pc-family-commutes"] == [True]
    assert calls == ["sl3-nilsquare-op.json"]


@pytest.mark.parametrize("algebra, dim", [("skew-nonlie.json", 4), ("sl3.json", 8)],
                         ids=["non-lie", "sl3"])
@pytest.mark.parametrize("seed_file, content, name",
                         [("missing.json", None, "missing.json"),
                          ("bad-seeds.json", '{"seeds": "nope"}', "seeds")],
                         ids=["missing", "not-a-list"])
def test_cli_report_reads_the_seed_file_before_any_check(workdir, capsys, algebra, dim,
                                                         seed_file, content, name):
    # a bad --seed-file is named on every algebra, as a bad --gamma is
    (workdir / "skew-nonlie.json").write_text(json.dumps(SKEW_NONLIE))
    run(["example", "sl", "3"])
    save_operator(RatMatrix.identity(dim), workdir / "id.json")
    if content is not None:
        (workdir / seed_file).write_text(content)
    capsys.readouterr()
    argv = ["report", "--algebra", algebra, "--operator", "id.json", "--seed-file", seed_file]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert name in err


EMPTY_SEEDS = "input error: --seed-file empty.json holds no seeds\n"


@pytest.mark.parametrize("algebra, dim", [("skew-nonlie.json", 4), ("sl3.json", 8)],
                         ids=["non-lie", "sl3"])
def test_cli_report_names_an_empty_seed_file(workdir, capsys, algebra, dim):
    (workdir / "skew-nonlie.json").write_text(json.dumps(SKEW_NONLIE))
    run(["example", "sl", "3"])
    save_operator(RatMatrix.identity(dim), workdir / "id.json")
    (workdir / "empty.json").write_text(json.dumps({"seeds": []}))
    capsys.readouterr()
    argv = ["report", "--algebra", algebra, "--operator", "id.json", "--seed-file", "empty.json"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", EMPTY_SEEDS)


@pytest.mark.parametrize("algebra, dim, message", [
    ("skew-nonlie.json", 4, "input error: --algebra is not a Lie algebra; pc-check needs one\n"),
    ("sl3.json", 8, EMPTY_SEEDS),
], ids=["non-lie", "sl3"])
def test_cli_pc_check_names_an_empty_seed_file(workdir, capsys, algebra, dim, message):
    # pc-check refuses a non-Lie algebra before it reads any other input
    (workdir / "skew-nonlie.json").write_text(json.dumps(SKEW_NONLIE))
    run(["example", "sl", "3"])
    (workdir / "empty.json").write_text(json.dumps({"seeds": []}))
    capsys.readouterr()
    gamma = ",".join(["0"] * (dim - 1) + ["1"])
    argv = ["pc-check", "--algebra", algebra, "--gamma", gamma, "--seed-file", "empty.json"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_cli_pc_check_names_an_empty_centre_search(workdir, capsys):
    # sl2 has no central polynomial of degree 1: the search, not a file, is named
    run(["example", "sl", "2"])
    capsys.readouterr()
    argv = ["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--degree-bound", "1"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "input error: no seeds: empty centre up to degree 1\n")


NO_SEED = {"seeds": [[]]}
# the second seed's two terms cancel, so it reads as the zero polynomial
CANCELLING_SEED = {"seeds": [[{"exponents": [1, 0, 1], "coeff": "4"},
                              {"exponents": [0, 2, 0], "coeff": "1"}],
                             [{"exponents": [0, 1, 0], "coeff": "1/2"},
                              {"exponents": [0, 1, 0], "coeff": "-1/2"}]]}
SL2_NILSQUARE = ["--algebra", "sl2.json", "--operator", "sl2-nilsquare-op.json"]
NONLIE_ID = ["--algebra", "skew-nonlie.json", "--operator", "id4.json"]
# the sl2 Casimir, then a term one degree above the polynomial degree cap
ABOVE_CAP_SEED = {"seeds": [[{"exponents": [1, 0, 1], "coeff": "4"},
                             {"exponents": [DEGREE_CAP - 1, 1, 1], "coeff": "1"}]]}


@pytest.mark.parametrize("argv, seeds, name", [
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--seed-file", "s.json"],
     NO_SEED, "seeds[0]"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--seed-file", "s.json"],
     CANCELLING_SEED, "seeds[1]"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--degree-bound", "0"],
     None, "--degree-bound"),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--degree-bound", "-1"],
     None, "--degree-bound"),
    (["report"] + SL2_NILSQUARE + ["--seed-file", "s.json"], NO_SEED, "seeds[0]"),
    (["report"] + SL2_NILSQUARE + ["--seed-file", "s.json"], CANCELLING_SEED, "seeds[1]"),
    (["report"] + SL2_NILSQUARE + ["--pc", "--degree-bound", "0"], None, "--degree-bound"),
    (["report"] + NONLIE_ID + ["--pc", "--degree-bound", "-1"], None, "--degree-bound"),
], ids=["pc-check-empty-seed", "pc-check-cancelling-seed", "pc-check-degree-bound-0",
        "pc-check-degree-bound-negative", "report-empty-seed", "report-cancelling-seed",
        "report-degree-bound-0", "report-degree-bound-non-lie"])
def test_cli_family_check_refuses_seed_input_without_a_seed(workdir, capsys, argv, seeds,
                                                            name):
    check_family_refusal(workdir, capsys, argv, seeds, name)


@pytest.mark.parametrize("argv, seeds, name", [
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--degree-bound",
      str(DEGREE_CAP + 1)], None, "--degree-bound must be at most %d" % DEGREE_CAP),
    (["report"] + SL2_NILSQUARE + ["--pc", "--degree-bound", str(DEGREE_CAP + 1)], None,
     "--degree-bound must be at most %d" % DEGREE_CAP),
    (["pc-check", "--algebra", "sl2.json", "--gamma", "0,0,1", "--seed-file", "s.json"],
     ABOVE_CAP_SEED, "total degree must be at most %d [seeds[0][1]]" % DEGREE_CAP),
    (["report"] + SL2_NILSQUARE + ["--seed-file", "s.json"], ABOVE_CAP_SEED,
     "total degree must be at most %d [seeds[0][1]]" % DEGREE_CAP),
], ids=["pc-check-degree-bound", "report-degree-bound", "pc-check-seed", "report-seed"])
def test_cli_refuses_a_degree_above_the_cap(workdir, capsys, argv, seeds, name):
    # a polynomial holds total degree DEGREE_CAP at most, so a centre search
    # or a seed above it is an input error that names its field
    check_family_refusal(workdir, capsys, argv, seeds, name)


def check_family_refusal(workdir, capsys, argv, seeds, name):
    # a zero seed, or a centre search below degree 1, would check an empty
    # family and still report that it commutes
    run(["example", "nilpotent-square", "sl", "2", "--partition", "2"])
    (workdir / "skew-nonlie.json").write_text(json.dumps(SKEW_NONLIE))
    save_operator(RatMatrix.identity(4), workdir / "id4.json")
    if seeds is not None:
        (workdir / "s.json").write_text(json.dumps(seeds))
    capsys.readouterr()
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert name in err


@pytest.mark.parametrize("argv, option, code", [
    (["pc-check", "--algebra", "sl2.json", "--json"], ["--gamma", "-1,0,2"], 0),
    (["exp-check"] + SL2_OP + ["--kind", "near", "--m", "-2", "--json"], ["--points", "-1,3"], 0),
    (["example", "grading", "sl", "2", "--modulus", "2"], ["--weights", "-1,0,1"], 2),
    (["example", "nilpotent-square", "sl", "2"], ["--partition", "-1,3"], 2),
    (["example", "splitting", "sl", "2", "--complement", "1,2"], ["--sub", "-1,0"], 2),
    (["example", "splitting", "sl", "2", "--sub", "0,1"], ["--complement", "-2,2"], 2),
], ids=["gamma", "points", "weights", "partition", "sub", "complement"])
def test_cli_negative_list_as_a_separate_word(workdir, capsys, argv, option, code):
    # argparse would read "-1,0,2" as an option and end in a usage block;
    # the separate word reads as OPTION=LIST does
    run(["example", "grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"])
    capsys.readouterr()
    assert run(argv + ["=".join(option)]) == code
    joined = capsys.readouterr()
    assert run(argv + option) == code
    assert capsys.readouterr() == joined
    assert joined.err.count("\n") == (code == 2)
    assert joined.err.startswith("input error: " if code == 2 else "")


@pytest.mark.parametrize("family, index", [("sl", 3), ("gl", 4)], ids=["sl4", "gl4"])
def test_cli_exact_index_above_the_default_cap(workdir, capsys, family, index):
    # dims 15 and 16: refused at the default --max-exact-dim of 12
    assert run(["example", family, "4"]) == 0
    capsys.readouterr()
    argv = ["index", "--algebra", family + "4.json", "--mode", "exact", "--json"]
    assert run(argv) == 2
    assert "refused above dimension 12" in capsys.readouterr().err
    assert run(argv + ["--max-exact-dim", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["index"], doc["method"]) == (index, "exact-symbolic")
