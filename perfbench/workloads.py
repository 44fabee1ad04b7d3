"""The three workloads: fixtures, command rounds and known-answer checks.

Every known answer below follows from the mathematics, not from a run of
the program:

* report-nilsquare: D = (ad e)^2 for a standard sl2-triple with parts <= 2
  is a quasi-derivation, the derived bracket is 2-step nilpotent with index
  equal to the dimension of its centre, and the index of sl_n is n - 1.
* classify-dense: D = A G A^-1 with A an automorphism and G the Z4 grading
  operator has the class of G: near with (a, b) = (0, -4), semisimple, two
  degenerate lines, and every bracket involved satisfies Jacobi.
* poisson-centre: the centre of S(sl3) is generated by a quadratic and a
  cubic Casimir, so up to degree 3 there are exactly two central seeds and
  any derivation orbit of them Poisson-commutes; sp4 has dimension 10 and
  index equal to its rank, 2.  Both seeds open the family (different
  degrees, so independent).  D C2 is never 0: for the lifted D = (ad e)^2,
  D C2 (x) = -2 B([e, x], [e, x]), which is not 0 at x = f; for a nonzero
  covector g, d_g C2 is the linear form 2 B(g, .).  d_g C3 is a quadratic
  that is a multiple of C2 only if g is a multiple of the identity, that
  is g = 0, so the directional family also holds d_g C3.
"""

from __future__ import annotations

import json
import os

import inputs

OPS_DIR = "ops"


class Command:
    """One `liepencil` call: argv and the answers its JSON stdout must hold."""

    def __init__(self, kind, argv, checks, digest_key):
        self.kind = kind
        self.argv = argv
        self.checks = checks          # list of (field label, getter, expected)
        self.digest_key = digest_key  # key into the committed stdout digests

    def verify(self, rc, stdout):
        """List of mismatches between this command's output and its answers."""
        problems = []
        if rc != 0:
            problems.append("exit code %r, expected 0" % (rc,))
        try:
            doc = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        for label, getter, want in self.checks:
            try:
                got = getter(doc)
            except (KeyError, IndexError, TypeError, StopIteration):
                got = "<missing>"
            if got != want:
                problems.append("%s = %r, expected %r" % (label, got, want))
        return problems


def _check_named(doc, name):
    return next(c for c in doc["checks"] if c["name"] == name)


def _report(fixture, n, seed):
    argv = ["report", "--json", "--seed", str(seed),
            "--algebra", "%s.json" % fixture,
            "--operator", "%s-nilsquare-op.json" % fixture]
    checks = [
        ("ok", lambda d: d["ok"], True),
        ("classification.tag", lambda d: _check_named(d, "classification")["tag"], "quasi"),
        ("derived_index_equals_centre",
         lambda d: d["diagnostics"]["derived_index_equals_centre"], True),
    ]
    if n == 3:
        checks += [
            ("index-modes-agree.ok", lambda d: _check_named(d, "index-modes-agree")["ok"], True),
            ("index-modes-agree.index_exact",
             lambda d: _check_named(d, "index-modes-agree")["index_exact"], n - 1),
        ]
    else:
        checks.append(("index-probabilistic.index",
                       lambda d: _check_named(d, "index-probabilistic")["index"], n - 1))
    return Command("report-" + fixture, argv, checks, "report:" + fixture)


def _classify(family, op_path):
    argv = ["classify", "--json", "--algebra", "%s4.json" % family, "--operator", op_path]
    checks = [
        ("tag", lambda d: d["tag"], "near"),
        ("a", lambda d: d["a"], "0"),
        ("b", lambda d: d["b"], "-4"),
        ("mode", lambda d: d["mode"], "semisimple"),
        ("degenerate_lines", lambda d: d["degenerate_lines"], 2),
    ]
    for name in ("input_skew", "input_jacobi", "derived_skew", "derived_jacobi"):
        checks.append(("jacobi_checks." + name,
                       lambda d, name=name: d["jacobi_checks"][name], True))
    return Command("classify-%s4" % family, argv, checks, "classify:%s4" % family)


def pc_check(gamma=None):
    argv = ["pc-check", "--json", "--degree-bound", "3", "--algebra", "sl3.json"]
    if gamma is None:
        argv += ["--operator", "sl3-nilsquare-op.json"]
        kind, key = "pc-lifted", "pc-check:lifted"
    else:
        text = ",".join(str(c) for c in gamma)
        argv.append("--gamma=" + text)       # "=" keeps a leading "-" off argparse
        kind, key = "pc-gamma", "pc-check:gamma:" + text
    # the family must hold both central seeds and the orbit steps that the
    # docstring shows are independent of everything before them
    members = ["seed0", "seed0:D^1", "seed1"] + (["seed1:D^1"] if gamma else [])
    checks = [("commutes", lambda d: d["commutes"], True),
              ("seeds", lambda d: sorted({p.split(":")[0] for p in d["provenance"]}),
               ["seed0", "seed1"]),
              ("family_size", lambda d: d["family_size"] == len(d["generators"]), True)]
    for m in members:
        checks.append(("provenance has " + m, lambda d, m=m: m in d["provenance"], True))
    return Command(kind, argv, checks, key)


def _index_sp4():
    argv = ["index", "--mode", "exact", "--json", "--algebra", "sp4.json"]
    checks = [("dim", lambda d: d["dim"], 10), ("index", lambda d: d["index"], 2),
              ("method", lambda d: d["method"], "exact-symbolic")]
    return Command("index-sp4", argv, checks, "index:sp4")


def _write_operator(path, matrix):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"dim": len(matrix),
                   "matrix": [[inputs.format_fraction(x) for x in row] for row in matrix]}, fp)


class Workload:
    """Fixture commands plus an endless sequence of command rounds.

    `prepare` writes the generated inputs into the current directory (not
    timed); `round(r)` returns the commands of round r.  A round holds every
    command kind of the workload in a fixed ratio.  A run measures a fixed
    number of rounds, ROUNDS per 30 s of --seconds, so the sample count and
    the percentile of cmd_tail_s depend neither on the machine's speed nor
    on the engine's.
    """

    name = ""
    setup = ()
    ROUNDS = 1

    def __init__(self, seed):
        self.seed = seed

    @classmethod
    def rounds(cls, seconds):
        return max(1, round(cls.ROUNDS * seconds / 30.0))

    def prepare(self):
        pass

    def round(self, r):
        raise NotImplementedError


class ReportNilsquare(Workload):
    name = "report-nilsquare"
    setup = (["example", "nilpotent-square", "sl", "3", "--partition", "2,1", "--json"],
             ["example", "nilpotent-square", "sl", "4", "--partition", "2,2", "--json"])
    # 60 calls: the median is inside the sl3 cluster (40 calls), cmd_tail_s
    # the 10th of the 20 sl4 calls
    ROUNDS = 20

    def prepare(self):
        self.seeds = inputs.report_seeds(self.seed)

    def round(self, r):
        # two sl3 calls per sl4 call keep the median inside the sl3 cluster
        # instead of on the gap between the two clusters
        s = self.seeds
        return [_report("sl3", 3, next(s)), _report("sl4", 4, next(s)),
                _report("sl3", 3, next(s))]


class ClassifyDense(Workload):
    name = "classify-dense"
    setup = (["example", "gl", "4", "--json"], ["example", "sl", "4", "--json"])
    POOL = {"gl": 16, "sl": 32}
    # 24 calls, the fewest with cmd_tail_s (index 13) above the median
    # (11.5); both stay inside the 16 sl4 calls whether sl4 is faster or
    # slower than gl4
    ROUNDS = 8

    def prepare(self):
        os.makedirs(OPS_DIR, exist_ok=True)
        self.paths = {}
        for family, count in self.POOL.items():
            paths = []
            for k, matrix in enumerate(inputs.operator_pool(self.seed, family, count)):
                path = "%s/%s4-%02d.json" % (OPS_DIR, family, k)
                _write_operator(path, matrix)
                paths.append(path)
            self.paths[family] = paths

    def round(self, r):
        gl, sl = self.paths["gl"], self.paths["sl"]
        # two sl4 calls per gl4 call keep the median and the tail inside one
        # cluster instead of on the gap between the two
        return [_classify("sl", sl[(2 * r) % len(sl)]),
                _classify("gl", gl[r % len(gl)]),
                _classify("sl", sl[(2 * r + 1) % len(sl)])]


class PoissonCentre(Workload):
    name = "poisson-centre"
    setup = (["example", "nilpotent-square", "sl", "3", "--partition", "2,1", "--json"],
             ["example", "sp", "4", "--json"])
    POOL = 16
    # 24 calls: the median (11.5) and cmd_tail_s (13) are inside the 16
    # pc-check calls, which take about 5x as long as index on sp4
    ROUNDS = 8

    def prepare(self):
        self.gammas = inputs.covector_pool(self.seed, self.POOL)

    def round(self, r):
        return [pc_check(), pc_check(self.gammas[r % len(self.gammas)]), _index_sp4()]


WORKLOADS = {w.name: w for w in (ReportNilsquare, ClassifyDense, PoissonCentre)}
