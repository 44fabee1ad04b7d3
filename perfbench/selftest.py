"""Self-test of the known-answer checker.

    python3 perfbench/selftest.py

Runs real commands of the poisson-centre and report-nilsquare workloads,
checks that their true output passes, then that tampered verdicts, a
family that lost a Casimir, a wrong exit code, a missing field and non-JSON
output are each rejected.  Exits 0
only if every case behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def tamper(stdout, edit):
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc, indent=2)


def main():
    cli = run.load_cli()
    work = os.path.join(run.OUT, "selftest-%d" % os.getpid())
    failures = 0

    def expect(label, cmd, rc, stdout, accepted):
        nonlocal failures
        problems = cmd.verify(rc, stdout)
        ok = (not problems) == accepted
        failures += not ok
        print("%s %s: %s" % ("PASS" if ok else "FAIL", label,
                             "; ".join(problems) if problems else "accepted"))

    try:
        for cls in (workloads.PoissonCentre, workloads.ReportNilsquare):
            run.setup_pass(cli, cls(0), os.path.join(work, cls.name))
        with run.chdir(os.path.join(work, workloads.PoissonCentre.name)):
            pc = workloads.pc_check()
            rc, out, _, _ = run.call(cli, pc.argv)
            expect("pc-check true output", pc, rc, out, True)

            def flip(d):
                d["commutes"] = False
            expect("pc-check with commutes flipped", pc, rc, tamper(out, flip), False)
            expect("pc-check with exit code 1", pc, 1, out, False)

            def one_seed(d):
                # a family of one generator Poisson-commutes trivially
                d["generators"], d["provenance"] = d["generators"][:1], d["provenance"][:1]
                d["family_size"] = 1
            expect("pc-check with a family of one seed", pc, rc, tamper(out, one_seed), False)

            def no_cubic(d):
                keep = [i for i, p in enumerate(d["provenance"]) if not p.startswith("seed1")]
                d["generators"] = [d["generators"][i] for i in keep]
                d["provenance"] = [d["provenance"][i] for i in keep]
                d["family_size"] = len(keep)
            expect("pc-check without the cubic Casimir", pc, rc, tamper(out, no_cubic), False)
            expect("pc-check with non-JSON stdout", pc, rc, "commutes: True\n", False)

            missing = workloads.pc_check()
            missing.argv = [a.replace("sl3.json", "absent.json") for a in missing.argv]
            rc2, out2, _, _ = run.call(cli, missing.argv)
            expect("pc-check on a missing file (exit %r)" % rc2, missing, rc2, out2, False)

        with run.chdir(os.path.join(work, workloads.ReportNilsquare.name)):
            report = workloads.ReportNilsquare(0)
            report.prepare()
            rep = report.round(0)[0]
            rc, out, _, _ = run.call(cli, rep.argv)
            expect("report sl3 true output", rep, rc, out, True)

            def wrong_tag(d):
                next(c for c in d["checks"] if c["name"] == "classification")["tag"] = "near"
            expect("report with tag near", rep, rc, tamper(out, wrong_tag), False)

            def drop(d):
                del d["diagnostics"]["derived_index_equals_centre"]
            expect("report with a field missing", rep, rc, tamper(out, drop), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
