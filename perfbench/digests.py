"""Record the sha256 of every benchmark command's --json stdout.

    python3 perfbench/digests.py

Run at a commit whose output is the reference (the commit that added the
benchmark, or one that changes output on purpose).  Each digest key names
one command and the inputs that shape its output: the fixture, or the
covector for `pc-check --gamma`.  Every covector any seed can pick comes
from inputs.covector_universe(), so the table covers all seeds.  Keys are
checked to determine their stdout by running them under two seeds.  The
digests go into perfbench/baseline.json under "json_digests"; a traced run
reports how many commands no longer match as cli.json_changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import inputs
import run
import workloads

ROUNDS = 2


def main():
    cli = run.load_cli()
    work = os.path.join(run.OUT, "digests-%d" % os.getpid())
    digests = {}

    def record(cmd):
        rc, stdout, _, err = run.call(cli, cmd.argv)
        problems = cmd.verify(rc, stdout)
        if problems:
            raise SystemExit("%s fails its checks: %s %s" % (cmd.argv, problems, err))
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digests.setdefault(cmd.digest_key, digest) != digest:
            raise SystemExit("key %s does not determine stdout" % cmd.digest_key)

    try:
        for name, cls in workloads.WORKLOADS.items():
            for seed in (1, 2):
                workload = cls(seed)
                where = os.path.join(work, "%s-%d" % (name, seed))
                run.setup_pass(cli, workload, where)
                with run.chdir(where):
                    workload.prepare()
                    for r in range(ROUNDS):
                        for cmd in workload.round(r):
                            record(cmd)
                    if name == "poisson-centre" and seed == 1:
                        for gamma in inputs.covector_universe():
                            record(workloads.pc_check(gamma))
                print("%s seed %d: %d keys so far" % (name, seed, len(digests)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    path = os.path.join(run.HERE, "baseline.json")
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["json_digests"] = dict(sorted(digests.items()))
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")
    print("wrote %d digests to %s" % (len(digests), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
