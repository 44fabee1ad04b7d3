"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench/set.jsonl [--trace 0|1]

Runs perfbench/run.py once per workload and seed, one run at a time, with
the command and run_seconds of BENCHMARK.json, and appends
{"workload", "seed", "trace", "seconds", "result", "detail"} lines to --out
(a result set for compare.py; "detail" is the run's unbounded figures: raw
wall times, speed factor, tail percentile and sample count).  Then prints,
per workload x end-to-end metric, the median, the quartiles and the spread
IQR / median against the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import ROOT, load_bounds, load_set, spread

DETAIL = "detail: "


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=seed_list, help="N or N-M")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    metrics, names = load_bounds()
    seconds = bench["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as out:
        for w in names:
            for seed in args.seeds:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                if proc.returncode != 0:
                    print("%s seed %d exited %d:\n%s" % (w, seed, proc.returncode, proc.stderr),
                          file=sys.stderr)
                    return 1
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                detail = next((json.loads(line[len(DETAIL):]) for line in lines
                               if line.startswith(DETAIL)), None)
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                      "seconds": seconds, "result": result,
                                      "detail": detail}) + "\n")
                out.flush()
                print("%s seed %d: correct %s, %d attempted, %d failed"
                      % (w, seed, result["correct"], result["attempted"], result["failed"]),
                      flush=True)
    if args.trace:
        return 0
    runs, _ = load_set(args.out)
    print("%-18s %-12s %12s %12s %12s %7s %7s" % ("workload", "metric", "median", "q1", "q3",
                                                 "spread", "bound"))
    for w in names:
        for name, m in metrics.items():
            med, q1, q3, s = spread(list(runs[w][name].values()))
            print("%-18s %-12s %12.5g %12.5g %12.5g %6.2f%% %6.1f%%"
                  % (w, name, med, q1, q3, 100 * s, 100 * m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
