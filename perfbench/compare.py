"""Compare two benchmark result sets, one row per workload x end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSON-lines file written by perfbench/sweep.py: one line
per run, {"workload", "seed", "trace", "seconds", "result", "detail"}.
Only untraced runs are compared, and only sets recorded at the same
run_seconds.  Runs of the two sets with the same workload and seed form a
pair.  Bounds come from BENCHMARK.json.  Verdicts:

  unresolved  either side's quartile spread (IQR / median) exceeds the
              bound, unless every NEW run beats every BASE run (then better)
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW wins at least 9 of 10 pairs and its median is better by
              more than BASE's own spread; without pairs, every NEW run
              beats every BASE run
  unchanged   otherwise

Below each workload, rows marked "raw" compare the unbounded figures of the
detail lines: raw wall p50 and commands per wall second (which move with
the machine's speed), the median speed factor (which should not move with
the engine), and the commands per run (which fix cmd_tail_s's percentile
and must agree).  Their "gain" column is the plain change NEW / BASE - 1.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        doc = json.load(fp)
    return {m["name"]: m for m in doc["end_to_end"]}, [w["name"] for w in doc["workloads"]]


RAW = ("raw_cmd_p50_s", "raw_cmds_per_s", "speed_factor", "commands")


def load_set(path):
    """({workload: {metric: {seed: value}}}, run_seconds used) from the
    untraced runs of a result set; detail figures count as metrics."""
    out, seconds = {}, set()
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"]:
                continue
            seconds.add(run.get("seconds"))
            per = out.setdefault(run["workload"], {})
            values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
            values.update((k, v) for k, v in (run.get("detail") or {}).items() if k in RAW)
            for name, value in values.items():
                per.setdefault(name, {})[run["seed"]] = value
    return out, seconds


def spread(values):
    """(median, q1, q3, IQR / median) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def verdict(base, new, bound, lower_is_better):
    """(base median, new median, gain, wider spread, verdict).

    base and new map seed -> value; gain is NEW's relative improvement.
    """
    sign = -1 if lower_is_better else 1
    b_med, _, _, b_spread = spread(list(base.values()))
    n_med, _, _, n_spread = spread(list(new.values()))
    gain = sign * (n_med - b_med) / b_med
    all_better = min(sign * v for v in new.values()) > max(sign * v for v in base.values())
    pairs = set(base) & set(new)
    wins = sum(1 for seed in pairs if sign * (new[seed] - base[seed]) > 0)
    wide = max(b_spread, n_spread)
    if wide > bound:
        word = "better" if all_better else "unresolved"
    elif gain < -bound:
        word = "worse"
    elif all_better or (pairs and wins >= 0.9 * len(pairs) and gain > b_spread):
        word = "better"
    else:
        word = "unchanged"
    return b_med, n_med, gain, wide, word


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics, workloads = load_bounds()
    (base, b_secs), (new, n_secs) = load_set(argv[0]), load_set(argv[1])
    if len(b_secs | n_secs) != 1:
        print("the sets were run at different run_seconds (%s and %s); not comparable"
              % (sorted(b_secs, key=str), sorted(n_secs, key=str)), file=sys.stderr)
        return 2
    print("%-18s %-12s %12s %12s %8s %7s %7s  %s"
          % ("workload", "metric", "base", "new", "gain", "spread", "bound", "verdict"))
    for w in workloads:
        for name, m in metrics.items():
            b = base.get(w, {}).get(name)
            n = new.get(w, {}).get(name)
            if not b or not n:
                print("%-18s %-12s %s" % (w, name, "missing"))
                continue
            b_med, n_med, gain, wide, word = verdict(b, n, m["bound"], m["better"] == "lower")
            print("%-18s %-12s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s"
                  % (w, name, b_med, n_med, 100 * gain, 100 * wide, 100 * m["bound"], word))
        for name in RAW:
            b = base.get(w, {}).get(name)
            n = new.get(w, {}).get(name)
            if not b or not n:
                print("%-18s %-12s %s" % (w, name, "missing (no detail lines)"))
                continue
            b_med, n_med = statistics.median(b.values()), statistics.median(n.values())
            if name == "commands":
                same = set(b.values()) == set(n.values()) and len(set(b.values())) == 1
                word = "raw, same" if same else "raw, DIFFER: cmd_tail_s percentiles differ"
            else:
                word = "raw, no bound"
            print("%-18s %-12s %12.5g %12.5g %+7.1f%% %7s %7s  %s"
                  % (w, name, b_med, n_med, 100 * (n_med - b_med) / b_med, "", "", word))
    return 0


if __name__ == "__main__":
    sys.exit(main())
