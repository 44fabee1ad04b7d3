"""liepencil CLI benchmark: one closed-loop client calling `cli.main` in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a liepencil checkout; the engine is imported from its
`src/`.  Fixtures are written with `liepencil example` (the timed set-up),
the benchmark's own inputs are generated from --seed, then a fixed number
of command rounds runs, set by the workload and --seconds (see
workloads.Workload).  Every command's exit code and JSON verdict are
checked against known answers.

Times are speed-normalised.  The shared machines this runs on change speed
by up to 2x, for seconds to tens of seconds at a time.  A fixed piece of
the benchmark's own Fraction arithmetic (the probe, about 0.4 ms) runs from
a SIGALRM timer while a call runs, FIRST_SAMPLE_S after it starts and then
every SAMPLE_EVERY_S; the probe slows down with the machine.  A call's wall
time, less the time its probes took, is scaled by PROBE_REF_S over the
probes' mean time, so it reads as the wall time on an undisturbed core.
(Probes taken between calls track the call less well than probes taken
inside it, so they are used only for calls too short to be sampled.)
The raw wall figures, the speed factor and the tail's percentile and sample
count go on a `detail:` JSON line, which sweep.py keeps in result sets.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run measures the rounds of --seconds / 2 untraced and then
as many traced, and the metrics are per-layer numbers from the traced half.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PASSES = 3     # setup_s is the median of this many fixture passes
TAIL_BEYOND = 10     # cmd_tail_s: highest percentile with this many samples above
PROBE_REF_S = 0.00038  # probe time on an undisturbed core (Python 3.11, x86-64 VM)
FIRST_SAMPLE_S = 0.01   # first probe after a call starts
SAMPLE_EVERY_S = 0.025  # probe period while a call runs
MAX_WALL_S = 140.0      # a run stops early (at a round boundary) past this wall time


def load_cli():
    """Import liepencil.cli from this checkout's src/, not from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from liepencil import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError("liepencil was imported from %s, not %s" % (cli.__file__, src))
    return sys.modules["liepencil.cli"]


def call(cli, argv):
    """(exit code, stdout, seconds, stderr) of one in-process `liepencil` call.

    An exception escaping `main` is reported with exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:          # argparse refusing the flags
        rc = exc.code
    except Exception:                  # an engine crash is a failed command
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), perf_counter() - t0, err.getvalue()


def probe():
    """Seconds taken by a fixed piece of Fraction arithmetic, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(i % 17, i % 13 + 1) * Fraction(3, i % 7 + 1)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed_call(cli, argv, tracer=None):
    """call() with probes taken while it runs.

    Returns (exit code, stdout, wall seconds less probe time, speed factor
    PROBE_REF_S / mean probe time, stderr).  With a tracer, the call's spans
    get the same factor.
    """
    samples = []
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t0 = perf_counter()
        samples.append(probe())
        spent += perf_counter() - t0

    first_span = tracer.mark() if tracer else 0
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S, SAMPLE_EVERY_S)
    try:
        rc, stdout, wall, err = call(cli, argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= spent
    if not samples:
        samples.append(probe())
    factor = PROBE_REF_S * len(samples) / sum(samples)
    if tracer:
        tracer.scale(first_span, factor)
    return rc, stdout, wall, factor, err


def setup_pass(cli, workload, where, tracer=None):
    """Write the workload's fixtures into `where`; returns normalised seconds."""
    os.makedirs(where)
    total = 0.0
    with chdir(where):
        for argv in workload.setup:
            rc, _, wall, factor, err = timed_call(cli, argv, tracer)
            if rc != 0:
                raise RuntimeError("set-up command %s exited %r: %s" % (argv, rc, err))
            total += wall * factor
    return total


@contextlib.contextmanager
def chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class Window:
    """Outcome of the commands run in one measuring window."""

    def __init__(self):
        self.times = []         # normalised seconds per call
        self.walls = []         # raw wall seconds per call
        self.factors = []       # speed factor per call
        self.failed = 0
        self.elapsed = 0.0      # wall seconds of the whole window
        self.digests = []       # (digest key, sha256 of stdout)

    @property
    def attempted(self):
        return len(self.times)

    def cmds_per_s(self):
        """Correct calls per normalised second spent inside cli.main."""
        return (self.attempted - self.failed) / sum(self.times)


def measure(cli, workload, rounds, first_round=0, tracer=None):
    """Run `rounds` rounds, or fewer if the run passes MAX_WALL_S.

    Returns (Window, next round).
    """
    win = Window()
    r = first_round
    t_start = perf_counter()
    while r < first_round + rounds:
        if perf_counter() - t_start >= MAX_WALL_S:
            print("stopped after %d of %d rounds: past %.0f s of wall time"
                  % (r - first_round, rounds, MAX_WALL_S), file=sys.stderr)
            break
        for cmd in workload.round(r):
            rc, stdout, wall, factor, err = timed_call(cli, cmd.argv, tracer)
            problems = cmd.verify(rc, stdout)
            win.times.append(wall * factor)
            win.walls.append(wall)
            win.factors.append(factor)
            win.digests.append((cmd.digest_key, hashlib.sha256(stdout.encode()).hexdigest()))
            if problems:
                win.failed += 1
                print("FAILED %s %s: %s %s" % (cmd.kind, " ".join(cmd.argv),
                                               "; ".join(problems), err.strip()),
                      file=sys.stderr)
        r += 1
    win.elapsed = perf_counter() - t_start
    return win, r


def tail(times):
    """(value, percentile, samples above) of the highest percentile that still
    has TAIL_BEYOND samples above it (the minimum if there are too few)."""
    ordered = sorted(times)
    i = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def end_to_end(win, setups):
    """(metrics, detail): the end-to-end metrics, and the figures behind them
    that carry no bound (raw wall, speed factor, tail percentile)."""
    tail_s, tail_pct, above = tail(win.times)
    n = win.attempted
    metrics = {
        "cmds_per_s": (win.cmds_per_s(), "1/s"),
        "cmd_p50_s": (statistics.median(win.times), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {
        "commands": n,
        "failed_ratio": win.failed / n,
        "cmd_tail_pct": tail_pct,
        "cmd_tail_above": above,
        "wall_s": win.elapsed,
        "raw_cmd_p50_s": statistics.median(win.walls),
        "raw_cmds_per_s": (n - win.failed) / win.elapsed,
        "speed_factor": statistics.median(win.factors),
        "setup_passes_s": setups,
    }
    return metrics, detail


def json_changed(digests):
    """Commands whose stdout differs from the digest committed for its key."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fp:
        known = json.load(fp)["json_digests"]
    compared = [(key, d) for key, d in digests if key in known]
    changed = sum(1 for key, d in compared if known[key] != d)
    print("byte identity: %d of %d commands compared, %d changed"
          % (len(compared), len(digests), changed))
    return changed


def per_layer(tracer, setup_lo, cmd_lo, commands):
    """Per-layer metrics: per command, or per set-up pass for set-up-only code."""
    hi = tracer.mark()
    in_setup = tracer.aggregate(setup_lo, cmd_lo)
    in_cmds = tracer.aggregate(cmd_lo, hi)
    metrics = {}
    for name in tracer.names:
        if name in tracing.SETUP_ONLY:
            (calls, self_s, total_s), per, unit = in_setup[name], 1, "setup"
        else:
            (calls, self_s, total_s), per, unit = in_cmds[name], commands, "cmd"
        metrics[name + ".calls"] = (calls / per, "count/" + unit)
        metrics[name + ".self_s"] = (self_s / per, "s/" + unit)
        metrics[name + ".total_s"] = (total_s / per, "s/" + unit)
    for name, cells in tracer.cells.items():
        metrics[name + ".cells"] = (cells / commands, "cells/cmd")
    for name, count in tracer.counts.items():
        metrics[name + ".calls"] = (count / commands, "count/cmd")
    metrics["tensors.check_jacobi.repeat_ratio"] = (
        tracer.jacobi_calls / max(1, tracer.jacobi_distinct), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except ImportError as exc:
        print("cannot import liepencil from %s/src: %s" % (ROOT, exc), file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = os.path.join(OUT, "work-%s-%d-%d" % (workload.name, args.seed, os.getpid()))
    try:
        passes = 1 if args.trace else SETUP_PASSES
        setups = [setup_pass(cli, workload, os.path.join(work, "setup-%d" % k))
                  for k in range(passes)]
        with chdir(os.path.join(work, "setup-%d" % (passes - 1))):
            workload.prepare()             # generated inputs, not timed
            if not args.trace:
                win, _ = measure(cli, workload, workload.rounds(args.seconds))
                metrics, detail = end_to_end(win, setups)
                detail["seconds"] = args.seconds
                print("detail: " + json.dumps(detail))
                failed, attempted = win.failed, win.attempted
            else:
                half = workload.rounds(args.seconds / 2)
                plain, r = measure(cli, workload, half)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    setup_lo = tracer.mark()
                    setup_pass(cli, workload, os.path.join(work, "traced-setup"), tracer)
                    cmd_lo = tracer.mark()
                    tracer.reset_counters()
                    traced, _ = measure(cli, workload, half, r, tracer)
                finally:
                    tracer.uninstall()
                metrics = per_layer(tracer, setup_lo, cmd_lo, traced.attempted)
                metrics["trace.cmds_per_s_untraced"] = (plain.cmds_per_s(), "1/s")
                metrics["trace.cmds_per_s_traced"] = (traced.cmds_per_s(), "1/s")
                metrics["trace.overhead"] = (plain.cmds_per_s() / traced.cmds_per_s(), "ratio")
                metrics["cli.json_changed"] = (
                    float(json_changed(plain.digests + traced.digests)), "count")
                stem = os.path.join(OUT, "trace-" + workload.name)
                tracer.write(stem, {"workload": workload.name, "seed": args.seed,
                                    "setup_spans": [setup_lo, cmd_lo],
                                    "command_spans": [cmd_lo, tracer.mark()]})
                print("trace written to %s.json and %s.spans" % (stem, stem))
                failed = plain.failed + traced.failed
                attempted = plain.attempted + traced.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
