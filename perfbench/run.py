"""Closed-loop benchmark of coble: one client, one thread, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; coble is imported from ``src/``.
The workloads are defined in ``workloads.py``.  A run

1. times ``setup_s``: fresh interpreters, each from spawn to first op ready
   (``import coble``, catalog listing, the workload's first call), in main
   thread CPU time, each scaled by a reference interpreter started just
   after it (see ``setup_s``);
2. runs whole rounds of the workload, each op followed by its check, until
   the rounds after the first have taken ``--seconds`` of scaled time (see
   ``Phase`` and ``run_phase``; round generation is not timed);
3. prints a table of all metrics and, as its last line, one JSON object.

With ``--trace 0`` the JSON holds the end-to-end metrics.  With ``--trace 1``
it holds the per-layer metrics: the rounds run under ``spans.Tracer``
and then again without it, over the same inputs, to give the tracing
overhead.  Per-layer times and counts are per round.

Exit codes: 0 after a run (``correct`` says whether every answer was
right), 2 when the checkout has no coble sources or an argument is wrong.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer, check_numpy_scan_threshold

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 8

PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.prime(sys.argv[3])
print("ready", time.thread_time(), flush=True)
"""

# The reference interpreter imports numpy and the standard modules coble
# uses, and nothing of coble.
REFERENCE_PROBE = """
import argparse, dataclasses, enum, itertools, json, re, sys, time
import numpy
print("ready", time.thread_time(), flush=True)
"""
REFERENCE_SETUP_S = 0.1

# Times are CPU time of the main thread, which does all of coble's work.  On
# a shared machine the scheduler gives the core to other tenants' processes
# now and then, for milliseconds at a time; wall-clock op times would count
# those stalls, CPU time does not.  Nor does it count numpy's idle helper
# threads, which spin for a while after start-up.
CLOCK = time.thread_time


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_coble():
    if not (SRC / "coble" / "__init__.py").is_file():
        fail(f"no coble sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import coble

    if Path(coble.__file__).resolve().parent != SRC / "coble":
        fail(f"imported coble from {coble.__file__}, not from {SRC}")


def _ready_cpu_s(*args: str) -> float:
    """Main thread CPU time of a fresh interpreter from spawn to "ready"."""
    with subprocess.Popen([sys.executable, "-c", *args], stdout=subprocess.PIPE, text=True) as child:
        word, _, cpu_s = child.stdout.readline().partition(" ")
        child.stdout.read()
    if word != "ready" or child.returncode != 0:
        fail("a set-up probe failed")
    return float(cpu_s)


def setup_s(workload: str) -> float:
    """Set-up time in seconds of a machine on which the reference interpreter
    takes ``REFERENCE_SETUP_S`` to start.

    Each of ``SETUP_SAMPLES`` fresh interpreters, from spawn to first op
    ready, is paired with a reference interpreter started right after it,
    and the median of their ratios is scaled by ``REFERENCE_SETUP_S``.  The
    two of a pair meet the same load on a shared machine, so their ratio is
    much steadier than either time, or than a time scaled by the reference
    loop of ``Phase`` (perfbench/README.md has the figures).
    """
    ratios = [
        _ready_cpu_s(PROBE, str(BENCH), str(SRC), workload) / _ready_cpu_s(REFERENCE_PROBE)
        for _ in range(SETUP_SAMPLES)
    ]
    return REFERENCE_SETUP_S * statistics.median(ratios)


_BOX = np.arange(2000 * 8, dtype=np.int64).reshape(2000, 8) % 5
_GRAM = np.arange(64, dtype=np.int64).reshape(8, 8) % 3 - 1


def _reference_loop():
    """Integer arithmetic, tuples in a set and an int64 quadratic form over a
    box, as in coble's own loops, in shares of time about 2 : 1 : 2."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    seen = set()
    for p in itertools.permutations((3, 2, 2, 1, 1, 0)):
        if p not in seen:
            seen.add(p)
    return s, [tuple(-a for a in p) for p in seen], np.einsum("ij,jk,ik->i", _BOX, _GRAM, _BOX)


def calibrate() -> float:
    """Seconds the reference loop takes now, the least of three tries."""
    best = float("inf")
    for _ in range(3):
        t0 = CLOCK()
        _reference_loop()
        best = min(best, CLOCK() - t0)
    return best


class Phase:
    """Whole rounds of one workload, ops timed one by one.

    Other tenants of a shared machine also slow the CPU time of every
    process on it, by up to 2 times on the machine the bounds were set on,
    in phases of seconds.  So the reference loop is timed at least every
    ``CALIBRATE_EVERY`` seconds and after every longer op, and each op's
    time is scaled by ``REFERENCE_S`` over the mean of the reference times
    just before and just after it.  Scaled times are in CPU seconds of a
    machine on which the reference loop takes ``REFERENCE_S``.  Reference
    loops are not counted as busy time.
    """

    REFERENCE_S = 0.0008  # the loop on an uncontended core of a 2 GHz Xeon
    CALIBRATE_EVERY = 0.1

    def __init__(self):
        self.latencies = []  # scaled op times
        self.busy_s = 0.0  # scaled time of ops and their checks
        self.active_s = 0.0  # wall-clock time of rounds
        self.failed = 0
        self.rounds = 0
        self.failures = []
        self.scales = []
        self._reference = calibrate()
        self._pending = []  # (op seconds, op + check seconds) since the last reference

    def _recalibrate(self) -> None:
        now = calibrate()
        scale = self.REFERENCE_S / ((self._reference + now) / 2)
        for op_s, busy_s in self._pending:
            self.latencies.append(op_s * scale)
            self.busy_s += busy_s * scale
        self.scales.append(scale)
        self._pending.clear()
        self._reference = now

    def run_round(self, ops) -> None:
        clock = CLOCK
        since = 0.0
        start = time.perf_counter()
        for op in ops:
            t0 = clock()
            try:
                answer = op.call()
                t1 = clock()
                ok = op.check(answer)
            except Exception as exc:  # a crash is a failed op, not a failed run
                t1 = clock()
                ok = False
                self.failures.append(f"{op.stratum}: {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    self.failures.append(f"{op.stratum}: wrong answer")
            t2 = clock()
            self.failed += not ok
            self._pending.append((t1 - t0, t2 - t0))
            since += t2 - t0
            if since >= self.CALIBRATE_EVERY:
                self._recalibrate()
                since = 0.0
        self._recalibrate()
        self.active_s += time.perf_counter() - start
        self.rounds += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s


def run_phase(workload, seed: int, seconds: float = 0.0, rounds: int = 0) -> Phase:
    """The first round, then rounds until they have taken ``seconds`` of
    scaled op time; or exactly ``rounds`` rounds.

    A workload may put once-per-run ops into its first round, so that round
    does not count toward ``seconds``; the later rounds are alike, which
    keeps the ratios that make up the metrics the same whatever the number
    of rounds.  Stopping on scaled time keeps that number, and so the sample
    that sets op_tail_ms, the same from run to run on one machine.  On a
    machine slowed more than twofold the phase stops at twice ``seconds``
    of wall-clock time instead, which bounds the length of a run.
    """
    rng = random.Random(seed)
    phase = Phase()
    phase.run_round(workload.round(rng, 0))
    first_busy, first_active = phase.busy_s, phase.active_s
    while (
        (phase.busy_s - first_busy < seconds and phase.active_s - first_active < 2 * seconds)
        if rounds == 0
        else phase.rounds < rounds
    ):
        phase.run_round(workload.round(rng, phase.rounds))
    return phase


def tail(latencies):
    """Latency at the highest percentile that leaves at least 10 samples above it."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(phase: Phase, setup_s: float) -> dict:
    tail_s, tail_pct = tail(phase.latencies)
    print(f"  op_tail_ms is p{tail_pct:.2f} of {phase.attempted} ops, 10 above it")
    print(f"  fail_frac {phase.failed / phase.attempted} ({phase.failed}/{phase.attempted})")
    print(f"  median time scale {statistics.median(phase.scales):.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (1000 * statistics.median(phase.latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Phase, plain: Phase) -> dict:
    rounds = traced.rounds
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / rounds, "s/round")
        out[f"{layer}.calls"] = (tracer.calls[layer] / rounds, "count/round")
        out[f"{layer}.errors"] = (tracer.errors[layer] / rounds, "count/round")
    per_round = [
        "negcurves.classes", "negcurves.identity_pairs", "config.scans",
        "config.decomp_box", "config.pa_calls", "fibers.models_built",
        "fibers.recognitions", "lattice.pair_calls", "lattice.make_lattice_calls",
        "cremona.steps", "classify.rows", "catalog.claims",
    ]
    for name in per_round:
        out[name] = (c[name] / rounds, "count/round")
    out["negcurves.classes_per_s"] = (ratio(c["negcurves.classes"], tracer.self_s["negcurves"]), "1/s")
    out["config.numpy_share"] = (ratio(c["config.numpy_scans"], c["config.scans"]), "ratio")
    out["config.undetermined_ratio"] = (ratio(c["config.undetermined"], c["config.pa_calls"]), "ratio")
    out["fibers.match_ratio"] = (ratio(c["fibers.matched"], c["fibers.recognitions"]), "ratio")
    out["trace.ops_per_s_delta"] = (plain.ops_per_s - traced.ops_per_s, "1/s")
    out["trace.overhead_frac"] = (ratio(plain.ops_per_s - traced.ops_per_s, plain.ops_per_s), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_coble()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    check_numpy_scan_threshold()
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare()
    workloads.prime(args.workload)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            main_phase = run_phase(workload, args.seed, seconds=args.seconds)
        finally:
            tracer.uninstall()
        plain = run_phase(workload, args.seed, rounds=main_phase.rounds)
        metrics = per_layer(tracer, main_phase, plain)
        failed = main_phase.failed + plain.failed
        attempted = main_phase.attempted + plain.attempted
    else:
        setup = setup_s(args.workload)
        main_phase = run_phase(workload, args.seed, seconds=args.seconds)
        metrics = end_to_end(main_phase, setup)
        failed, attempted = main_phase.failed, main_phase.attempted

    for line in main_phase.failures[:10]:
        print(f"  FAILED {line}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {main_phase.rounds} rounds, "
          f"{main_phase.attempted} ops in {main_phase.active_s:.2f} s wall clock, "
          f"{main_phase.busy_s:.2f} s scaled")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
