"""Layer probes: the per-layer rows of the ROADMAP baseline table.

    python3 perfbench/probes.py

Run from the root of a source checkout.  Each probe is timed ``REPEATS``
times, once plainly and once with the benchmark's span tracer installed;
the best and the median are printed as a markdown table next to the ROADMAP
baseline.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import coble.catalog  # noqa: E402
import coble.classify  # noqa: E402
import coble.cremona  # noqa: E402
import coble.fibers  # noqa: E402
import coble.lattice  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CATALOG, CatalogReduce  # noqa: E402

REPEATS = 5


def _probes():
    lat = coble.lattice.make_lattice(coble.lattice.P2(), 9)
    a = lat.make_class([6, -3, -2, -2, -2, -2, -2, -2, -2, 0])
    b = lat.make_class([3, -1, -1, -1, -1, -1, -1, -1, -1, -1])
    vector = coble.cremona.parse_vector("(6;3,2,2,2,2,2,2,2)")
    models = [coble.fibers.kodaira_fiber(name) for name in coble.fibers.FIBER_NAMES]
    inputs = CatalogReduce()
    inputs.prepare()
    golden = [coble.classify.input_from_json(row["input"]) for row in inputs.golden]

    # (row, unit, ROADMAP value, calls per timing, function)
    return [
        ("`pair` (rank 10)", "µs", 7.5, 10_000, lambda: coble.lattice.pair(a, b)),
        ("`make_lattice(P2, 9)`", "µs", 12, 2_000,
         lambda: coble.lattice.make_lattice(coble.lattice.P2(), 9)),
        ("`noether_reduce((6;3,2,2,2,2,2,2,2))`", "µs", 93, 1_000,
         lambda: coble.cremona.noether_reduce(vector)),
        ("`recognize_fiber`, all 28 models", "ms", 470, 1,
         lambda: [coble.fibers.recognize_fiber(m) for m in models]),
        ("`verify_example`, all 7 entries", "ms", 30, 1,
         lambda: [coble.catalog.verify_example(name) for name in CATALOG]),
        ("`match_rational_case`, 16 golden inputs", "ms", 12.5, 1,
         lambda: [coble.classify.match_rational_case(g) for g in golden]),
    ]


def _time(fn, calls: int, scale: float) -> tuple[float, float]:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls * scale)
    return min(samples), statistics.median(samples)


def main() -> int:
    probes = _probes()
    plain = {}
    for row, unit, _, calls, fn in probes:
        plain[row] = _time(fn, calls, 1e6 if unit == "µs" else 1e3)
    tracer = Tracer()
    tracer.install()
    try:
        traced = {
            row: _time(fn, calls, 1e6 if unit == "µs" else 1e3)
            for row, unit, _, calls, fn in probes
        }
    finally:
        tracer.uninstall()
    print(f"| Probe | ROADMAP | best of {REPEATS} | median | traced, best | now / ROADMAP |")
    print("| --- | --- | --- | --- | --- | --- |")
    for row, unit, roadmap, _, _ in probes:
        best, median = plain[row]
        print(f"| {row} | {roadmap:g} {unit} | {best:.3g} {unit} | {median:.3g} {unit} "
              f"| {traced[row][0]:.3g} {unit} | {best / roadmap:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
