"""Seeded, stratified workloads over coble's public API.

A workload is prepared once (``prepare``) and then asked for rounds.  A round
is a fixed list of strata with a fixed number of ops each (the first round of
a run may hold extra strata); only the choices inside a stratum come from
the random generator, so every seed gives the same work profile.  Building a round calls nothing in coble: ops receive
plain data (coefficient lists, JSON objects, vector strings) and do all
parsing and computing inside the op.

Every op is ``Op(stratum, call, check)``: ``call()`` runs coble and returns
its answer, ``check(answer)`` compares it with an independent expectation
from ``oracles``.  Checks only read the answer's fields and call no coble
code, so a traced run charges nothing of theirs to a layer.

Each generator refuses inputs past the sizes that finish at the parent
commit, before emitting them:

* enumeration: P2 with at most 10 points, 10 points only at the caps in
  ``P2_TEN_POINTS`` (about 3.5 s each); P2 with 11 points at cap 4 runs for
  more than 60 s and is excluded;
* 1-connectivity: decomposition box at most 314,928 (the I8* fiber); larger
  supports, such as a 20-component chain of multiplicity-2 curves (3^20
  rows), would exhaust memory and are excluded;
* Cremona vectors: degree at most 10^6, so every class stays within int64.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import coble
import coble.catalog
import coble.classify
import coble.cli
import coble.config
import coble.cremona
import coble.fibers
import coble.lattice
import coble.negcurves

import oracles
from spans import NUMPY_SCAN_ABOVE

DATA = Path(__file__).resolve().parent / "data"

MAX_BOX = 314_928
MAX_DEGREE = 10**6
MAX_POINTS_P2, MAX_POINTS_F = 10, 9
P2_TEN_POINTS = ((1, 2), (2, 2))  # (n, cap) pairs that take ~3.5 s each
GROWTH_COUNTS = [45, 171, 423, 936, 1692]
GROWTH_MAXIMA = [1, 1, 2, 3, 3]
SHAPES = ("effective-shape", "lattice-only")
CATALOG = (
    "halphen-five-lines", "quintic-plus-line", "scroll-fiber-tower",
    "sections-to-minus-four", "three-lines-conic", "triangle-pencil",
    "two-star-fibers",
)
STAR_FIBERS = [f"I{b}*" for b in range(9)] + ["IV*", "III*", "II*"]


@dataclass
class Op:
    stratum: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _base(b):
    return coble.lattice.P2() if b is None else coble.lattice.Hirzebruch(b)


def _base_name(b) -> str:
    return "P2" if b is None else f"F{b}"


def run_cli(argv, stdin_text=""):
    """``coble.cli.main(argv)`` in-process, returning (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = coble.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# --------------------------------------------------------------- negclass-scan


def _admit_enumeration(b, k: int, n: int, cap: int) -> None:
    limit = MAX_POINTS_P2 if b is None else MAX_POINTS_F
    if k > limit:
        raise ValueError(f"{_base_name(b)} with {k} points does not finish at cap {cap}")
    if b is None and k == limit and (n, cap) not in P2_TEN_POINTS:
        raise ValueError(f"P2 with 10 points runs only at (n, cap) in {P2_TEN_POINTS}")


def _enumerate_op(stratum, b, k, n, cap, shape) -> Op:
    _admit_enumeration(b, k, n, cap)
    head = oracles.head_size(b)
    expected = oracles.negative_class_count(b, k, n, cap, shape)

    def call():
        lat = coble.lattice.make_lattice(_base(b), k)
        return coble.negcurves.enumerate_negative_classes(lat, n, cap, shape)

    def check(classes):
        return (
            len(classes) == expected
            and all(c.lattice.rank == head + k for c in classes)
            and oracles.negative_classes_ok([list(c.coeffs) for c in classes], b, n, cap, shape)
        )

    return Op(stratum, call, check)


def _growth_op(c: int) -> Op:
    def call():
        return coble.negcurves.exceptional_pairing_growth(range(1, c + 1))

    def check(rows):
        return (
            [r.cap for r in rows] == list(range(1, c + 1))
            and [r.class_count for r in rows] == GROWTH_COUNTS[:c]
            and [r.max_pairing for r in rows] == GROWTH_MAXIMA[:c]
        )

    return Op(f"growth-{c}", call, check)


def _cli_enumerate_op(b, k, n, cap, shape) -> Op:
    _admit_enumeration(b, k, n, cap)
    argv = ["enumerate", "--base", _base_name(b), "--points", str(k), "-n", str(n),
            "--cap", str(cap), "--shape", shape, "--json"]
    expected = oracles.negative_class_count(b, k, n, cap, shape)

    def check(answer):
        code, out = answer
        data = json.loads(out)
        rows = data["classes"]
        return code == 0 and data["count"] == len(rows) == expected and oracles.negative_classes_ok(
            rows, b, n, cap, shape
        )

    return Op("cli-enumerate", lambda: run_cli(argv), check)


class NegclassScan:
    """Negative-class enumeration on P2 (6-10 points) and F0-F3 (5-9 points),
    and the pairing-growth table for caps 1..c, c in {3, 4, 5}."""

    def prepare(self):
        pass

    def round(self, rng, index: int) -> list[Op]:
        # The four slowest ops (P2 with 10 points, the three growth tables)
        # run once per run, in the first round.  The other rounds are light
        # enough that a run holds many of them.  Each round has two F_b
        # 9-point ops of about 0.45 s, the slowest ops after the first round,
        # so that op_tail_ms, the 11th slowest op, falls in the middle of
        # their group of about 16 and not at its edge.
        #
        # Parameters are drawn only where the draw does not change the cost
        # much: caps of P2 with 6-7 points and of F_b with 5 points from cap
        # 3 on, n at P2 with 9 points and cap 3, b at F_b with 8, caps of
        # the light P2 8-point stratum.
        # Elsewhere the seed picks the shape flag and the CLI parameters.  So
        # the round's time, which sets ops_per_s, its median op and its
        # slowest ops are much the same for every seed.  The strata counts
        # put as many ops below the P2 7-point n = 2 ops (about 4 ms) as
        # above them, so that op_p50_ms falls in the middle of that group.
        ops = []
        if index == 0:
            n, cap = rng.choice(P2_TEN_POINTS)
            ops.append(_enumerate_op("P2-10", None, 10, n, cap, rng.choice(SHAPES)))
            ops += [_growth_op(c) for c in (3, 4, 5)]
        for k, copies, caps in ((6, 3, range(2, 7)), (7, 5, range(3, 7)), (8, 1, range(2, 6))):
            for _ in range(copies):
                for n in (1, 2, 3):
                    ops.append(_enumerate_op(f"P2-{k}", None, k, n, rng.choice(caps), rng.choice(SHAPES)))
        ops.append(_enumerate_op("P2-9", None, 9, rng.randint(1, 3), 3, rng.choice(SHAPES)))
        for b in range(4):
            for k in (5, 7):
                for n in (1, 2, 3):
                    cap = rng.randint(3, 4) if k == 5 else 3
                    ops.append(_enumerate_op(f"F-{k}", b, k, n, cap, rng.choice(SHAPES)))
        ops.append(_enumerate_op("F-8", rng.randint(2, 3), 8, 2, 2, rng.choice(SHAPES)))
        for b, n in ((1, 1), (2, 2)):
            ops.append(_enumerate_op("F-9", b, 9, n, 2, rng.choice(SHAPES)))
        for _ in range(4):
            b = rng.choice([None, 0, 1, 2, 3])
            ops.append(_cli_enumerate_op(b, rng.randint(5, 6), rng.randint(1, 3), rng.randint(2, 4), rng.choice(SHAPES)))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------- fiber-config


def _relabel(rng, model: dict) -> tuple[dict, dict]:
    """Shuffle nodes and edges, rename every node; returns (config, renaming)."""
    nodes = [dict(n) for n in model["nodes"]]
    rng.shuffle(nodes)
    names = rng.sample(range(100, 1000), len(nodes))
    rename = {n["id"]: f"x{name}" for n, name in zip(nodes, names)}
    for n in nodes:
        n["id"] = rename[n["id"]]
    edges = []
    for e in model["edges"]:
        a, b = rename[e["a"]], rename[e["b"]]
        if rng.random() < 0.5:
            a, b = b, a
        edges.append({**e, "a": a, "b": b})
    rng.shuffle(edges)
    data = {"nodes": nodes, "edges": edges}
    if "triples" in model:
        data["triples"] = [rng.sample([rename[x] for x in t], 3) for t in model["triples"]]
    return data, rename


def _check_config_pipeline(data: dict) -> dict:
    """The check-config path, in-process."""
    cfg = coble.config.config_from_json(data)
    pa = coble.config.divisor_pa(cfg)
    return {
        "snc": coble.config.check_snc(cfg).passed,
        "p_a": pa,
        "fiber_type": coble.fibers.recognize_fiber(cfg),
        "k3_type": coble.classify.is_k3_type(cfg).is_k3_type,
        "terminal": coble.classify.terminal_shape(cfg),
        "log_enriques": coble.classify.log_enriques_shape(cfg).ok,
    }


def _box(mults) -> int:
    return math.prod(m + 1 for m in mults)


def _admit_box(mults) -> None:
    if _box(mults) > MAX_BOX:
        raise ValueError(f"decomposition box {_box(mults)} exceeds {MAX_BOX}")


class FiberConfig:
    """Kodaira fiber recognition and configuration genus on relabelled models."""

    def prepare(self):
        # Model JSON is taken from coble once, before any timing or tracing.
        self.models = {
            name: coble.fibers.kodaira_fiber(name).to_json() for name in coble.fibers.FIBER_NAMES
        }

    def _fiber_op(self, rng, name) -> Op:
        data, _ = _relabel(rng, self.models[name])
        _admit_box([n["mult"] for n in data["nodes"]])

        def check(r):
            return r["fiber_type"] == name and r["p_a"] == 1

        return Op("fiber", lambda: _check_config_pipeline(data), check)

    def _near_miss_op(self, rng, name, drop_edge: bool) -> Op:
        """The model with one edge dropped or one self-intersection moved by 1."""
        data, _ = _relabel(rng, self.models[name])
        _admit_box([n["mult"] for n in data["nodes"]])
        if drop_edge:
            data["edges"].pop(rng.randrange(len(data["edges"])))
        else:
            rng.choice(data["nodes"])["self"] += rng.choice((-1, 1))
        return Op("near-miss", lambda: _check_config_pipeline(data), lambda r: r["fiber_type"] is None)

    def _split_op(self, rng) -> Op:
        n = rng.randint(2, 12)
        data, rename = _relabel(rng, self.models[f"I{n}"])
        cycle = [rename[f"C{i}"] for i in range(n)] if n > 2 else [rename["A"], rename["B"]]
        start, length = rng.randrange(n), rng.randint(1, n - 1)
        d1 = [cycle[(start + i) % n] for i in range(length)]
        d2 = [x for x in cycle if x not in d1]

        def call():
            cfg = coble.config.config_from_json(data)
            return coble.config.pa_sum_formula_check(cfg, d1, d2)

        def check(r):
            return r["holds"] and r["pa_sum"] == 1 and tuple(r["pa_parts"]) == (0, 0) and r["cross"] == 2

        return Op("pa-split", call, check)

    def _subdivisor_op(self, rng) -> Op:
        """A connected effective sub-divisor of a star fiber scanned without
        numpy (at most ``NUMPY_SCAN_ABOVE`` decompositions), checked against
        the exhaustive oracle."""
        name = rng.choice(STAR_FIBERS)
        data, _ = _relabel(rng, self.models[name])
        ids, gram = oracles.config_gram(data)
        while True:
            support = {rng.randrange(len(ids))}
            for _ in range(rng.randint(1, len(ids))):
                grow = [j for i in support for j in range(len(ids)) if gram[i][j] > 0 and j not in support]
                if grow:
                    support.add(rng.choice(grow))
            mults = [rng.randint(1, n["mult"]) if i in support else 0 for i, n in enumerate(data["nodes"])]
            if _box(mults) <= NUMPY_SCAN_ABOVE:
                break
        _admit_box(mults)
        subset = {i: m for i, m in zip(ids, mults) if m}
        support = sorted(support)
        k = rng.randint(1, 2)
        expected = oracles.k_connected(
            [[gram[i][j] for j in support] for i in support], [mults[i] for i in support], k
        )

        def call():
            cfg = coble.config.config_from_json(data)
            return coble.config.is_numerically_k_connected(cfg, subset, k)

        return Op("subdivisor", call, lambda r: r is expected)

    def _whole_star_op(self, rng, name) -> Op:
        """A whole star fiber: 2-connected by Zariski's lemma, and a
        multiplicity-1 component C has C.(F - C) = 2, so not 3-connected."""
        data, _ = _relabel(rng, self.models[name])
        _admit_box([n["mult"] for n in data["nodes"]])
        k = rng.randint(1, 3)

        def call():
            cfg = coble.config.config_from_json(data)
            return coble.config.is_numerically_k_connected(cfg, None, k)

        return Op("whole-star", call, lambda r: r is (k <= 2))

    def round(self, rng, index: int) -> list[Op]:
        # Two relabellings of every model and a third of I8*: the slowest
        # pipeline (I8*) then appears 15 or more times in a run, so that
        # op_tail_ms, the 11th slowest op, lands inside its group.
        names = coble.fibers.FIBER_NAMES
        ops = [self._fiber_op(rng, name) for name in names for _ in range(2)]
        ops.append(self._fiber_op(rng, "I8*"))
        ops += [
            self._near_miss_op(rng, name, drop_edge)
            for name in names
            if len(self.models[name]["nodes"]) > 1
            for drop_edge in (False, True)
        ]
        ops += [self._split_op(rng) for _ in range(6)]
        ops += [self._subdivisor_op(rng) for _ in range(12)]
        ops += [
            self._whole_star_op(rng, name)
            for name in STAR_FIBERS
            if _box([n["mult"] for n in self.models[name]["nodes"]]) > NUMPY_SCAN_ABOVE
        ]
        rng.shuffle(ops)
        return ops


# -------------------------------------------------------------- catalog-reduce


def rational_vector(rng, steps: int) -> tuple[int, list[int]]:
    """A plane rational curve (d; m) reached from a line by degree-raising
    quadratic steps, each based at three existing or fresh general points
    with m_i + m_j + m_k < d, keeping d <= MAX_DEGREE."""
    d, mults = 1, []
    for _ in range(steps):
        pool = list(range(len(mults) + 3))
        for _attempt in range(20):
            i, j, k = rng.sample(pool, 3)
            ms = mults + [0, 0, 0]
            s = ms[i] + ms[j] + ms[k]
            if s < d and 2 * d - s <= MAX_DEGREE:
                break
        else:
            break
        ms[i], ms[j], ms[k] = d - ms[j] - ms[k], d - ms[i] - ms[k], d - ms[i] - ms[j]
        d = 2 * d - s
        mults = sorted((m for m in ms if m), reverse=True)
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} exceeds {MAX_DEGREE}")
    return d, mults


def vector_text(d, mults) -> str:
    return f"({d};{','.join(map(str, mults))})" if mults else f"({d})"


def _final_ok(d: int, mults) -> bool:
    """The reduction ends at degree <= 3.

    The greedy rule uses singular points only, so it stops by design at a
    monoid (d; d-1) plus simple points; ``low_degree_rational_family``
    leaves points of multiplicity d - 1 out of its guarantee.  A few percent
    of the generated vectors end there, which is also accepted.
    """
    return d <= 3 or [m for m in mults if m > 1] == [d - 1]


def _reduce_ok(result, d, mults) -> bool:
    """C^2 and C.K are kept by every step, and the end is as ``_final_ok`` says."""
    start = oracles.vector_invariants(d, mults)
    chain = [result.start] + [s.result for s in result.steps]
    return (
        result.start.d == d
        and list(result.start.mults) == mults
        and all(oracles.vector_invariants(v.d, v.mults) == start for v in chain)
        and result.final == chain[-1]
        and _final_ok(result.final.d, result.final.mults)
    )


def _scroll_params(rng, n=None) -> dict:
    """Admissible scroll-fiber-tower parameters, n drawn from 3..12 unless given."""
    n = rng.randint(3, 12) if n is None else n
    t = rng.randint(0, min(n, 2))
    return {"n": n, "t": t, "b": rng.randint(t + 2 * (n - 1), t + 2 * n)}


class CatalogReduce:
    """Short interactive calls: catalog checks, Cremona reduction, the
    sixteen-case matcher, single pairings and every CLI subcommand but
    ``enumerate`` (which runs in negclass-scan, keeping negcurves out)."""

    def prepare(self):
        with open(DATA / "classify_inputs.json") as fh:
            inputs = json.load(fh)
        self.golden = inputs["golden"]
        self.perturbed = inputs["perturbed"]
        # Small fibers only (at most 144 decompositions): config stays light here.
        self.models = {
            name: coble.fibers.kodaira_fiber(name).to_json()
            for name in ("III", "IV", "I0*", "I1*") + tuple(f"I{n}" for n in range(2, 13))
        }

    def _verify_op(self, name, params) -> Op:
        def check(report):
            return report.ok and len(report.results) > 0 and report.name == name and all(
                report.parameters[k] == v for k, v in (params or {}).items()
            )

        return Op("verify", lambda: coble.catalog.verify_example(name, params), check)

    def _reduce_op(self, rng) -> Op:
        d, mults = rational_vector(rng, rng.randint(5, 40))
        text = vector_text(d, mults)

        def call():
            return coble.cremona.noether_reduce(coble.cremona.parse_vector(text))

        return Op("reduce", call, lambda r: _reduce_ok(r, d, mults))

    def _match_op(self, row) -> Op:
        def call():
            return coble.classify.match_rational_case(coble.classify.input_from_json(row["input"]))

        case = row["case"]
        expected = row.get("failing_constraint")

        def check(rep):
            failed = {c.name for c in rep.constraint_log if c.case == case and not c.passed}
            if expected is None:
                return rep.matched_cases == (case,) and not failed
            return rep.matched_cases == () and expected in failed

        return Op("match", call, check)

    def _lattice_op(self, rng) -> Op:
        b = rng.choice([None, 0, 1, 2, 3])
        n = rng.randint(3, 11) if b is None else rng.randint(2, 10)
        rank = oracles.head_size(b) + n
        xs = [[rng.randint(-6, 6) for _ in range(rank)] for _ in range(4)]
        # a (-2)-root: e0 - ei - ej - ek on P2, f - ei - ej on F_b
        root = [1] + [0] * (rank - 1)
        for p in rng.sample(range(oracles.head_size(b), rank), 3 if b is None else 2):
            root[p] = -1
        kc = oracles.canonical(b, n)

        def call():
            lat = coble.lattice.make_lattice(_base(b), n)
            cs = [lat.make_class(x) for x in xs]
            r = lat.make_class(root)
            pairs = [coble.lattice.pair(p, q) for p in cs for q in cs]
            return (
                pairs,
                coble.lattice.reflect(cs[0], r).coeffs,
                [coble.lattice.riemann_roch_chi(c) for c in cs],
            )

        def check(answer):
            pairs, reflected, chis = answer
            x0_r = oracles.pairing(xs[0], root, b)
            return (
                pairs == [oracles.pairing(p, q, b) for p in xs for q in xs]
                and list(reflected) == [a + x0_r * c for a, c in zip(xs[0], root)]
                and chis == [1 + (oracles.pairing(x, x, b) - oracles.pairing(x, kc, b)) // 2 for x in xs]
            )

        return Op("lattice", call, check)

    def _cli_ops(self, rng) -> list[Op]:
        d, mults = rational_vector(rng, rng.randint(5, 40))
        text = vector_text(d, mults)
        row = rng.choice(self.golden)
        name = rng.choice(sorted(self.models))
        fiber, _ = _relabel(rng, self.models[name])
        entry = rng.choice(CATALOG)
        params = []
        if entry == "scroll-fiber-tower":
            params = [f"{k}={v}" for k, v in _scroll_params(rng).items()]
        elif entry == "sections-to-minus-four":
            params = [f"m={rng.randint(1, 6)}"]

        def cli_op(stratum, argv, check, stdin_text=""):
            def checked(answer):
                code, out = answer
                return code == 0 and check(json.loads(out))

            return Op(stratum, lambda: run_cli(argv, stdin_text), checked)

        return [
            cli_op("cli-reduce", ["reduce", text, "--json"],
                   lambda j: [j["start"]["d"], j["start"]["mults"]] == [d, mults]
                   and _final_ok(j["final"]["d"], j["final"]["mults"])),
            cli_op("cli-genus", ["genus", text, "--json"], lambda j: j["p_a"] == 0),
            cli_op("cli-classify", ["classify", "--input", "-", "--json"],
                   lambda j: j["matched_cases"] == [row["case"]], json.dumps(row["input"])),
            cli_op("cli-verify-example",
                   ["verify-example", entry, "--json"] + [x for p in params for x in ("--param", p)],
                   lambda j: j["ok"] is True),
            cli_op("cli-check-config", ["check-config", "--input", "-", "--json"],
                   lambda j: j["fiber_type"] == name and j["p_a"] == 1, json.dumps(fiber)),
            cli_op("cli-catalog", ["catalog", "--json"],
                   lambda j: sorted(e["name"] for e in j) == list(CATALOG)),
        ]

    def round(self, rng, index: int) -> list[Op]:
        # The seeded scroll check runs at n = 12, the largest and slowest,
        # once per round.  These are the slowest ops, so op_tail_ms, the 11th
        # slowest op, falls inside their group of about 140 per run, rather
        # than on however many large-n draws a seed happens to make.
        ops = [self._verify_op(name, None) for name in CATALOG]
        ops.append(self._verify_op("scroll-fiber-tower", _scroll_params(rng, n=12)))
        ops.append(self._verify_op("sections-to-minus-four", {"m": rng.randint(1, 6)}))
        ops += [self._reduce_op(rng) for _ in range(16)]
        ops += [self._match_op(row) for row in self.golden + self.perturbed]
        ops += [self._lattice_op(rng) for _ in range(32)]
        ops += self._cli_ops(rng)
        rng.shuffle(ops)
        return ops


WORKLOADS = {
    "negclass-scan": NegclassScan,
    "fiber-config": FiberConfig,
    "catalog-reduce": CatalogReduce,
}


def prime(name: str) -> None:
    """What a fresh interpreter does before its first op is ready: list the
    catalog and pay the lazy set-up of the workload's first call."""
    coble.catalog.catalog_names()
    if name == "negclass-scan":
        coble.negcurves.enumerate_negative_classes(coble.lattice.make_lattice(coble.lattice.P2(), 6), 1, 2)
    elif name == "fiber-config":
        coble.fibers.recognize_fiber(coble.fibers.kodaira_fiber("I3"))
    else:
        coble.catalog.verify_example("quintic-plus-line")
