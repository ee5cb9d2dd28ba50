"""Command-line front end.

Subcommands: reduce, classify, genus, enumerate, verify-example,
check-config, catalog.  Every subcommand takes ``--json`` for
machine-readable output.  Exit codes: 0 success / all checks pass,
1 check failure, 2 usage error (argparse's own convention).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import catalog_names, catalog_summary, verify_example
from .classify import input_from_json, is_k3_type, log_enriques_shape, match_rational_case, terminal_shape
from .config import check_snc, config_from_json, divisor_pa
from .cremona import ReductionBudgetExceeded, ReductionError, noether_reduce, parse_vector, to_class
from .fibers import recognize_fiber
from .lattice import arithmetic_genus, base_from_json, make_lattice
from .negcurves import enumerate_negative_classes


def _emit(data, as_json: bool, human):
    if as_json:
        # written piece by piece, so no second copy of the output is built
        json.dump(data, sys.stdout, indent=1)
        print()
    else:
        human(data)


def _read_input(path: str):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_reduce(args) -> int:
    try:
        vector = parse_vector(args.vector)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = noether_reduce(
            vector, force=args.force, use_quintic=not args.no_quintic
        )
    except ReductionBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReductionError as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def human(data):
        for line in result.display_trace():
            print(line)
        print(f"final: {data['describe']}")

    _emit(result.to_json(), args.json, human)
    return 0


def _cmd_genus(args) -> int:
    try:
        vector = parse_vector(args.vector)
        cls = to_class(vector)
        pa = arithmetic_genus(cls)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = {"vector": str(vector), "class": list(cls.coeffs), "p_a": pa}
    _emit(data, args.json, lambda d: print(f"p_a = {d['p_a']}"))
    return 0


def _cmd_classify(args) -> int:
    try:
        inp = input_from_json(_read_input(args.input))
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: cannot read classification input: {exc}", file=sys.stderr)
        return 2
    try:
        report = match_rational_case(inp)
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def human(data):
        if data["matched_cases"]:
            print("matched cases:", ", ".join(str(c) for c in data["matched_cases"]))
        else:
            print("no case matched")
        width = max((len(c["name"]) for c in data["constraints"]), default=4)
        for c in data["constraints"]:
            flag = "ok" if c["passed"] else "FAIL"
            print(
                f"  case {c['case']:>2}  {flag:<4}  {c['name']:<{width}}  "
                f"actual={c['actual']}  required={c['required']}"
            )
        for case, notes in data.get("assumed", {}).items():
            for note in notes:
                print(f"  case {case:>2}  assumed: {note}")

    _emit(report.to_json(), args.json, human)
    return 0 if report.matched_cases else 1


def _cmd_enumerate(args) -> int:
    try:
        base = base_from_json(args.base)
        lattice = make_lattice(base, args.points)
        classes = enumerate_negative_classes(
            lattice, args.negativity, args.cap, args.shape
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = {
        "base": str(base),
        "points": args.points,
        "negativity": args.negativity,
        "degree_cap": args.cap,
        "shape": args.shape,
        "count": len(classes),
        "classes": [list(c.coeffs) for c in classes],
    }

    def human(d):
        for c in classes:
            print(str(c))
        print(f"count: {d['count']}")

    _emit(data, args.json, human)
    return 0


def _cmd_verify_example(args) -> int:
    params = {}
    for item in args.param or ():
        key, _, value = item.partition("=")
        if not _ or not key:
            print(f"error: --param wants NAME=INTEGER, got {item!r}", file=sys.stderr)
            return 2
        try:
            params[key] = int(value)
        except ValueError:
            print(f"error: parameter {key!r} must be an integer", file=sys.stderr)
            return 2
    if args.name not in catalog_names():
        print(
            f"error: no catalog entry named {args.name!r}; available: "
            + ", ".join(catalog_names()),
            file=sys.stderr,
        )
        return 2
    try:
        report = verify_example(args.name, params or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # raised by a claim of an entry that exists
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    def human(data):
        print(f"{data['name']}  parameters={data['parameters']}")
        for c in data["claims"]:
            flag = "PASS" if c["passed"] else "FAIL"
            print(f"  {flag}  [{c['check']}] {c['description']}")
            if not c["passed"]:
                print(f"        expected={c['expected']!r} actual={c['actual']!r}")
        print("result:", "pass" if data["ok"] else "fail")

    _emit(report.to_json(), args.json, human)
    return 0 if report.ok else 1


def _cmd_check_config(args) -> int:
    try:
        raw = _read_input(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input!r}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = config_from_json(raw)
    except (ValueError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    snc = check_snc(cfg)
    pa = divisor_pa(cfg)
    data = {
        "nodes": len(cfg.nodes),
        "edges": len(cfg.edges),
        "snc": snc.passed,
        "snc_violations": list(snc.violations),
        "p_a": None if not isinstance(pa, int) else pa,
        "fiber_type": recognize_fiber(cfg),
        "k3_type": is_k3_type(cfg).is_k3_type,
        "terminal": terminal_shape(cfg),
        "log_enriques": log_enriques_shape(cfg).ok,
    }

    def human(d):
        print(f"nodes: {d['nodes']}, edges: {d['edges']}")
        print(f"snc: {'ok' if d['snc'] else 'violated'}")
        for v in d["snc_violations"]:
            print(f"  - {v}")
        print(f"p_a: {'undetermined' if d['p_a'] is None else d['p_a']}")
        print(f"fiber type: {d['fiber_type'] or 'not a recognized fiber'}")
        print(f"k3-type member: {d['k3_type']}")
        print(f"terminal shape: {d['terminal']}")
        print(f"log-enriques shape: {d['log_enriques']}")

    _emit(data, args.json, human)
    return 0


def _cmd_catalog(args) -> int:
    entries = catalog_summary()

    def human(rows):
        for e in rows:
            params = ""
            if e["parametric"]:
                params = " (parameters: " + ", ".join(
                    f"{k}={v}" for k, v in e["parameters"].items()
                ) + ")"
            print(f"{e['name']}{params}")
            print(f"    {e['description']}")
            print(f"    claims: {e['claims']}")

    _emit(entries, args.json, human)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``coble`` parser, built on first use and shared afterwards:
    ``parse_args`` fills a new namespace on each call and leaves the parser
    as it was."""
    parser = argparse.ArgumentParser(
        prog="coble",
        description="Exact integer computations for rational surfaces with "
        "empty anticanonical but nonempty bi-anticanonical system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run the degree-reduction algorithm on a multiplicity vector")
    p.add_argument("vector", help='multiplicity vector, e.g. "(6;3,3,2,2,2,2)"')
    p.add_argument("--no-quintic", action="store_true", help="restrict to quadratic steps")
    p.add_argument("--force", action="store_true", help="skip the rationality (genus proxy) precondition")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("genus", help="arithmetic genus of a plane curve with ordinary singular points")
    p.add_argument("vector", help='multiplicity vector, e.g. "(6;2,2,2,2,2,2,2,2,2,2)"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("classify", help="match direct-image data against the sixteen rational-type shapes")
    p.add_argument("--input", required=True, help="JSON file with the classification input, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate numerical negative-curve classes on a blow-up lattice")
    p.add_argument("--base", default="P2", help="P2 (default), P1xP1 or F<b>")
    p.add_argument("--points", type=int, default=9, help="number of blown-up points (default 9)")
    p.add_argument("-n", "--negativity", type=int, default=1, help="enumerate (-n)-classes (default 1)")
    p.add_argument("--cap", type=int, default=5, help="degree cap (default 5)")
    p.add_argument("--shape", default="effective-shape", choices=["effective-shape", "lattice-only"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-example", help="re-run the stored claims of a catalog entry")
    p.add_argument("name", help="catalog entry name (see 'coble catalog')")
    p.add_argument("--param", action="append", metavar="NAME=VALUE", help="override a constructor parameter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_example)

    p = sub.add_parser("check-config", help="validate a curve-configuration JSON file and report its predicates")
    p.add_argument("--input", required=True, help="JSON file with the configuration, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_config)

    p = sub.add_parser("catalog", help="list the worked-example catalog")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
