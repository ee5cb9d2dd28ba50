"""Catalog of worked constructions and the claim evaluation engine.

Each catalog entry is built by its builder in ``constructions.BUILDERS``,
which makes the blow-up sequences, configurations and claim arguments.
The JSON data file shipped with the package holds only what the builder
is checked against: name, description, default parameters (empty for a
static entry) and, per claim, its description, check name and frozen
expected value (an integer or an affine form in the parameters).  A data
file is regenerated as ``json.dumps(bundle_to_json(BUILDERS[name]()),
indent=1)`` plus a final newline.

``verify_example`` evaluates every claim of an entry and reports each
comparison.  The claim language:

  class-identity       {sequence, lhs, rhs}            -> bool
  combination-square   {sequence, terms}               -> int
  combination-genus    {sequence, terms}               -> int
  all-squares          {sequence, curves}              -> sorted distinct squares
  pairing              {sequence, a, b}                -> int
  k-squared            {sequence}                      -> int
  blow-down-chain      {sequence, contract, track?,
                        extra_blowups?}                -> {k_squared, track_square}
  disjoint-minus-ones  {sequence, curves}              -> bool
  section-pattern      {sequence, sections, fiber}     -> bool
  fiber-type           {configuration}                 -> name or None
  k3-type              {configuration}                 -> bool
  log-enriques         {configuration}                 -> bool
  terminal             {configuration}                 -> bool
  minimality           {configuration, member, e}      -> verdict string
  match-case           {input}                         -> matched case numbers
  jacobian-bound       {fiber, g}                      -> bool
  halphen-k3           {fibers}                        -> bool
  reduce               {vector}                        -> final shape description

Linear combinations are lists of (name, coefficient) terms in the term
language of ``blowup.combination``, which evaluates them.  An expected
value of the form ``{"affine": {"const": c, "<param>": a, ...}}`` means
c + sum a*param; inside a dict expected value, ``None`` marks a field as
unchecked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import constructions
from .blowup import combination, verify_class_identity
from .classify import (
    halphen_k3_predicate,
    input_from_json,
    is_k3_type,
    jacobian_bound_check,
    log_enriques_shape,
    match_rational_case,
    minimality_check,
    terminal_shape,
)
from .cremona import noether_reduce, parse_vector
from .fibers import recognize_fiber
from .lattice import arithmetic_genus, pair


def _data_root():
    return resources.files("coble").joinpath("data", "catalog")


def catalog_names() -> list[str]:
    return sorted(
        p.name[: -len(".json")]
        for p in _data_root().iterdir()
        if p.name.endswith(".json")
    )


def load_entry(name: str) -> dict:
    path = _data_root().joinpath(f"{name}.json")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise KeyError(f"no catalog entry named {name!r}") from None
    return json.loads(text)


def bundle_to_json(bundle) -> dict:
    """Serialize a built example as a catalog data file: the frozen claims."""
    return {
        "name": bundle.name,
        "description": bundle.description,
        "parametric": bundle.parametric,
        "parameters": dict(bundle.parameters),
        "claims": [
            {k: c[k] for k in ("description", "check", "expected")}
            for c in bundle.claims
        ],
    }


def _affine_value(form: dict, params: dict) -> int:
    value = int(form.get("const", 0))
    for name, coeff in form.items():
        if name == "const":
            continue
        if name not in params:
            raise KeyError(f"affine expected value references unknown parameter {name!r}")
        value += int(coeff) * int(params[name])
    return value


def _resolve_expected(expected, params: dict):
    if isinstance(expected, dict) and set(expected) == {"affine"}:
        return _affine_value(expected["affine"], params)
    if isinstance(expected, dict):
        return {k: _resolve_expected(v, params) for k, v in expected.items()}
    if isinstance(expected, list):
        return [_resolve_expected(v, params) for v in expected]
    return expected


def _matches(actual, expected) -> bool:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(
            v is None or (k in actual and _matches(actual[k], v))
            for k, v in expected.items()
        )
    if isinstance(expected, list):
        return isinstance(actual, list) and len(actual) == len(expected) and all(
            _matches(a, e) for a, e in zip(actual, expected)
        )
    return actual == expected


def _blow_down_chain(seq, assignments, contract, track=None, extra_blowups=0):
    """Contract a list of curves in order, tracking one extra class.

    Each listed combination must have self-intersection -1 at its turn
    (earlier contractions transform the later classes), as for an
    iterated blow-down.  Returns the canonical self-intersection after
    the contractions (minus any further declared blow-ups) and the final
    self-intersection of the tracked class.
    """
    done = []

    def push_down(cls):
        for e in done:
            cls = cls + pair(cls, e) * e
        return cls

    for raw in contract:
        cur = push_down(combination(seq, assignments, raw))
        if cur.self_intersection() != -1:
            raise ValueError(
                f"chain step {raw!r} has self-intersection "
                f"{cur.self_intersection()}, not -1"
            )
        done.append(cur)
    k_squared = seq.k_squared() + len(done) - int(extra_blowups)
    track_square = None
    if track is not None:
        track_square = push_down(combination(seq, assignments, track)).self_intersection()
    return {"k_squared": k_squared, "track_square": track_square}


def _section_pattern(seq, assignments, sections, fiber) -> bool:
    f = combination(seq, assignments, fiber)
    if f.self_intersection() != 0:
        return False
    classes = [combination(seq, assignments, s) for s in sections]
    for i, s in enumerate(classes):
        if s.self_intersection() != -1 or pair(s, f) != 1:
            return False
        if any(pair(s, t) != 0 for t in classes[i + 1 :]):
            return False
    return True


def _disjoint_minus_ones(seq, assignments, curves) -> bool:
    classes = [combination(seq, assignments, c) for c in curves]
    return all(c.self_intersection() == -1 for c in classes) and all(
        pair(a, b) == 0
        for i, a in enumerate(classes)
        for b in classes[i + 1 :]
    )


def run_check(check: str, args: dict, sequences: dict, configurations: dict):
    """Evaluate one claim; returns the actual value the claim compares."""
    if check == "class-identity":
        return bool(verify_class_identity(*sequences[args["sequence"]], args["lhs"], args["rhs"]))
    if check == "combination-square":
        return combination(*sequences[args["sequence"]], args["terms"]).self_intersection()
    if check == "combination-genus":
        return arithmetic_genus(combination(*sequences[args["sequence"]], args["terms"]))
    if check == "all-squares":
        seq, asg = sequences[args["sequence"]]
        return sorted({combination(seq, asg, c).self_intersection() for c in args["curves"]})
    if check == "pairing":
        seq, asg = sequences[args["sequence"]]
        return pair(combination(seq, asg, args["a"]), combination(seq, asg, args["b"]))
    if check == "k-squared":
        return sequences[args["sequence"]][0].k_squared()
    if check == "blow-down-chain":
        return _blow_down_chain(
            *sequences[args["sequence"]],
            args["contract"],
            args.get("track"),
            args.get("extra_blowups", 0),
        )
    if check == "disjoint-minus-ones":
        return _disjoint_minus_ones(*sequences[args["sequence"]], args["curves"])
    if check == "section-pattern":
        return _section_pattern(*sequences[args["sequence"]], args["sections"], args["fiber"])
    if check == "fiber-type":
        return recognize_fiber(configurations[args["configuration"]])
    if check == "k3-type":
        return is_k3_type(configurations[args["configuration"]]).is_k3_type
    if check == "log-enriques":
        return log_enriques_shape(configurations[args["configuration"]]).ok
    if check == "terminal":
        return terminal_shape(configurations[args["configuration"]])
    if check == "minimality":
        verdict = minimality_check(
            configurations[args["configuration"]], args["member"], args["e"]
        )
        return verdict.verdict
    if check == "match-case":
        return list(match_rational_case(input_from_json(args["input"])).matched_cases)
    if check == "jacobian-bound":
        return jacobian_bound_check(args["fiber"], args["g"]).ok
    if check == "halphen-k3":
        return halphen_k3_predicate(*args["fibers"])
    if check == "reduce":
        return noether_reduce(parse_vector(args["vector"])).final.describe()
    raise KeyError(f"unknown check {check!r}")


@dataclass(frozen=True)
class ClaimResult:
    description: str
    check: str
    expected: object
    actual: object
    passed: bool

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "check": self.check,
            "expected": self.expected,
            "actual": self.actual,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ExampleReport:
    name: str
    parameters: dict
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "ok": self.ok,
            "claims": [r.to_json() for r in self.results],
        }


def _materialize(entry: dict, params: dict | None):
    """Build an entry: sequences, configurations, claims and parameters.

    The builder makes every claim's arguments; the frozen expected values
    come from the data file, matched to the built claims by position.
    """
    defaults = entry["parameters"]
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ValueError(
            f"catalog entry {entry['name']!r} takes no parameters named "
            f"{', '.join(unknown)} (accepted: {', '.join(defaults) or 'none'})"
        )
    merged = {**defaults, **(params or {})}
    bundle = constructions.BUILDERS[entry["name"]](**merged)
    claims = []
    for i, (frozen, built) in enumerate(zip(entry["claims"], bundle.claims, strict=True)):
        if (frozen["check"], frozen["description"]) != (built["check"], built["description"]):
            raise ValueError(
                f"catalog data and constructor disagree on claim order for "
                f"{entry['name']!r} at claim {i}: {frozen['check']} "
                f"{frozen['description']!r} vs {built['check']} {built['description']!r}"
            )
        claims.append({**built, "expected": frozen["expected"]})
    return bundle.sequences, bundle.configurations, claims, merged


def verify_example(name: str, params: dict | None = None) -> ExampleReport:
    """Evaluate every claim of a catalog entry.

    TESTS::

        >>> verify_example("quintic-plus-line").ok
        True
        >>> rep = verify_example("scroll-fiber-tower", {"n": 4, "t": 1, "b": 11})
        >>> rep.ok, len(rep.results)
        (True, 5)
    """
    entry = load_entry(name)
    sequences, configurations, claims, merged = _materialize(entry, params)
    results = []
    for claim in claims:
        expected = _resolve_expected(claim["expected"], merged)
        actual = run_check(claim["check"], claim["args"], sequences, configurations)
        results.append(
            ClaimResult(
                description=claim["description"],
                check=claim["check"],
                expected=expected,
                actual=actual,
                passed=_matches(actual, expected),
            )
        )
    return ExampleReport(name=name, parameters=merged, results=tuple(results))


def catalog_summary() -> list[dict]:
    out = []
    for name in catalog_names():
        entry = load_entry(name)
        out.append(
            {
                "name": name,
                "description": entry["description"],
                "parametric": entry["parametric"],
                "parameters": entry["parameters"],
                "claims": len(entry["claims"]),
            }
        )
    return out
