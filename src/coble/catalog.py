"""Catalog of worked constructions and the claim evaluation engine.

``constructions.BUILDERS`` is the catalog.  Each builder makes one entry:
its blow-up sequences, configurations and claims, every claim with its
expected value beside its arguments.  A builder's signature states the
entry's parameters and their defaults; a static entry's builder takes
none.

``verify_example`` builds an entry, recomputes every claim and reports
each comparison.  The claim language:

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
language of ``blowup.combination``, which evaluates them.  Inside a dict
expected value, ``None`` marks a field as unchecked.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

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


def catalog_names() -> list[str]:
    return sorted(constructions.BUILDERS)


def _defaults(builder) -> dict:
    """The builder's parameters and their defaults, in signature order."""
    return {p.name: p.default for p in inspect.signature(builder).parameters.values()}


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


def verify_example(name: str, params: dict | None = None) -> ExampleReport:
    """Build a catalog entry and evaluate every claim against its expected value.

    TESTS::

        >>> verify_example("quintic-plus-line").ok
        True
        >>> rep = verify_example("scroll-fiber-tower", {"n": 4, "t": 1, "b": 11})
        >>> rep.ok, len(rep.results)
        (True, 5)
    """
    try:
        builder = constructions.BUILDERS[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None
    defaults = _defaults(builder)
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ValueError(
            f"catalog entry {name!r} takes no parameters named "
            f"{', '.join(unknown)} (accepted: {', '.join(defaults) or 'none'})"
        )
    merged = {**defaults, **(params or {})}
    bundle = builder(**merged)
    results = []
    for claim in bundle.claims:
        actual = run_check(claim["check"], claim["args"], bundle.sequences, bundle.configurations)
        results.append(
            ClaimResult(
                description=claim["description"],
                check=claim["check"],
                expected=claim["expected"],
                actual=actual,
                passed=_matches(actual, claim["expected"]),
            )
        )
    return ExampleReport(name=name, parameters=merged, results=tuple(results))


def catalog_summary() -> list[dict]:
    """Name, description, parameters and claim count of every entry, read
    from its build at the default parameters."""
    out = []
    for name in catalog_names():
        builder = constructions.BUILDERS[name]
        defaults = _defaults(builder)
        bundle = builder()
        out.append(
            {
                "name": bundle.name,
                "description": bundle.description,
                "parametric": bool(defaults),
                "parameters": defaults,
                "claims": len(bundle.claims),
            }
        )
    return out
