"""Catalog of worked constructions and the claim evaluation engine.

``constructions.BUILDERS`` is the catalog.  Each builder makes one entry:
its blow-up sequences, configurations and claims, every claim with its
expected value beside its arguments.  A builder's signature states the
entry's parameters and their defaults; a static entry's builder takes
none.

``verify_example`` builds an entry, recomputes every claim and reports
each comparison.  ``CHECKS`` maps each check name to its evaluator, whose
parameters are the claim's arguments: divisor classes (``DivisorClass``
values or lists of them), a ``BlowUpSequence``, a ``CurveConfiguration``
or plain data.  Inside a dict expected value, ``None`` marks a field as
unchecked.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from . import constructions
from .classify import (
    halphen_k3_predicate,
    input_from_json,
    is_k3_type,
    jacobian_bound_check,
    log_enriques_shape,
    match_rational_case,
    minimality_check,
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


def _blow_down_chain(sequence, contract, track=None, extra_blowups=0):
    """Contract a list of curves in order, tracking one extra class.

    Each listed class must have self-intersection -1 at its turn (earlier
    contractions transform the later classes), as for an iterated
    blow-down.  Returns the canonical self-intersection after the
    contractions (minus any further declared blow-ups) and the final
    self-intersection of the tracked class.
    """
    done = []

    def push_down(cls):
        for e in done:
            cls = cls + pair(cls, e) * e
        return cls

    for raw in contract:
        cur = push_down(raw)
        if cur.self_intersection() != -1:
            raise ValueError(
                f"chain step {raw} has self-intersection "
                f"{cur.self_intersection()}, not -1"
            )
        done.append(cur)
    k_squared = sequence.k_squared() + len(done) - int(extra_blowups)
    track_square = None if track is None else push_down(track).self_intersection()
    return {"k_squared": k_squared, "track_square": track_square}


def _disjoint_minus_ones(curves) -> bool:
    return all(c.self_intersection() == -1 for c in curves) and all(
        pair(a, b) == 0 for i, a in enumerate(curves) for b in curves[i + 1 :]
    )


def _section_pattern(sections, fiber) -> bool:
    return (
        fiber.self_intersection() == 0
        and all(pair(s, fiber) == 1 for s in sections)
        and _disjoint_minus_ones(sections)
    )


# check name -> evaluator; a claim's args are the evaluator's keyword arguments
CHECKS = {
    "class-identity": lambda lhs, rhs: not any((lhs - rhs).coeffs),
    "combination-square": lambda cls: cls.self_intersection(),
    "combination-genus": lambda cls: arithmetic_genus(cls),
    "all-squares": lambda curves: sorted({c.self_intersection() for c in curves}),
    "pairing": pair,
    "k-squared": lambda sequence: sequence.k_squared(),
    "blow-down-chain": _blow_down_chain,
    "disjoint-minus-ones": _disjoint_minus_ones,
    "section-pattern": _section_pattern,
    "fiber-type": lambda configuration: recognize_fiber(configuration),
    "k3-type": lambda configuration: is_k3_type(configuration).is_k3_type,
    "log-enriques": lambda configuration: log_enriques_shape(configuration).ok,
    "minimality": lambda configuration, member, e: minimality_check(configuration, member, e).verdict,
    "match-case": lambda input: list(match_rational_case(input_from_json(input)).matched_cases),
    "jacobian-bound": lambda fiber, g: jacobian_bound_check(fiber, g).ok,
    "halphen-k3": lambda fibers: halphen_k3_predicate(*fibers),
    "reduce": lambda vector: noether_reduce(parse_vector(vector)).final.describe(),
}


def run_check(check: str, args: dict):
    """Evaluate one claim; returns the actual value the claim compares."""
    if check not in CHECKS:
        raise KeyError(f"unknown check {check!r}")
    return CHECKS[check](**args)


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
        actual = run_check(claim["check"], claim["args"])
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
                "name": name,
                "description": bundle.description,
                "parametric": bool(defaults),
                "parameters": defaults,
                "claims": len(bundle.claims),
            }
        )
    return out
