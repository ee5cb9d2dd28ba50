"""Plane-curve multiplicity vectors and Cremona degree reduction.

A vector (d; m1, ..., mk) records the degree of a plane curve and its
multiplicities at k points (simple points of multiplicity 1 may be kept:
they matter to the lattice embedding even though they do not contribute
to the genus).  Canonical form sorts multiplicities descending and drops
zeros.

The standard quadratic transformation based at three of the points sends
(d; m) to d' = 2d - mi - mj - mk with the three chosen multiplicities
replaced by d - mj - mk, d - mi - mk, d - mi - mj.  On the lattice side
this is the reflection in the root e0 - ei - ej - ek; the degree-5
transformation based at six points is likewise the reflection in
2 e0 - (e1 + ... + e6).  Both are computed by one formula on the vector:
reflecting in a e0 - sum_{i in idx} e_i adds a t to d and t to each m_i,
where t = a d - sum m_i.

``noether_reduce`` runs the classical greedy descent: while the three
largest singular multiplicities (simple points do not count, missing ones
pad as general points) sum to more than the degree, transform there.  One
special step is recognized: a quintic with six double points maps to a
line under the degree-5 transformation based at the six nodes, and the
reducer takes that step whenever the singular part is exactly
(5; 2,2,2,2,2,2).

Both transforms and the reducer take their steps through one in-place
reflection of a descending list (``_reflect_in_place``).  The reducer keeps
the degree and that one list across its steps, and since each step leaves
the list descending and positive, the vectors of its trace are built without
re-checking (``_canonical_vector``).  A reduction that needs more than
``MAX_REDUCTION_STEPS`` steps, or whose trace would store more than
``MAX_TRACE_ENTRIES`` multiplicities, stops with ``ReductionBudgetExceeded``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import lattice as lat


class TransformNotAdmissible(ValueError):
    """The requested transformation does not act on an effective curve this way."""


@dataclass(frozen=True)
class MultiplicityVector:
    d: int
    mults: tuple[int, ...] = ()

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"degree must be >= 0, got {self.d}")
        if any(m < 1 for m in self.mults):
            raise ValueError("canonical multiplicities are >= 1; use make_vector")
        if list(self.mults) != sorted(self.mults, reverse=True):
            raise ValueError("multiplicities must be sorted descending; use make_vector")

    def genus_proxy(self) -> int:
        """(d-1)(d-2)/2 - sum m(m-1)/2; 0 for irreducible rational curves.

        TESTS::

            >>> parse_vector("(6;2,2,2,2,2,2,2,2,2,2)").genus_proxy()
            0
            >>> parse_vector("(3)").genus_proxy()
            1
        """
        g = (self.d - 1) * (self.d - 2) // 2
        return g - sum(m * (m - 1) // 2 for m in self.mults)

    def singular(self) -> "MultiplicityVector":
        """The vector with simple points dropped."""
        return _canonical_vector(self.d, self.mults[: _singular_count(self.mults)])

    def __str__(self) -> str:
        if not self.mults:
            return f"({self.d})"
        return f"({self.d};{','.join(str(m) for m in self.mults)})"

    def describe(self) -> str:
        """Short english name for small degrees, else the vector string."""
        names = {0: "empty", 1: "line", 2: "conic"}
        if not self.singular().mults and self.d in names:
            return names[self.d]
        return str(self)

    def to_json(self) -> dict:
        return {"d": self.d, "mults": list(self.mults)}


_new, _set_field = object.__new__, object.__setattr__


def _canonical_vector(d: int, ms) -> MultiplicityVector:
    """The vector (d; ms) without ``__post_init__``: the caller guarantees
    d >= 0 and ms descending with every entry >= 1, as a reflection step on
    a canonical vector leaves them.  Vectors that users build go through
    ``MultiplicityVector`` or ``make_vector`` and keep every check."""
    v = _new(MultiplicityVector)
    _set_field(v, "d", d)
    _set_field(v, "mults", tuple(ms))
    return v


def _singular_count(ms, stop: int | None = None) -> int:
    """Length of the prefix of entries >= 2 of the descending sequence ms
    (the singular points), counted up to ``stop`` when given."""
    k, n = 0, len(ms) if stop is None else min(stop, len(ms))
    while k < n and ms[k] >= 2:
        k += 1
    return k


def make_vector(d: int, mults) -> MultiplicityVector:
    """Canonicalize: sort descending, drop zeros, reject negatives."""
    ms = sorted((int(m) for m in mults), reverse=True)
    if ms and ms[-1] < 0:
        raise ValueError(f"multiplicities must be >= 0, got {min(ms)}")
    return MultiplicityVector(int(d), tuple(m for m in ms if m > 0))


_VEC_RE = re.compile(r"^\(\s*(\d+)\s*(?:;([\d\s,]*))?\)$")


def parse_vector(text: str) -> MultiplicityVector:
    """Parse "(d;m1,m2,...)" or "(d)"; whitespace allowed around numbers.

    TESTS::

        >>> parse_vector("(6; 3,3, 2,2,2,2)")
        MultiplicityVector(d=6, mults=(3, 3, 2, 2, 2, 2))
        >>> parse_vector("(1)")
        MultiplicityVector(d=1, mults=())
    """
    s = text.strip()
    m = _VEC_RE.match(s)
    if not m:
        for pos, ch in enumerate(s):
            if ch not in "();, \t0123456789":
                raise ValueError(
                    f"cannot parse multiplicity vector {text!r}: "
                    f"unexpected character {ch!r} at position {pos}"
                )
        raise ValueError(
            f"cannot parse multiplicity vector {text!r}: expected \"(d;m1,m2,...)\""
        )
    d = int(m.group(1))
    body = (m.group(2) or "").strip()
    if not body:
        return make_vector(d, ())
    parts = [p.strip() for p in body.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"cannot parse multiplicity vector {text!r}: empty entry")
    return make_vector(d, (int(p) for p in parts))


def to_class(v: MultiplicityVector, n_points: int | None = None) -> lat.DivisorClass:
    """d e0 - sum mi e_i in the lattice of n_points blow-ups of the plane."""
    n = len(v.mults) if n_points is None else int(n_points)
    if n < len(v.mults):
        raise ValueError(f"need at least {len(v.mults)} points, got {n}")
    l = lat.make_lattice(lat.P2(), n)
    coeffs = (v.d,) + tuple(-m for m in v.mults) + (0,) * (n - len(v.mults))
    return l.make_class(coeffs)


def from_class(c: lat.DivisorClass) -> MultiplicityVector:
    """Inverse of to_class, canonicalized; sign conventions enforced."""
    if not isinstance(c.lattice.base, lat.P2):
        raise ValueError("multiplicity vectors live over the plane")
    d = c.coeffs[0]
    if d < 0:
        raise ValueError(f"degree coefficient must be >= 0, got {d}")
    tail = c.coeffs[1:]
    if any(x > 0 for x in tail):
        raise ValueError("exceptional coefficients must be <= 0")
    return make_vector(d, (-x for x in tail))


def _reflect_in_place(d: int, ms: list[int], a: int, idx) -> int:
    """Reflect (d; ms) in the root a e0 - sum_{i in idx} e_i and return the
    new degree: with t = a d - sum ms_i, d += a t and ms_i += t.  ``ms`` is
    descending and positive; indices past its end are general points of
    multiplicity zero.  On return ``ms`` is descending with its zeros
    dropped; a refused step raises before changing it."""
    n = len(ms)
    mi = [ms[i] if i < n else 0 for i in idx]
    t = a * d - sum(mi)
    if d + a * t < 0 or t + min(mi) < 0:
        raise TransformNotAdmissible(
            f"transformation not admissible for this vector: "
            f"({d};...) at multiplicities {','.join(map(str, mi))}"
        )
    ms.extend([0] * (max(idx) + 1 - n))
    for i in idx:
        ms[i] += t
    ms.sort(reverse=True)
    while ms and not ms[-1]:
        ms.pop()
    return d + a * t


def _reflect(v: MultiplicityVector, a: int, idx: list[int]) -> MultiplicityVector:
    """The vector v reflected in the root a e0 - sum_{i in idx} e_i."""
    ms = list(v.mults)
    return _canonical_vector(_reflect_in_place(v.d, ms, a, idx), ms)


def quadratic_transform(v: MultiplicityVector, i: int, j: int, k: int) -> MultiplicityVector:
    """Quadratic transformation based at points i, j, k (0-based indices):
    the reflection in the root e0 - e_i - e_j - e_k.

    Indices past the end of the vector are general points of multiplicity
    zero.  The result is canonical (sorted, zeros dropped).

    TESTS::

        >>> str(quadratic_transform(parse_vector("(4;2,2,2)"), 0, 1, 2))
        '(2)'
        >>> str(quadratic_transform(parse_vector("(5;3,2,2,2)"), 0, 1, 2))
        '(3;2,1)'
        >>> str(quadratic_transform(parse_vector("(6;4,2,2,2,2)"), 0, 1, 2))
        '(4;2,2,2)'
    """
    if len({i, j, k}) != 3 or min(i, j, k) < 0:
        raise ValueError("centers must be three distinct nonnegative indices")
    return _reflect(v, 1, [i, j, k])


def quintic_transform(v: MultiplicityVector, indices) -> MultiplicityVector:
    """Degree-5 transformation based at six points: the reflection in the
    root 2 e0 - (e_a + ... + e_f) for the six chosen indices.

    TESTS::

        >>> str(quintic_transform(parse_vector("(5;2,2,2,2,2,2)"), range(6)))
        '(1)'
        >>> str(quintic_transform(parse_vector("(6;2,2,2,2,2,2)"), range(6)))
        '(6;2,2,2,2,2,2)'
    """
    idx = [int(i) for i in indices]
    if len(idx) != 6 or len(set(idx)) != 6 or min(idx) < 0:
        raise ValueError("need six distinct nonnegative point indices")
    return _reflect(v, 2, idx)


@dataclass(frozen=True)
class ReductionStep:
    op: str  # "quadratic" | "quintic"
    centers: tuple[int, ...]  # multiplicities at the chosen centers
    padded: bool  # True when a general (multiplicity-0) point was used
    result: MultiplicityVector

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "centers": list(self.centers),
            "padded": self.padded,
            "result": self.result.to_json(),
            "display": str(self.result.singular()),
        }


@dataclass(frozen=True)
class ReductionResult:
    start: MultiplicityVector
    steps: tuple[ReductionStep, ...]
    final: MultiplicityVector

    def display_trace(self) -> list[str]:
        return [str(self.start.singular())] + [str(s.result.singular()) for s in self.steps]

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "final": self.final.to_json(),
            "final_display": str(self.final.singular()),
            "describe": self.final.describe(),
        }


class ReductionError(ValueError):
    """Raised when a greedy step is inadmissible; carries the partial trace."""

    def __init__(self, message: str, start, steps):
        super().__init__(message)
        self.partial = ReductionResult(start, tuple(steps), steps[-1].result if steps else start)


class ReductionBudgetExceeded(ReductionError):
    """Raised when a reduction needs more than ``MAX_REDUCTION_STEPS`` steps
    or more than ``MAX_TRACE_ENTRIES`` stored multiplicities; carries the
    partial trace of the steps taken."""


# Each step keeps its vector in the trace, about 510 B on nine points.  A
# refused 9-point reduction stops at this budget after 1.0-1.1 s and 51 MB
# (2-vCPU x86-64, Python 3.11).  The rational 9-point vector
# (3n^2; n^2+n, n^2 six times, n^2-1, n^2-n) takes 4(n-1) steps, so it
# reduces within the budget up to n = 25,001, a degree of about 1.9 * 10^9.
MAX_REDUCTION_STEPS = 100_000

# Each step's vector stores all k points, and simple points leave the genus
# proxy at 0, so k has no bound of its own: the trace also stops at this many
# stored multiplicities in all, at about 7.6 B each (2-vCPU x86-64, Python
# 3.11).  The vector above at n = 500 with 4,000 simple points added (1,996
# steps) is refused after 1,247 steps, 0.11 s and 38 MB.  With 41 simple
# points both budgets bind at once (100,000 steps of 50 entries), the
# costliest refusal: 0.8-0.9 s and 83 MB.  At n = 18,257 (d about 10^9, no
# simple points) the trace stores 0.66 M entries.
MAX_TRACE_ENTRIES = 5_000_000

_QUINTIC_SHAPE = (2, 2, 2, 2, 2, 2)


def noether_reduce(v: MultiplicityVector, force: bool = False, use_quintic: bool = True) -> ReductionResult:
    """Greedy degree reduction at the three largest singular points.

    Requires the genus proxy to vanish (an irreducible rational curve)
    unless ``force`` is set.  The degree strictly decreases at every step,
    so the reduction ends; a reduction that needs more than
    ``MAX_REDUCTION_STEPS`` steps, or whose step vectors hold more than
    ``MAX_TRACE_ENTRIES`` multiplicities in all, raises
    ``ReductionBudgetExceeded``.  The trace records each step with the
    multiplicities used as centers.

    TESTS::

        >>> noether_reduce(parse_vector("(6;3,3,3,2)")).display_trace()
        ['(6;3,3,3,2)', '(3;2)']
        >>> noether_reduce(parse_vector("(5;2,2,2,2,2,2)")).final.describe()
        'line'
        >>> noether_reduce(parse_vector("(5;2,2,2,2,2,2)"), use_quintic=False).final.describe()
        'conic'
    """
    if not force and v.genus_proxy() != 0:
        raise ValueError(
            f"{v} has genus proxy {v.genus_proxy()}, not an irreducible rational "
            "curve vector; pass force=True to reduce anyway"
        )
    steps: list[ReductionStep] = []
    entries = 0  # multiplicities stored by the step vectors so far
    d, ms = v.d, list(v.mults)  # ms stays descending, so the singular points lead
    while True:
        # the singular part is exactly (5; 2,2,2,2,2,2)
        if use_quintic and d == 5 and _singular_count(ms, 7) == 6 and ms[0] == 2:
            op, a, top, centers = "quintic", 2, _QUINTIC_SHAPE, range(6)
        else:
            n_sing = _singular_count(ms, 3)
            top = tuple(ms[:n_sing]) + (0,) * (3 - n_sing)
            if sum(top) <= d:
                break
            # pad with fresh general points past the end
            op, a, centers = "quadratic", 1, [*range(n_sing), *range(len(ms), len(ms) + 3 - n_sing)]
        if len(steps) >= MAX_REDUCTION_STEPS:
            raise ReductionBudgetExceeded(
                f"reduction of {v} stopped after {len(steps)} steps: it needs more "
                f"than the budget of {MAX_REDUCTION_STEPS} steps (MAX_REDUCTION_STEPS)",
                v,
                steps,
            )
        try:
            d = _reflect_in_place(d, ms, a, centers)
        except TransformNotAdmissible as exc:
            raise ReductionError(str(exc), v, steps) from exc
        entries += len(ms)
        if entries > MAX_TRACE_ENTRIES:
            raise ReductionBudgetExceeded(
                f"reduction of {v} stopped after {len(steps)} steps: its trace needs "
                f"more than the budget of {MAX_TRACE_ENTRIES} stored multiplicities "
                "(MAX_TRACE_ENTRIES)",
                v,
                steps,
            )
        steps.append(ReductionStep(op, top, 0 in top, _canonical_vector(d, ms)))
    return ReductionResult(v, tuple(steps), steps[-1].result if steps else v)


def low_degree_rational_family() -> list[MultiplicityVector]:
    """All rational-curve vectors the greedy reducer is guaranteed to finish.

    Degrees 4 to 6, vanishing genus proxy, no point of multiplicity d - 1,
    any two multiplicities summing to at most d (two points of an
    irreducible curve lie on a line), and for degree 6 a point of
    multiplicity at least 3.

    TESTS::

        >>> [str(v) for v in low_degree_rational_family()]  # doctest: +NORMALIZE_WHITESPACE
        ['(4;2,2,2)', '(5;2,2,2,2,2,2)', '(5;3,2,2,2)', '(6;3,2,2,2,2,2,2,2)',
         '(6;3,3,2,2,2,2)', '(6;3,3,3,2)', '(6;4,2,2,2,2)']
    """
    out = []
    for d in (4, 5, 6):
        target = (d - 1) * (d - 2) // 2
        out.extend(_partitions_into_mults(d, target, d - 2, ()))
    vecs = sorted(set(out), key=lambda v: (v.d, v.mults))
    return [
        v
        for v in vecs
        if (v.d != 6 or any(m >= 3 for m in v.mults))
        and all(
            v.mults[i] + v.mults[j] <= v.d
            for i in range(len(v.mults))
            for j in range(i + 1, len(v.mults))
        )
    ]


def _partitions_into_mults(d, remaining, max_mult, acc):
    if remaining == 0:
        yield make_vector(d, acc)
        return
    for m in range(max_mult, 1, -1):
        w = m * (m - 1) // 2
        if w <= remaining:
            yield from _partitions_into_mults(d, remaining - w, m, acc + (m,))
