"""Classification predicates for rational-type bi-anticanonical data.

``match_rational_case`` takes the direct image on a minimal rational
surface of a decomposed bi-anticanonical member

    Gamma = k M1 + sum_i g_i G_i + sum_j H_j

together with the invariants (m, k) and an optional marked point p1, and
reports which of the sixteen admissible shapes the data fits.  Every
numerically checkable condition is logged by name with both sides of the
comparison; geometric clauses the data model cannot see (distinctness of
same-class curves, transversality, position genericity) are listed as
assumptions of the matched case rather than silently trusted.

The other predicates here concern curve configurations on the surface
itself: bounds for base-point towers over a genus-1 pencil's special
fiber, the reduced simple-normal-crossing test for K3-type members, the
disjoint-(-4) terminal shape, the chain shapes of index-2 log-terminal
degenerations, blow-down viability, and the fiber-type test for double
covers of index-1 and index-2 genus-1 pencils.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .config import UNDETERMINED, CurveConfiguration, _json_value, check_snc, divisor_pa
from .fibers import fiber_family
from .lattice import Base, DivisorClass, P2, _check_i64, base_from_json, make_lattice, pair


@dataclass(frozen=True)
class Component:
    role: str  # "M1" | "G" | "H"
    g: int
    cls: DivisorClass

    def __post_init__(self):
        if self.role not in ("M1", "G", "H"):
            raise ValueError(f"unknown component role {self.role!r}")
        if self.g < 1:
            raise ValueError("component coefficient must be >= 1")


@dataclass(frozen=True)
class MarkedPoint:
    on: tuple[int, ...]  # indices of the components through p1


@dataclass(frozen=True)
class RationalTypeInput:
    y_min: Base
    k: int
    m: int
    components: tuple[Component, ...]
    marked_point: MarkedPoint | None = None
    # role -> positions of its components, in input order
    _at: dict = field(init=False, repr=False, compare=False, hash=False)
    # positions of the components through p1
    _on: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        base_lat = make_lattice(self.y_min, 0)
        at = {"M1": [], "G": [], "H": []}
        for i, c in enumerate(self.components):
            at[c.role].append(i)
        if len(at["M1"]) != 1:
            raise ValueError("need exactly one mobile component (role M1)")
        if self.components[at["M1"][0]].g != self.k:
            raise ValueError("the mobile component's coefficient must equal k")
        for c in self.components:
            if c.cls.lattice != base_lat:
                raise ValueError(
                    f"component class {c.cls} does not live in the lattice of the "
                    "declared minimal surface"
                )
        on = ()
        if self.marked_point is not None:
            on = self.marked_point.on
            for i in on:
                if not 0 <= i < len(self.components):
                    raise ValueError(f"marked point references component {i}")
        object.__setattr__(self, "_at", {role: tuple(ix) for role, ix in at.items()})
        object.__setattr__(self, "_on", frozenset(on))

    @property
    def mobile(self) -> Component:
        return self.components[self._at["M1"][0]]

    def at(self, role: str) -> tuple[int, ...]:
        """Positions of the components of ``role``: equal components are
        distinct curves, told apart by position only."""
        return self._at.get(role, ())

    def parts(self, role: str) -> list[Component]:
        return [self.components[i] for i in self.at(role)]

    def on_p1(self, i: int) -> bool:
        """Whether component ``i`` passes through the marked point."""
        return i in self._on

    def to_json(self) -> dict:
        data = {
            "y_min": self.y_min.json_descriptor(),
            "k": self.k,
            "m": self.m,
            "components": [
                {"role": c.role, "g": c.g, "class": list(c.cls.coeffs)}
                for c in self.components
            ],
        }
        if self.marked_point is not None:
            data["marked_point"] = {"on": list(self.marked_point.on)}
        return data


def input_from_json(data) -> RationalTypeInput:
    """Read a classification input from JSON text or its decoded object.

    ``y_min`` goes through ``base_from_json``.  ``k``, ``m``, every ``g``,
    every class coefficient and every ``marked_point.on`` index must be a
    JSON integer; a non-integer or a wrong shape raises ValueError naming
    the field.
    """
    data = _json_value(data)
    lat = make_lattice(base_from_json(_json_field(data, "y_min")), 0)
    comps = []
    for i, c in enumerate(_json_field(data, "components", "", list)):
        where = f"components[{i}]."
        row = _json_field(c, "class", where, list)
        coeffs = [_json_typed(v, f"{where}class[{j}]", int) for j, v in enumerate(row)]
        if len(coeffs) != lat.rank:
            raise ValueError(f"{where}class needs {lat.rank} coefficients on {lat.base}, got {len(coeffs)}")
        role, g = _json_field(c, "role", where), _json_field(c, "g", where, int)
        comps.append(Component(str(role), g, lat.make_class(coeffs)))
    mp = None
    if "marked_point" in data:
        on = _json_field(data["marked_point"], "on", "marked_point.", list)
        mp = MarkedPoint(tuple(_json_typed(v, f"marked_point.on[{j}]", int) for j, v in enumerate(on)))
    k, m = (_json_field(data, key, "", int) for key in ("k", "m"))
    return RationalTypeInput(lat.base, k, m, tuple(comps), mp)


def _json_field(obj, key: str, where: str = "", kind=None):
    """``obj[key]``, checked to be of ``kind`` if given."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where.rstrip('.') or 'classification input'} must be a JSON object")
    if key not in obj:
        raise ValueError(f"missing field {where}{key}")
    return obj[key] if kind is None else _json_typed(obj[key], where + key, kind)


def _json_typed(value, name: str, kind: type):
    if type(value) is not kind:  # exact arithmetic: no bool, float or string for an int
        what = "integer" if kind is int else "array"
        try:
            got = json.dumps(value, default=repr)
        except RecursionError:  # decoded, but nested too deeply to encode from here
            got = "a value nested too deeply to print"
        raise ValueError(f"{name} must be a JSON {what}, got {got}")
    return value


class ConstraintCheck(NamedTuple):
    case: int
    name: str
    actual: str
    required: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "name": self.name,
            "actual": self.actual,
            "required": self.required,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class RationalCaseReport:
    matched_cases: tuple[int, ...]
    constraint_log: tuple[ConstraintCheck, ...]
    assumed: dict = field(default_factory=dict)

    def failures(self, case: int) -> list[ConstraintCheck]:
        return [c for c in self.constraint_log if c.case == case and not c.passed]

    def to_json(self) -> dict:
        return {
            "matched_cases": list(self.matched_cases),
            "constraints": [c.to_json() for c in self.constraint_log],
            "assumed": {str(k): list(v) for k, v in self.assumed.items()},
        }


# a ConstraintCheck from its (case, name, actual, required, passed) tuple,
# without the Python-level __new__ of a NamedTuple
_row = functools.partial(tuple.__new__, ConstraintCheck)


class _Shared(NamedTuple):
    """What every candidate case reads of one input, computed once."""

    # the anticanonical-class row and one section-pairing-bound row per G_i,
    # as (name, actual, required, passed): a case adds only its number
    anticanonical_row: tuple
    pairing_rows: tuple[tuple, ...]
    m1_square: int
    g_m1: tuple[int, ...]  # G_i . M1, in the order of the G components
    fixed_part_pairing: int  # sum g_i G_i . M1
    parts: dict[str, list[Component]]  # "G", "H" -> its components, in input order
    shape: dict[tuple[int, ...], str]  # class coefficients -> shape name, per distinct class
    mobile_shape: str
    shapes: dict[str, str]  # "G", "H" -> sorted "<g>x<shape>" terms joined by "+", or "none"
    # ruled bases only: sum g_i a_i and sum g_i b_i over all components (the
    # coefficients of Gamma), and sum g_i b_i over the G components
    f_total: int
    s_total: int
    g_s_total: int


def _shared(inp: RationalTypeInput) -> _Shared:
    # in the order the first case's rows read them (Gamma term by term, M1^2,
    # then each G_i . M1), so an OverflowError names the first value of that
    # order to leave the 64-bit range
    lat = make_lattice(inp.y_min, 0)
    total = [0] * lat.rank
    for c in inp.components:
        term = [c.g * a for a in c.cls.coeffs]
        total = [x + y for x, y in zip(total, term)]
        # as the class arithmetic checks them: g_i C_i, then the running sum
        for value in term + total:
            _check_i64(value)
    gamma = DivisorClass(lat, tuple(total))
    minus_2k = -2 * lat.canonical
    m1 = inp.mobile.cls
    m1_square = m1.self_intersection()
    parts = {role: inp.parts(role) for role in ("G", "H")}
    gs = parts["G"]
    g_m1 = tuple(pair(c.cls, m1) for c in gs)
    fixed = sum(c.g * p for c, p in zip(gs, g_m1))
    gamma_text, minus_2k_text = str(gamma), str(minus_2k)
    anticanonical = ("anticanonical-class", gamma_text, minus_2k_text, gamma_text == minus_2k_text)
    pairing_rows = tuple(("section-pairing-bound", str(p), "<= 2", p <= 2) for p in g_m1)
    shape = {k: _shape_name(inp.y_min, k) for k in {c.cls.coeffs for c in inp.components}}
    shapes = {}
    for role, cs in parts.items():
        terms = sorted(f"{c.g}x{shape[c.cls.coeffs]}" for c in cs)
        shapes[role] = "+".join(terms) if terms else "none"
    f_total = s_total = g_s_total = 0
    if not isinstance(inp.y_min, P2):
        f_total, s_total = gamma.coeffs
        g_s_total = sum(c.g * c.cls.coeffs[1] for c in gs)
    return _Shared(
        anticanonical, pairing_rows, m1_square, g_m1, fixed, parts, shape,
        shape[m1.coeffs], shapes, f_total, s_total, g_s_total,
    )


class _Rows:
    """Constraint accumulator for one candidate case; ``ok`` holds while
    every row so far has passed."""

    __slots__ = ("case", "shared", "rows", "ok")

    def __init__(self, case: int, shared: _Shared):
        self.case = case
        self.shared = shared
        self.rows: list[ConstraintCheck] = []
        self.ok = True

    def check(self, name: str, actual, required, passed=None) -> bool:
        if passed is None:
            passed = actual == required
        passed = bool(passed)
        self.rows.append(_row((self.case, name, str(actual), str(required), passed)))
        if not passed:
            self.ok = False
        return passed

    def add(self, rows) -> None:
        """Append (name, actual, required, passed) rows computed in ``_shared``.

        No input of the sixteen cases fails these rows alone, so no test
        sees ``ok`` cleared here first.  On P2 each case's shape and count
        rows fix deg Gamma = 6, which is the anticanonical row; on F_b that
        row is the f-degree and s0-degree rows of ``_scroll_rows`` together,
        and every ruled case runs them.  Likewise the shape rows bound every
        G_i . M1 by 2, save the negative section of cases 14 and 15, whose
        section-mobile-pairing row pins it to 1 or 2.
        """
        case = self.case
        for r in rows:
            self.rows.append(_row((case, *r)))
            if not r[3]:
                self.ok = False


def _shape_name(y_min: Base, coeffs: tuple[int, ...]) -> str:
    """Human name of a component class on the declared minimal surface."""
    if isinstance(y_min, P2):
        d = coeffs[0]
        return {1: "line", 2: "conic"}.get(d, f"degree-{d}")
    a, b = coeffs
    if (a, b) == (1, 0):
        return "fiber"
    if (a, b) == (0, 1):
        return "co-fiber" if y_min.b == 0 else "negative-section"
    if b == 1:
        return f"section({a}f+s0)"
    return f"class({a}f+{b}s0)"


def _common_rows(rows: _Rows, inp: RationalTypeInput, mk_required, marked_on_m1: bool):
    """Constraints shared by every case: class identity and m bookkeeping."""
    shared = rows.shared
    rows.add((shared.anticanonical_row,))
    rows.check("case-mk", (inp.m, inp.k), mk_required, (inp.m, inp.k) in mk_required)
    m_down = shared.m1_square
    expect_p1 = 1 if marked_on_m1 else 0
    rows.check(
        "mobile-self-intersection",
        f"{m_down} - {expect_p1} = {m_down - expect_p1}",
        f"m = {inp.m}",
        m_down - expect_p1 == inp.m,
    )
    if marked_on_m1:
        on = inp.on_p1(inp.at("M1")[0])
        rows.check("marked-point-on-mobile", "p1 on M1" if on else "p1 not on M1", "p1 on M1", on)
    rows.add(shared.pairing_rows)


def _fixed_part_pairing(rows: _Rows):
    rows.check("fixed-part-pairing", rows.shared.fixed_part_pairing, 4 + rows.shared.m1_square)


def _scroll_rows(rows: _Rows, inp: RationalTypeInput):
    """Coordinate split of the class identity on a ruled minimal surface,
    and the excess product forced by the fixed-part pairing."""
    n = inp.y_min.b
    shared = rows.shared
    rows.check("f-degree", shared.f_total, 2 * n + 4)
    rows.check("s0-degree", shared.s_total, 4)
    a, b = inp.mobile.cls.coeffs
    if b == 1:  # a section: M1 ~ a f + s0
        rows.check("ruling-excess-product", (a - n) * (3 - shared.g_s_total), 0)
    else:
        # mobile part lies in the ruling, so the excess identity is vacuous
        rows.check(
            "ruling-excess-product",
            "vacuous (mobile class is a fiber)",
            "(a - n)(3 - sum g_i b_i) = 0",
            True,
        )


def _incidence_row(rows: _Rows, inp: RationalTypeInput, required: dict) -> None:
    """required: component position -> bool (must/must-not pass through p1)."""
    if inp.marked_point is None:
        rows.check("marked-point-incidences", "no marked point given", "p1 data", False)
        return
    bad = []
    for i, want in required.items():
        have = inp.on_p1(i)
        if have != want:
            bad.append(f"component {i} ({inp.components[i].role}) {'on' if have else 'off'} p1")
    rows.check(
        "marked-point-incidences",
        "; ".join(bad) if bad else "as required",
        "as required",
        not bad,
    )


def _is(rows, c, name) -> bool:
    return rows.shared.shape[c.cls.coeffs] == name


# ---------------------------------------------------------------- P2 cases


def _case_1(inp, rows):
    g_at, h_at = inp.at("G"), inp.at("H")
    _common_rows(rows, inp, [(0, 1)], marked_on_m1=True)
    rows.check("mobile-shape", rows.shared.mobile_shape, "line")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "2xconic")
    rows.check("residual-shape", rows.shared.shapes["H"], "1xline")
    if g_at and h_at:
        _incidence_row(rows, inp, {h_at[0]: True, g_at[0]: False})
    return ["M1 and H1 are distinct lines", "Supp Gamma is simple normal crossing"]


def _case_2(inp, rows):
    gs, hs = rows.shared.parts["G"], rows.shared.parts["H"]
    _common_rows(rows, inp, [(0, 1), (0, 2)], marked_on_m1=True)
    rows.check("mobile-shape", rows.shared.mobile_shape, "line")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "2xline")
    rows.check(
        "residual-shape",
        all(_is(rows, h, "line") for h in hs) and bool(hs),
        True,
    )
    rows.check("residual-count", sum(h.g for h in hs), 4 - inp.k)
    req = dict.fromkeys(inp.at("H"), True)
    if gs:
        req[inp.at("G")[0]] = False
    _incidence_row(rows, inp, req)
    return ["M1 differs from every H_i; repeated H_i are allowed"]


def _case_3(inp, rows):
    g_at, h_at = inp.at("G"), inp.at("H")
    _common_rows(rows, inp, [(0, 1)], marked_on_m1=True)
    rows.check("mobile-shape", rows.shared.mobile_shape, "line")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "2xconic")
    rows.check("residual-shape", rows.shared.shapes["H"], "1xline")
    if g_at and h_at:
        _incidence_row(rows, inp, {h_at[0]: True, g_at[0]: True})
    return [
        "M1 and H1 meet the conic transversally at p1 and at two other points",
        "M1 and H1 are distinct lines",
    ]


def _case_4(inp, rows):
    hs = rows.shared.parts["H"]
    _common_rows(rows, inp, [(0, kk) for kk in range(1, 7)], marked_on_m1=True)
    rows.check("mobile-shape", rows.shared.mobile_shape, "line")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "none")
    rows.check(
        "residual-shape", all(_is(rows, h, "line") for h in hs) and bool(hs), True
    )
    rows.check("residual-count", sum(h.g for h in hs), 6 - inp.k)
    _incidence_row(rows, inp, dict.fromkeys(inp.at("H"), True))
    return ["M1 differs from every H_i; repeated H_i are allowed"]


def _case_5(inp, rows):
    gs = rows.shared.parts["G"]
    _common_rows(rows, inp, [(1, 1)], marked_on_m1=False)
    rows.check("mobile-shape", rows.shared.mobile_shape, "line")
    conics = [c for c in gs if _is(rows, c, "conic")]
    lines = [c for c in gs if _is(rows, c, "line")]
    rows.check("fixed-part-shape", len(conics) == 1 and len(lines) == len(gs) - 1, True)
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    if conics:
        g1 = conics[0].g
        rows.check("conic-coefficient", g1, "1 or 2", g1 in (1, 2))
        rows.check(
            "coefficient-sum", 2 * g1 + sum(c.g for c in lines), 5
        )
    _fixed_part_pairing(rows)
    return ["Sing(sum G_i) is disjoint from M1", "the lines are distinct curves"]


def _case_6(inp, rows):
    gs = rows.shared.parts["G"]
    _common_rows(rows, inp, [(1, 1)], marked_on_m1=False)
    rows.check("mobile-shape", rows.shared.mobile_shape, "line")
    rows.check(
        "fixed-part-shape", all(_is(rows, c, "line") for c in gs) and bool(gs), True
    )
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    rows.check("coefficient-sum", sum(c.g for c in gs), 5)
    _fixed_part_pairing(rows)
    return [
        "the J+1 lines are distinct",
        "no two G_i share a point on M1",
    ]


def _case_7(inp, rows):
    g_at = inp.at("G")
    _common_rows(rows, inp, [(3, 1)], marked_on_m1=True)
    rows.check("mobile-shape", rows.shared.mobile_shape, "conic")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "1xline+3xline")
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    triple = [i for i in g_at if inp.components[i].g == 3]
    single = [i for i in g_at if inp.components[i].g == 1]
    if triple and single:
        _incidence_row(rows, inp, {single[0]: True, triple[0]: False})
    _fixed_part_pairing(rows)
    return ["the two lines are distinct", "Supp Gamma is simple normal crossing"]


def _case_8(inp, rows):
    gs = rows.shared.parts["G"]
    _common_rows(rows, inp, [(3, 1)], marked_on_m1=True)
    rows.check("mobile-shape", rows.shared.mobile_shape, "conic")
    rows.check(
        "fixed-part-shape", all(_is(rows, c, "line") for c in gs) and bool(gs), True
    )
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    rows.check("coefficient-sum", sum(c.g for c in gs), 4)
    off = [i for i in inp.at("G") if not inp.on_p1(i)]
    rows.check(
        "off-point-line",
        f"{len(off)} line(s) avoid p1",
        "exactly 1",
        len(off) == 1,
    )
    if len(off) == 1:
        g1 = inp.components[off[0]].g
        rows.check("off-point-coefficient", g1, "1 or 2", g1 in (1, 2))
        _incidence_row(rows, inp, {i: i not in off for i in inp.at("G")})
    _fixed_part_pairing(rows)
    return [
        "the G_j through p1 meet M1 transversally there and at one other point each",
        "G_1 meets M1 at two points away from every M1 . G_j",
    ]


def _case_9(inp, rows):
    _common_rows(rows, inp, [(4, 1)], marked_on_m1=False)
    rows.check("mobile-shape", rows.shared.mobile_shape, "conic")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "4xline")
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    _fixed_part_pairing(rows)
    return ["the line meets the conic at two distinct points"]


# ------------------------------------------------------------ ruled cases


def _split_fibers(comps):
    """Partition Hirzebruch G-components into (f-ruling, other-ruling, rest)."""
    f_fibers = [c for c in comps if c.cls.coeffs[:2] == (1, 0)]
    s_fibers = [c for c in comps if c.cls.coeffs[:2] == (0, 1)]
    rest = [c for c in comps if c.cls.coeffs[:2] not in ((1, 0), (0, 1))]
    return f_fibers, s_fibers, rest


def _case_10(inp, rows):
    gs = rows.shared.parts["G"]
    _common_rows(rows, inp, [(2, 1)], marked_on_m1=False)
    rows.check("mobile-shape", rows.shared.mobile_shape, "section(1f+s0)")
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    sections = [c for c in gs if c.cls.coeffs[:2] == (1, 1)]
    f_fib, s_fib, rest = _split_fibers([c for c in gs if c.cls.coeffs[:2] != (1, 1)])
    rows.check("fixed-part-shape", len(sections) == 1 and not rest, True)
    if sections:
        g1 = sections[0].g
        rows.check("section-coefficient", g1, "1 or 2", g1 in (1, 2))
        rows.check(
            "ruling-balance",
            (sum(c.g for c in f_fib), sum(c.g for c in s_fib)),
            (3 - g1, 3 - g1),
        )
    _fixed_part_pairing(rows)
    _scroll_rows(rows, inp)
    return [
        "M1 and G1 meet at two distinct points",
        "Sing(sum G_i) is disjoint from M1",
        "fibers are distinct curves",
    ]


def _case_11(inp, rows):
    gs = rows.shared.parts["G"]
    _common_rows(rows, inp, [(2, 1)], marked_on_m1=False)
    rows.check("mobile-shape", rows.shared.mobile_shape, "section(1f+s0)")
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    f_fib, s_fib, rest = _split_fibers(gs)
    rows.check("fixed-part-shape", not rest and bool(gs), True)
    rows.check(
        "ruling-balance",
        (sum(c.g for c in f_fib), sum(c.g for c in s_fib)),
        (3, 3),
    )
    _fixed_part_pairing(rows)
    _scroll_rows(rows, inp)
    return [
        "no point lies on fibers of both rulings and M1 simultaneously",
        "fibers are distinct curves",
    ]


def _case_12(inp, rows):
    gs, hs = rows.shared.parts["G"], rows.shared.parts["H"]
    _common_rows(rows, inp, [(2, 1)], marked_on_m1=False)
    rows.check("minimal-model", str(inp.y_min), "F2")
    rows.check("mobile-shape", rows.shared.mobile_shape, "section(2f+s0)")
    h = sum(c.g for c in hs)
    rows.check(
        "residual-shape",
        all(c.cls.coeffs[:2] == (0, 1) for c in hs),
        True,
    )
    rows.check("residual-count", h, "0..3", 0 <= h <= 3)
    sections = [c for c in gs if c.cls.coeffs[:2] == (2, 1)]
    fibers = [c for c in gs if c.cls.coeffs[:2] == (1, 0)]
    rest = [c for c in gs if c.cls.coeffs[:2] not in ((2, 1), (1, 0))]
    g1 = sum(c.g for c in sections)
    rows.check(
        "fixed-part-shape", len(sections) <= 1 and not rest, True
    )
    rows.check("section-coefficient", g1, 3 - h)
    rows.check("fiber-sum", sum(c.g for c in fibers), 2 * h)
    _fixed_part_pairing(rows)
    _scroll_rows(rows, inp)
    return [
        "M1 and G1 meet at two distinct points",
        "no fiber G_j passes through M1 . G1",
        "fibers are distinct curves",
    ]


def _case_13(inp, rows):
    hs = rows.shared.parts["H"]
    b = inp.y_min.b
    _common_rows(rows, inp, [(0, kk) for kk in range(1, 2 * (b + 2))], marked_on_m1=False)
    rows.check("minimal-model", f"b = {b}", "b >= 2", b >= 2)
    rows.check("mobile-shape", rows.shared.mobile_shape, "fiber")
    rows.check("fixed-part-shape", rows.shared.shapes["G"], "4xnegative-section")
    rows.check(
        "residual-shape", all(_is(rows, h, "fiber") for h in hs), True
    )
    rows.check("residual-count", sum(h.g for h in hs), 2 * (b + 2) - inp.k)
    _scroll_rows(rows, inp)
    return ["every H_i differs from M1; repeated H_i are allowed"]


def _section_case(inp, rows, b_required, g1_required, fiber_sum, pairing):
    """Shared shape logic for the three negative-section scroll cases."""
    gs = rows.shared.parts["G"]
    b = inp.y_min.b
    rows.check("minimal-model", f"b = {b}", f"b = {b_required}", b == b_required)
    # the section class a f + s0 with a = (m + b)/2 reproduces M1^2 = m
    rows.check("mobile-shape", inp.mobile.cls.coeffs[:2], ((inp.m + b_required) // 2, 1))
    sections = [j for j, c in enumerate(gs) if c.cls.coeffs[:2] == (0, 1)]
    fibers = [c for c in gs if c.cls.coeffs[:2] == (1, 0)]
    rest = [c for c in gs if c.cls.coeffs[:2] not in ((0, 1), (1, 0))]
    rows.check("fixed-part-shape", len(sections) == 1 and not rest, True)
    if sections:
        rows.check("section-coefficient", gs[sections[0]].g, g1_required)
        rows.check("section-mobile-pairing", rows.shared.g_m1[sections[0]], pairing)
    rows.check("fiber-sum", sum(c.g for c in fibers), fiber_sum)
    _fixed_part_pairing(rows)
    _scroll_rows(rows, inp)


def _case_14(inp, rows):
    _common_rows(rows, inp, [(inp.m, 1)] if inp.m >= 3 else [], marked_on_m1=False)
    rows.check("mobile-degree-range", inp.m, ">= 3", inp.m >= 3)
    _section_case(inp, rows, inp.m - 2, 3, inp.m + 1, 1)
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    return ["no fiber G_j passes through M1 . G1", "fibers are distinct curves"]


def _case_15(inp, rows):
    _common_rows(rows, inp, [(inp.m, 1)] if inp.m >= 4 else [], marked_on_m1=False)
    rows.check("mobile-degree-range", inp.m, ">= 4", inp.m >= 4)
    _section_case(inp, rows, inp.m - 4, 3, inp.m - 2, 2)
    rows.check("residual-shape", rows.shared.shapes["H"], "none")
    return [
        "M1 meets G1 at two distinct points",
        "no fiber G_j passes through M1 . G1",
        "fibers are distinct curves",
    ]


def _case_16(inp, rows):
    gs = rows.shared.parts["G"]
    _common_rows(rows, inp, [(inp.m, 1)] if inp.m >= 3 else [], marked_on_m1=False)
    b = inp.y_min.b
    rows.check("mobile-degree-range", inp.m, ">= 3", inp.m >= 3)
    rows.check("minimal-model", f"b = {b}", f"b = m = {inp.m}", b == inp.m)
    rows.check("mobile-shape", inp.mobile.cls.coeffs[:2], (inp.m, 1))
    rows.check(
        "fixed-part-shape", all(_is(rows, c, "fiber") for c in gs) and bool(gs), True
    )
    rows.check("fiber-sum", sum(c.g for c in gs), inp.m + 4)
    rows.check("residual-shape", rows.shared.shapes["H"], "3xnegative-section")
    _fixed_part_pairing(rows)
    _scroll_rows(rows, inp)
    return ["fibers are distinct curves"]


_P2_CASES = {1: _case_1, 2: _case_2, 3: _case_3, 4: _case_4, 5: _case_5,
             6: _case_6, 7: _case_7, 8: _case_8, 9: _case_9}
_RULED_CASES = {10: _case_10, 11: _case_11, 12: _case_12, 13: _case_13,
                14: _case_14, 15: _case_15, 16: _case_16}


def match_rational_case(inp: RationalTypeInput) -> RationalCaseReport:
    """Match decomposed bi-anticanonical data against the sixteen shapes.

    Every candidate case compatible with the declared minimal surface is
    checked constraint by constraint; the report lists all fully passing
    cases, the complete log, and the geometric clauses each matched case
    takes on faith.

    TESTS::

        >>> lat = make_lattice(P2(), 0)
        >>> inp = RationalTypeInput(P2(), 1, 4, (
        ...     Component("M1", 1, lat.make_class([2])),
        ...     Component("G", 4, lat.make_class([1]))))
        >>> match_rational_case(inp).matched_cases
        (9,)
    """
    log: list[ConstraintCheck] = []
    matched = []
    assumed = {}
    if isinstance(inp.y_min, P2):
        candidates = _P2_CASES
    else:
        candidates = _RULED_CASES
    shared = _shared(inp)
    for case, fn in sorted(candidates.items()):
        rows = _Rows(case, shared)
        clauses = fn(inp, rows)
        log.extend(rows.rows)
        if rows.ok:
            matched.append(case)
            assumed[case] = tuple(clauses or ())
    return RationalCaseReport(tuple(matched), tuple(log), assumed)


# -------------------------------------------------- fiber-side predicates


@dataclass(frozen=True)
class JacobianBoundReport:
    ok: bool
    m: int
    violations: tuple[str, ...]
    contracted_k_squared: int | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "m": self.m,
            "violations": list(self.violations),
            "contracted_k_squared": self.contracted_k_squared,
        }


def jacobian_bound_check(fiber_name: str, g) -> JacobianBoundReport:
    """Bounds on base-point tower depths g_i over a special fiber.

    Each g_i counts the blow-ups over one fixed-part section's contact
    point; m = sum g_i.  Enforced: m <= 6; every g_i <= 6 with equality
    possible only over a fiber of type II*; towers of depth >= 2 need a
    non-reduced fiber, and at most one such tower exists.  For a cycle
    fiber I_s with m >= 7 the report carries the contraction count
    m + floor(m/2): contracting the m sections and floor(m/2) fiber
    components would force that value as a smooth rational surface's K^2,
    which cannot exceed 9.

    TESTS::

        >>> jacobian_bound_check("I6", [1, 1, 1, 1, 1, 1]).ok
        True
        >>> jacobian_bound_check("II*", [7]).ok
        False
        >>> jacobian_bound_check("I7", [1] * 7).contracted_k_squared
        10
    """
    g = [int(x) for x in g]
    if not g or any(x < 1 for x in g):
        raise ValueError("need a nonempty list of tower depths >= 1")
    m = sum(g)
    violations = []
    if m > 6:
        violations.append(f"sum of tower depths is {m} > 6")
    for x in g:
        if x > 6:
            violations.append(f"tower depth {x} > 6")
        elif x == 6 and fiber_name != "II*":
            violations.append(
                f"tower depth 6 requires a fiber of type II*, not {fiber_name}"
            )
    family, _ = fiber_family(fiber_name)
    reduced = not family.endswith("*")
    deep = [x for x in g if x >= 2]
    if reduced and deep:
        violations.append(
            f"tower depth {max(deep)} >= 2 over the reduced fiber {fiber_name}"
        )
    if not reduced and len(deep) >= 2:
        violations.append(
            "two towers of depth >= 2 would close a loop through the fiber"
        )
    contracted = None
    if family == "I" and m >= 7:
        contracted = m + m // 2
        violations.append(
            f"contracting {m} sections and {m // 2} cycle components gives "
            f"K^2 = {contracted} >= 10, impossible on a smooth rational surface"
        )
    return JacobianBoundReport(not violations, m, tuple(violations), contracted)


@dataclass(frozen=True)
class K3TypeReport:
    is_k3_type: bool
    reduced: bool
    snc_passed: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.is_k3_type


def is_k3_type(cfg: CurveConfiguration) -> K3TypeReport:
    """A bi-anticanonical member supports a K3 double cover iff it is a
    reduced simple-normal-crossing union of smooth rational curves.

    TESTS::

        >>> from .config import Node
        >>> is_k3_type(CurveConfiguration((Node("C", -4),))).is_k3_type
        True
        >>> is_k3_type(CurveConfiguration((Node("C", -4, mult=2),))).is_k3_type
        False
    """
    nonreduced = [n.id for n in cfg.nodes if n.mult != 1]
    snc = check_snc(cfg)
    violations = tuple(
        f"component {nid} has multiplicity > 1" for nid in nonreduced
    ) + snc.violations
    return K3TypeReport(
        is_k3_type=not violations,
        reduced=not nonreduced,
        snc_passed=snc.passed,
        violations=violations,
    )


def terminal_shape(cfg: CurveConfiguration) -> bool:
    """True iff the member is a disjoint union of smooth (-4)-curves.

    TESTS::

        >>> from .config import Node
        >>> terminal_shape(CurveConfiguration((Node("A", -4), Node("B", -4))))
        True
    """
    return (
        all(
            n.self_int == -4 and n.mult == 1 and n.genus == 0 and n.sing is None
            for n in cfg.nodes
        )
        and not cfg.edges
        and not cfg.triple_points
    )


@dataclass(frozen=True)
class LogEnriquesReport:
    ok: bool
    chains: tuple[tuple[str, ...], ...]
    lone_nodes: tuple[str, ...]
    degenerate_chains: tuple[tuple[str, ...], ...]  # (-3)-(-3) with empty interior

    def __bool__(self) -> bool:
        return self.ok


def log_enriques_shape(cfg: CurveConfiguration) -> LogEnriquesReport:
    """Index-2 degeneration shapes: each connected component is a single
    (-4)-curve or a chain (-3)-(-2)-...-(-2)-(-3).

    The interior may be empty (a (-3)-(-3) pair); such chains are reported
    separately since the generic picture has at least one interior node.

    TESTS::

        >>> from .config import Edge, Node
        >>> cfg = CurveConfiguration(
        ...     (Node("A", -3), Node("B", -2), Node("C", -3)),
        ...     (Edge("A", "B"), Edge("B", "C")))
        >>> log_enriques_shape(cfg).ok
        True
    """
    adjacency = cfg.adjacency
    ok = True
    chains, lone, degenerate = [], [], []
    for comp in cfg.whole_components():
        nodes = [cfg.nodes[i] for i in comp]
        if any(n.mult != 1 or n.genus != 0 or n.sing is not None for n in nodes):
            ok = False
            continue
        if len(comp) == 1:
            if nodes[0].self_int == -4:
                lone.append(nodes[0].id)
            else:
                ok = False
            continue
        # must be a path: exactly two degree-1 ends, interior degree 2
        if any(p > 1 for i in comp for p, _ in adjacency[i].values()):
            ok = False
            continue
        ends = [i for i in comp if len(adjacency[i]) == 1]
        interior = [i for i in comp if len(adjacency[i]) == 2]
        if len(ends) != 2 or len(ends) + len(interior) != len(comp):
            ok = False
            continue
        if not all(cfg.nodes[i].self_int == -3 for i in ends):
            ok = False
            continue
        if not all(cfg.nodes[i].self_int == -2 for i in interior):
            ok = False
            continue
        chain = _order_path(adjacency, ends[0], len(comp))
        chains.append(tuple(cfg.nodes[i].id for i in chain))
        if not interior:
            degenerate.append(chains[-1])
    return LogEnriquesReport(ok, tuple(chains), tuple(lone), tuple(degenerate))


def _order_path(adjacency, start, length):
    """The ``length`` nodes of a path, walked from the end ``start``."""
    order, prev = [start], None
    while len(order) < length:
        here = order[-1]
        order.append(next(j for j in adjacency[here] if j != prev))
        prev = here
    return order


@dataclass(frozen=True)
class MinimalityVerdict:
    verdict: str  # "blocks-blow-down" | "coble-after-blow-down" | "undetermined" | "p_a=<v>"
    pa: object

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "pa": None if self.pa is UNDETERMINED else self.pa,
        }


def minimality_check(cfg: CurveConfiguration, d_nodes, e_node: str) -> MinimalityVerdict:
    """Can the given (-1)-curve be contracted while staying in the family?

    Computes p_a(D + 2E) where D is the bi-anticanonical member spanned by
    ``d_nodes`` (at their stored multiplicities) and E the (-1)-component
    ``e_node``.  Value 1 blocks the blow-down; value 0 means the image
    surface is again of the same kind; an undecidable h^0 term yields the
    verdict "undetermined".

    TESTS::

        >>> from .config import Edge, Node
        >>> cfg = CurveConfiguration((Node("D", -4), Node("E", -1)))
        >>> minimality_check(cfg, ["D"], "E").verdict
        'coble-after-blow-down'
        >>> cfg2 = CurveConfiguration((Node("D", -4), Node("E", -1)),
        ...                           (Edge("D", "E", count=2),))
        >>> minimality_check(cfg2, ["D"], "E").verdict
        'blocks-blow-down'
    """
    e = cfg.node(e_node)
    if e.self_int != -1 or e.genus != 0:
        raise ValueError(f"{e_node} is not a smooth (-1)-component")
    subset = {nid: cfg.node(nid).mult for nid in d_nodes}
    if e_node in subset:
        raise ValueError("the (-1)-curve must not be part of the member itself")
    subset[e_node] = 2
    pa = divisor_pa(cfg, subset)
    if pa is UNDETERMINED:
        return MinimalityVerdict("undetermined", UNDETERMINED)
    if pa == 1:
        return MinimalityVerdict("blocks-blow-down", pa)
    if pa == 0:
        return MinimalityVerdict("coble-after-blow-down", pa)
    return MinimalityVerdict(f"p_a={pa}", pa)


def halphen_k3_predicate(fiber_name: str, second_fiber: str | None = None) -> bool:
    """Double-cover K3 test by fiber type: every supplied special fiber
    must be of type I_n, II, III or IV.

    TESTS::

        >>> halphen_k3_predicate("I6", "I3")
        True
        >>> halphen_k3_predicate("I0*")
        False
    """
    names = [fiber_name] + ([second_fiber] if second_fiber is not None else [])
    return all(fiber_family(n)[0] in ("I", "II", "III", "IV") for n in names)
