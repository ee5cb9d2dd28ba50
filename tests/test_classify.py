"""Sixteen-case matcher: golden instances, minimal perturbations, predicates."""

import json

import pytest

from coble.classify import (
    Component,
    MarkedPoint,
    RationalTypeInput,
    halphen_k3_predicate,
    input_from_json,
    is_k3_type,
    jacobian_bound_check,
    log_enriques_shape,
    match_rational_case,
    minimality_check,
    terminal_shape,
)
from coble.config import CurveConfiguration, Edge, Node
from coble.lattice import P2, Hirzebruch, make_lattice

P2_LAT = make_lattice(P2(), 0)
LINE = P2_LAT.make_class([1])
CONIC = P2_LAT.make_class([2])


def ruled(b, f_coeff, s_coeff):
    return make_lattice(Hirzebruch(b), 0).make_class([f_coeff, s_coeff])


def C(role, g, cls):
    return Component(role, g, cls)


# one complete decomposition instance per case, matching that case alone
GOLDEN = {
    1: RationalTypeInput(
        P2(), 1, 0,
        (C("M1", 1, LINE), C("G", 2, CONIC), C("H", 1, LINE)),
        MarkedPoint((0, 2)),
    ),
    2: RationalTypeInput(
        P2(), 2, 0,
        (C("M1", 2, LINE), C("G", 2, LINE), C("H", 2, LINE)),
        MarkedPoint((0, 2)),
    ),
    3: RationalTypeInput(
        P2(), 1, 0,
        (C("M1", 1, LINE), C("G", 2, CONIC), C("H", 1, LINE)),
        MarkedPoint((0, 1, 2)),
    ),
    4: RationalTypeInput(
        P2(), 3, 0,
        (C("M1", 3, LINE), C("H", 1, LINE), C("H", 1, LINE), C("H", 1, LINE)),
        MarkedPoint((0, 1, 2, 3)),
    ),
    5: RationalTypeInput(
        P2(), 1, 1,
        (C("M1", 1, LINE), C("G", 2, CONIC), C("G", 1, LINE)),
    ),
    6: RationalTypeInput(
        P2(), 1, 1,
        (C("M1", 1, LINE),) + tuple(C("G", 1, LINE) for _ in range(5)),
    ),
    7: RationalTypeInput(
        P2(), 1, 3,
        (C("M1", 1, CONIC), C("G", 3, LINE), C("G", 1, LINE)),
        MarkedPoint((0, 2)),
    ),
    8: RationalTypeInput(
        P2(), 1, 3,
        (C("M1", 1, CONIC), C("G", 2, LINE), C("G", 1, LINE), C("G", 1, LINE)),
        MarkedPoint((0, 2, 3)),
    ),
    9: RationalTypeInput(
        P2(), 1, 4,
        (C("M1", 1, CONIC), C("G", 4, LINE)),
    ),
    10: RationalTypeInput(
        Hirzebruch(0), 1, 2,
        (
            C("M1", 1, ruled(0, 1, 1)),
            C("G", 2, ruled(0, 1, 1)),
            C("G", 1, ruled(0, 1, 0)),
            C("G", 1, ruled(0, 0, 1)),
        ),
    ),
    11: RationalTypeInput(
        Hirzebruch(0), 1, 2,
        (
            C("M1", 1, ruled(0, 1, 1)),
            C("G", 3, ruled(0, 1, 0)),
            C("G", 3, ruled(0, 0, 1)),
        ),
    ),
    12: RationalTypeInput(
        Hirzebruch(2), 1, 2,
        (
            C("M1", 1, ruled(2, 2, 1)),
            C("G", 2, ruled(2, 2, 1)),
            C("G", 2, ruled(2, 1, 0)),
            C("H", 1, ruled(2, 0, 1)),
        ),
    ),
    13: RationalTypeInput(
        Hirzebruch(3), 2, 0,
        (
            C("M1", 2, ruled(3, 1, 0)),
            C("G", 4, ruled(3, 0, 1)),
            C("H", 4, ruled(3, 1, 0)),
            C("H", 4, ruled(3, 1, 0)),
        ),
    ),
    14: RationalTypeInput(
        Hirzebruch(2), 1, 4,
        (
            C("M1", 1, ruled(2, 3, 1)),
            C("G", 3, ruled(2, 0, 1)),
            C("G", 5, ruled(2, 1, 0)),
        ),
    ),
    15: RationalTypeInput(
        Hirzebruch(0), 1, 4,
        (
            C("M1", 1, ruled(0, 2, 1)),
            C("G", 3, ruled(0, 0, 1)),
            C("G", 2, ruled(0, 1, 0)),
        ),
    ),
    16: RationalTypeInput(
        Hirzebruch(3), 1, 3,
        (
            C("M1", 1, ruled(3, 3, 1)),
            C("H", 3, ruled(3, 0, 1)),
            C("G", 7, ruled(3, 1, 0)),
        ),
    ),
}

# one-field perturbations: each still constructs, matches nothing, and the
# named constraint of its origin case is among the recorded failures
PERTURBED = {
    1: (
        RationalTypeInput(P2(), 1, 0, GOLDEN[1].components, MarkedPoint((2,))),
        "marked-point-on-mobile",
    ),
    2: (
        RationalTypeInput(
            P2(), 2, 0,
            (C("M1", 2, LINE), C("G", 3, LINE), C("H", 2, LINE)),
            MarkedPoint((0, 2)),
        ),
        "anticanonical-class",
    ),
    3: (
        RationalTypeInput(P2(), 1, 0, GOLDEN[3].components, MarkedPoint((0, 1))),
        "marked-point-incidences",
    ),
    4: (
        RationalTypeInput(
            P2(), 3, 0,
            (C("M1", 3, LINE), C("H", 1, LINE), C("H", 1, LINE)),
            MarkedPoint((0, 1, 2)),
        ),
        "residual-count",
    ),
    5: (
        RationalTypeInput(
            P2(), 1, 1,
            (C("M1", 1, LINE), C("G", 2, CONIC), C("G", 2, LINE)),
        ),
        "coefficient-sum",
    ),
    6: (
        RationalTypeInput(
            P2(), 1, 1,
            (C("M1", 1, LINE),) + tuple(C("G", 1, LINE) for _ in range(4)),
        ),
        "coefficient-sum",
    ),
    7: (
        RationalTypeInput(
            P2(), 1, 3,
            (C("M1", 1, CONIC), C("G", 4, LINE), C("G", 1, LINE)),
            MarkedPoint((0, 2)),
        ),
        "fixed-part-pairing",
    ),
    8: (
        RationalTypeInput(P2(), 1, 3, GOLDEN[8].components, MarkedPoint((0, 3))),
        "off-point-line",
    ),
    9: (
        RationalTypeInput(P2(), 1, 4, (C("M1", 1, CONIC), C("G", 5, LINE))),
        "fixed-part-pairing",
    ),
    10: (
        RationalTypeInput(Hirzebruch(0), 1, 2, GOLDEN[10].components[:3]),
        "ruling-balance",
    ),
    11: (
        RationalTypeInput(
            Hirzebruch(0), 1, 2,
            (
                C("M1", 1, ruled(0, 1, 1)),
                C("G", 3, ruled(0, 1, 0)),
                C("G", 2, ruled(0, 0, 1)),
            ),
        ),
        "ruling-balance",
    ),
    12: (
        RationalTypeInput(
            Hirzebruch(2), 1, 2,
            GOLDEN[12].components[:3] + (C("H", 2, ruled(2, 0, 1)),),
        ),
        "section-coefficient",
    ),
    13: (
        RationalTypeInput(
            Hirzebruch(3), 2, 0,
            (C("M1", 2, ruled(3, 1, 0)), C("G", 3, ruled(3, 0, 1)))
            + GOLDEN[13].components[2:],
        ),
        "s0-degree",
    ),
    14: (
        RationalTypeInput(
            Hirzebruch(2), 1, 4,
            (
                C("M1", 1, ruled(2, 3, 1)),
                C("G", 3, ruled(2, 0, 1)),
                C("G", 4, ruled(2, 1, 0)),
            ),
        ),
        "f-degree",
    ),
    15: (
        RationalTypeInput(Hirzebruch(0), 1, 3, GOLDEN[15].components),
        "mobile-degree-range",
    ),
    16: (
        RationalTypeInput(
            Hirzebruch(3), 1, 3,
            (
                C("M1", 1, ruled(3, 3, 1)),
                C("H", 2, ruled(3, 0, 1)),
                C("G", 7, ruled(3, 1, 0)),
            ),
        ),
        "residual-shape",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_matches_exactly_one_case(case):
    report = match_rational_case(GOLDEN[case])
    assert report.matched_cases == (case,)
    assert report.failures(case) == []
    assert report.assumed[case], "every match carries its geometric clauses"


@pytest.mark.parametrize("case", sorted(k for k in GOLDEN if k >= 10))
def test_golden_scroll_identities_logged(case):
    # ruled-surface matches must show the coordinate split of the class
    # identity and the excess product as explicit passing rows
    report = match_rational_case(GOLDEN[case])
    rows = {c.name: c for c in report.constraint_log if c.case == case}
    for name in ("f-degree", "s0-degree", "ruling-excess-product"):
        assert rows[name].passed, name


@pytest.mark.parametrize("case", sorted(PERTURBED))
def test_perturbed_matches_nothing_and_names_the_broken_constraint(case):
    inp, expected = PERTURBED[case]
    report = match_rational_case(inp)
    assert report.matched_cases == ()
    assert expected in {c.name for c in report.failures(case)}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_input_json_round_trip(case):
    inp = GOLDEN[case]
    assert input_from_json(json.dumps(inp.to_json())) == inp


def test_quadric_alias_descriptor():
    data = GOLDEN[10].to_json()
    data["y_min"] = "P1xP1"
    assert input_from_json(data) == GOLDEN[10]


def test_input_validation():
    with pytest.raises(ValueError, match="exactly one mobile"):
        RationalTypeInput(P2(), 1, 0, (C("G", 1, LINE),))
    with pytest.raises(ValueError, match="must equal k"):
        RationalTypeInput(P2(), 2, 0, (C("M1", 1, LINE),))
    with pytest.raises(ValueError, match="does not live"):
        RationalTypeInput(P2(), 1, 0, (C("M1", 1, ruled(0, 1, 1)),))
    with pytest.raises(ValueError, match="references component"):
        RationalTypeInput(P2(), 1, 0, (C("M1", 1, LINE),), MarkedPoint((3,)))
    with pytest.raises(ValueError, match="role"):
        C("M2", 1, LINE)
    with pytest.raises(ValueError, match=">= 1"):
        C("G", 0, LINE)


def test_jacobian_bound_cases():
    assert jacobian_bound_check("I6", [1] * 6).ok
    assert jacobian_bound_check("II*", [6]).ok
    # a depth-6 tower anywhere else is out
    assert not jacobian_bound_check("I0*", [6]).ok
    # no depth >= 2 over a reduced fiber
    assert not jacobian_bound_check("I1", [2]).ok
    # at most one deep tower even over a non-reduced fiber
    assert not jacobian_bound_check("I0*", [2, 2]).ok
    report = jacobian_bound_check("I7", [1] * 7)
    assert not report.ok and report.contracted_k_squared == 10
    assert any("K^2 = 10" in v for v in report.violations)
    # every cycle fiber with m >= 7 carries the same obstruction
    for m in range(7, 13):
        rep = jacobian_bound_check(f"I{min(m, 9)}", [1] * m)
        assert rep.contracted_k_squared == m + m // 2 >= 10 and not rep.ok
    with pytest.raises(ValueError):
        jacobian_bound_check("I1", [])
    with pytest.raises(ValueError):
        jacobian_bound_check("I1", [0])


def test_k3_and_terminal_predicates():
    quad = CurveConfiguration((Node("A", -4), Node("B", -4)))
    assert terminal_shape(quad)
    # terminal members are reduced disjoint smooth curves, hence K3-type
    assert is_k3_type(quad).is_k3_type
    assert not terminal_shape(CurveConfiguration((Node("A", -3),)))
    touching = CurveConfiguration((Node("A", -4), Node("B", -4)), (Edge("A", "B"),))
    assert not terminal_shape(touching)
    doubled = CurveConfiguration((Node("A", -4, mult=2),))
    report = is_k3_type(doubled)
    assert not report.is_k3_type and not report.reduced
    tangent = CurveConfiguration(
        (Node("A", -1), Node("B", -1)), (Edge("A", "B", tangency=2),)
    )
    assert not is_k3_type(tangent).is_k3_type
    assert is_k3_type(tangent).reduced


def test_log_enriques_shapes():
    chain = CurveConfiguration(
        (Node("A", -3), Node("B", -2), Node("C", -3)),
        (Edge("A", "B"), Edge("B", "C")),
    )
    report = log_enriques_shape(chain)
    assert report.ok and report.chains == (("A", "B", "C"),)
    assert report.degenerate_chains == ()
    lone = log_enriques_shape(CurveConfiguration((Node("A", -4),)))
    assert lone.ok and lone.lone_nodes == ("A",)
    short = log_enriques_shape(
        CurveConfiguration((Node("A", -3), Node("B", -3)), (Edge("A", "B"),))
    )
    assert short.ok and short.degenerate_chains == (("A", "B"),)
    bad_end = CurveConfiguration(
        (Node("A", -3), Node("B", -2), Node("C", -4)),
        (Edge("A", "B"), Edge("B", "C")),
    )
    assert not log_enriques_shape(bad_end).ok
    cycle = CurveConfiguration(
        (Node("A", -3), Node("B", -2), Node("C", -3)),
        (Edge("A", "B"), Edge("B", "C"), Edge("A", "C")),
    )
    assert not log_enriques_shape(cycle).ok
    assert not log_enriques_shape(CurveConfiguration((Node("A", -4, mult=2),))).ok


def test_minimality_check():
    apart = CurveConfiguration((Node("D", -4), Node("E", -1)))
    assert minimality_check(apart, ["D"], "E").verdict == "coble-after-blow-down"
    blocked = CurveConfiguration(
        (Node("D", -4), Node("E", -1)), (Edge("D", "E", count=2),)
    )
    assert minimality_check(blocked, ["D"], "E").verdict == "blocks-blow-down"
    with pytest.raises(ValueError, match="not a smooth"):
        minimality_check(apart, ["E"], "D")
    with pytest.raises(ValueError, match="must not be part"):
        minimality_check(blocked, ["D", "E"], "E")


def test_halphen_k3_predicate():
    assert halphen_k3_predicate("I6", "I3")
    assert halphen_k3_predicate("II")
    assert halphen_k3_predicate("IV", "I12")
    assert not halphen_k3_predicate("I0*")
    assert not halphen_k3_predicate("I6", "I0*")
    assert not halphen_k3_predicate("II*")


def test_repeated_components_are_told_apart_by_position():
    # case 2 allows repeated H_i: each one must pass through p1 on its own
    def case_2(on):
        return RationalTypeInput(
            P2(), 2, 0,
            (C("M1", 2, LINE), C("G", 2, LINE), C("H", 1, LINE), C("H", 1, LINE)),
            MarkedPoint(on),
        )

    assert match_rational_case(case_2((0, 2, 3))).matched_cases == (2,)
    for on, missing in (((0, 2), 3), ((0, 3), 2)):
        report = match_rational_case(case_2(on))
        assert 2 not in report.matched_cases, on
        row = next(r for r in report.failures(2) if r.name == "marked-point-incidences")
        assert row.actual == f"component {missing} (H) off p1", on
    # case 8 counts the two equal lines at positions 2 and 3 apart: only 3 is on p1
    report = match_rational_case(PERTURBED[8][0])
    row = next(r for r in report.failures(8) if r.name == "off-point-line")
    assert row.actual == "2 line(s) avoid p1"


def test_fiber_names_outside_the_catalog_are_refused():
    for name in ("I13", "I01", "I99", "nonsense", "I9*", "V"):
        with pytest.raises(KeyError, match="unknown fiber type"):
            jacobian_bound_check(name, [2])
        with pytest.raises(KeyError, match="unknown fiber type"):
            halphen_k3_predicate(name)
        with pytest.raises(KeyError, match="unknown fiber type"):
            halphen_k3_predicate("I6", name)
