"""Sixteen-case matcher: golden instances, minimal perturbations, predicates."""

import hashlib
import json
import random
import sys

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
from coble.cli import main
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


# Pinned reports: a change to any row's text, order or verdict, to the
# matched cases or to the assumed clauses changes the hash.
REPORT_SHA256 = {
    ("golden", 1): "f010f4cc5c4568e9afb691e8b3d710f5b0aebc795c677a5b529aa6cf74a62cac",
    ("golden", 2): "e2f517b6a275d386d2456c327588dea92b111c0c160e3a27ab56cfbbe79e0c52",
    ("golden", 3): "8cbb751188fa71ef685d4cdedf7425b60929a40baca83402623eba829c35ba4c",
    ("golden", 4): "6de876019cc436df00cf72ac518282cf81c2665251c16759fa826db4e510c7c0",
    ("golden", 5): "e44ab6926e538160a28dd827c602fd86b52e4b8e3cc9a0ea8d299b89dc16f7c8",
    ("golden", 6): "7727d0649baf472c012a6d07866e76b0e2cae43263e3b3862754e88e1d4942b1",
    ("golden", 7): "2b31603cb3eb855390690a2c702af94dfd4b2a416e2ecc377e64401a15c1d5ee",
    ("golden", 8): "696197e2fe29eff50b2ff373ec2dc4f765a72ddf2dc8f41b9df1f1ac1544b9a4",
    ("golden", 9): "62baacf075c1e0aa57ef747d4873c30bbf19c30dbe8d557ffe34eb84051d54a4",
    ("golden", 10): "a1d92061bb8b5d8f461c401a7278cfbe6e84c8c124cdeaf62ffba974d47bf0b2",
    ("golden", 11): "5982e4c54103c02c07df09a461f1108ae90bfdf006ccf926987af2879877572a",
    ("golden", 12): "c06045eb5511c6c96d319004fae94ce4b18205c3ca8397843498467a9c3904f3",
    ("golden", 13): "12d04a674d17feb0a07a30127d0e763243a06d13c0d979e444663888a2612a1f",
    ("golden", 14): "fab61b52ef6ce071c6d9a9a5db4c28234682b6b05649217620c17ad9fee9519b",
    ("golden", 15): "31442cf6a66398644d7ec57649cf2afb381dcb140d501b6ee457cb62a9425360",
    ("golden", 16): "3f399e25252c49030c27375554a5503a513a301b803993c0b8eb9d49bb6571d4",
    ("perturbed", 1): "e8211a812d670230a66075223d624685605f955cd70a4741be36c873d7e5df29",
    ("perturbed", 2): "cf4ab2c6bb0177201dd5e0e940a06777d82dfb26c87e99ee591cb2e7b05ece97",
    ("perturbed", 3): "2881ada446985bfd0aec8cf12af0d4b98f3fde26701ca3197600fdcb8bf5655b",
    ("perturbed", 4): "c0ccb914585f9cd4bfd1242c261daf133ca8f7ed57ff489e87c0ded0385d8a84",
    ("perturbed", 5): "a19876e13a96be78bc40b2377e6107981f0724cf0e623ed8ec46ba5af61d2359",
    ("perturbed", 6): "d1709f145b42d743d18fefd9c42d77ad2d7865095ed0f299e58e7f4ca50fdc38",
    ("perturbed", 7): "bd7980cab7f049a8a6a006e669db5e556a670329adedb91ddc75ccc9997aa318",
    ("perturbed", 8): "9b74e6db7a4a1ce085b25db5bb5e4b3fce0de129b3321a7881e038329d911f68",
    ("perturbed", 9): "e94016b99df84568ec473ceb95a89eed321e892373dbfca6c18af1aabbe0be44",
    ("perturbed", 10): "39451819b070b1bd124a9eb1047422d4cc24c82f9ce6b7b1aa47f62f51c8f9bd",
    ("perturbed", 11): "d2c59c6983148abada64c5e06407eebecb06ca269f95e8ee9dca01ce3b16b409",
    ("perturbed", 12): "9300311fc6262272519efd6f7dbcce04b32f56d7dafcf5731f9d96deff8e1248",
    ("perturbed", 13): "051bcccf432a0c926c95c6fba83133afed88ffff320f3ec08e8218a0ca22a8ad",
    ("perturbed", 14): "627e08274ed318bf49228ed6069e3b458575a395baa31771e21c5341d0231238",
    ("perturbed", 15): "15a66c30bfdf383c35ccc23f4c2669de1fb567c7a1ff901c1ed8787d9f465a99",
    ("perturbed", 16): "9f5b958d4bff790ab2ec7847308c97058c7de968b7a5ffed321e6d3bc6be14ec",
    ("lines-through-p1", 2000): "4bb6b066a91042a632c237d9ffb160023e8212a5c5e2c6c1b27e2bd25041849a",
}
INPUTS = {
    **{("golden", c): inp for c, inp in GOLDEN.items()},
    **{("perturbed", c): inp for c, (inp, _) in PERTURBED.items()},
    # one mobile line and 2,000 residual lines, every one through p1
    ("lines-through-p1", 2000): RationalTypeInput(
        P2(), 1, 0, (C("M1", 1, LINE),) + (C("H", 1, LINE),) * 2000, MarkedPoint(tuple(range(2001)))
    ),
}


@pytest.mark.parametrize("key", sorted(REPORT_SHA256, key=str), ids=lambda key: f"{key[0]}-{key[1]}")
def test_report_bytes_are_pinned(key):
    text = json.dumps(match_rational_case(INPUTS[key]).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[key]


# `coble classify` on each pinned input: the exit code and stdout of every
# run, in the order of REPORT_SHA256's keys, hashed together
CLI_SHA256 = {
    "human": "0cb475c6641e8b51f5b2b6d7034d90cbc0b0db1067e8552fef7fc65ff8895067",
    "json": "9eb468fd34758ff7fd700cb41858a8ce5137bd6f42bcb2a990b70fd2a65fe86a",
}


@pytest.mark.parametrize("mode", sorted(CLI_SHA256))
def test_cli_output_is_pinned(mode, tmp_path, capsys):
    path = tmp_path / "input.json"
    digest = hashlib.sha256()
    for key in sorted(REPORT_SHA256, key=str):
        path.write_text(json.dumps(INPUTS[key].to_json()))
        code = main(["classify", "--input", str(path)] + (["--json"] if mode == "json" else []))
        out, err = capsys.readouterr()
        assert err == "", key
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CLI_SHA256[mode]


BASES = (P2(), Hirzebruch(0), Hirzebruch(1), Hirzebruch(2), Hirzebruch(3), Hirzebruch(4))
SMALL_RULED = [(a, b) for a in range(4) for b in range(3) if a or b]


def small_class(rng, base):
    lat = make_lattice(base, 0)
    if isinstance(base, P2):
        return lat.make_class([rng.randint(1, 3)])
    return lat.make_class(list(rng.choice(SMALL_RULED)))


def random_marked_point(rng, n):
    if rng.random() < 0.4:
        return None
    return MarkedPoint(tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))


def random_input(rng):
    """Random small data: one M1 with g = k and up to six G or H parts."""
    base = rng.choice(BASES)
    k = rng.randint(1, 4)
    comps = [C("M1", k, small_class(rng, base))] + [
        C(rng.choice("GH"), rng.randint(1, 5), small_class(rng, base)) for _ in range(rng.randint(0, 6))
    ]
    rng.shuffle(comps)
    return RationalTypeInput(base, k, rng.randint(0, 6), tuple(comps), random_marked_point(rng, len(comps)))


def golden_variant(rng):
    """A golden input, kept as it is or with one field redrawn."""
    inp = GOLDEN[rng.randint(1, 16)]
    base, k, m, comps, marked = inp.y_min, inp.k, inp.m, list(inp.components), inp.marked_point
    what, i = rng.randrange(6), rng.randrange(len(comps))
    if what == 1 and comps[i].role != "M1":
        comps[i] = C(comps[i].role, rng.randint(1, 5), comps[i].cls)
    elif what == 2:
        comps[i] = C(comps[i].role, comps[i].g, small_class(rng, base))
    elif what == 3:
        marked = random_marked_point(rng, len(comps))
    elif what == 4:
        m = rng.randint(0, 6)
    elif what == 5:
        k = rng.randint(1, 4)
        comps = [C("M1", k, c.cls) if c.role == "M1" else c for c in comps]
    return RationalTypeInput(base, k, m, tuple(comps), marked)


def generated_inputs(count=400, seed=2026):
    """Valid inputs on P2 and F0-F4, alternately random and golden variants."""
    rng = random.Random(seed)
    return [(random_input if i % 2 else golden_variant)(rng) for i in range(count)]


GENERATED_SHA256 = "dffd414a109c14959b11f466992b56b27fa6a7916b10caad9e96a7e8353b877d"


def test_generated_reports_are_pinned():
    digest, matched = hashlib.sha256(), set()
    for inp in generated_inputs():
        report = match_rational_case(inp)
        cases = sorted({row.case for row in report.constraint_log})
        assert report.matched_cases == tuple(c for c in cases if not report.failures(c))
        matched.update(report.matched_cases)
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert matched == set(range(1, 17))
    assert digest.hexdigest() == GENERATED_SHA256


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


def test_input_nested_at_any_depth_is_refused_with_value_error():
    # from just under the decoder's recursion limit the refusal's own wording
    # can reach it while encoding the value; past the limit decoding does
    for depth in range(1, sys.getrecursionlimit() + 10):
        text = '{"y_min": "P2", "k": %s, "m": 0, "components": []}' % ("[" * depth + "]" * depth)
        with pytest.raises(ValueError, match="^k must be a JSON integer|nested too deeply"):
            input_from_json(text)


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


TOP = 2**63 - 1


@pytest.mark.parametrize("base, parts, value", [
    # after the M1 and H terms, Gamma's first coefficient is 2^63; the G
    # term's own 3 * 2^62 comes later
    (Hirzebruch(0), [("M1", 1, (1, 0)), ("H", 1, (TOP, 0)), ("G", 3, (2**62, 0))], 2**63),
    # g_i C_i is checked before it is added: its second coefficient, not
    # the sum's first
    (Hirzebruch(0), [("M1", 1, (TOP, 0)), ("G", 2, (1, 2**62 + 1))], 2**63 + 2),
    # the sum's coefficients in basis order
    (Hirzebruch(1), [("M1", 1, (TOP, TOP)), ("H", 1, (1, 2))], 2**63),
    (Hirzebruch(1), [("M1", 1, (-TOP - 1, 0)), ("H", 1, (1, -1)), ("H", 1, (-2, 0))], -(2**63) - 1),
    # Gamma before M1^2 = 3037000500^2
    (P2(), [("M1", 1, (3037000500,)), ("H", 1, (TOP,))], TOP + 3037000500),
    # M1^2 before G_i . M1 = 3037000500 * 3037000501
    (P2(), [("M1", 1, (3037000500,)), ("G", 1, (3037000501,))], 3037000500**2),
], ids=["sum-before-later-term", "term-before-sum", "basis-order", "below-range", "gamma-first", "m1-square"])
def test_overflow_names_the_first_value_in_row_order(base, parts, value):
    lat = make_lattice(base, 0)
    inp = RationalTypeInput(base, 1, 0, tuple(C(role, g, lat.make_class(list(c))) for role, g, c in parts))
    with pytest.raises(OverflowError, match=f"^value {value} leaves the signed 64-bit range$"):
        match_rational_case(inp)


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
