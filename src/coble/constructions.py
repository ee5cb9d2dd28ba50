"""Builders for the catalog of worked surface constructions.

Each builder assembles one documented construction: a blow-up sequence
with named curves, derived dual-graph configurations, and a list of
machine-checkable claims (class identities, self-intersections, fiber
types, classification matches, blow-down arithmetic).  ``BUILDERS`` is the
whole catalog: a builder is the only store of its entry's geometry, claim
arguments and expected values, and its signature is the only statement of
the entry's parameters and their defaults.  A parametric builder writes
each expected value that varies as a closed form in its parameters,
never read back from what it built; ``catalog.verify_example`` recomputes
every claim and compares.

Claim args hold the values a check reads: divisor classes, each computed
once and shared with the configurations that use it (long sums go through
``lattice.weighted_sum``), a ``BlowUpSequence`` for the checks that read
K^2, and ``CurveConfiguration`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import (
    BlowUpSequence,
    Center,
    configuration_from_classes,
    make_assignment,
    proper_transform,
)
from .lattice import Hirzebruch, P2, weighted_sum

# Most point blow-ups a parametric builder accepts.  Building and checking
# the claims grows faster than linearly in the count, since every class is a
# dense tuple of count + 2 coefficients: 400 blow-ups verify in about 0.025 s
# and 600 in about 0.05 s (median of 30 calls, one core of a 2-core x86-64
# VM, Python 3.11).
MAX_BLOWUPS = 400


@dataclass(frozen=True)
class ExampleBundle:
    description: str
    claims: tuple  # of claim dicts {description, check, args, expected}


def _claim(description, check, args, expected):
    return {
        "description": description,
        "check": check,
        "args": args,
        "expected": expected,
    }


def _seq(base, centers, curves):
    """The sequence and each curve's proper transform, by label.

    centers: (id, parent, on) triples; curves: label -> (class coeffs, mults).
    """
    seq = BlowUpSequence(base, tuple(Center(i, parent=p, on_curves=tuple(on)) for i, p, on in centers))
    lat = seq.base_lattice
    transforms = {
        label: proper_transform(seq, make_assignment(seq, label, lat.make_class(cls), mults))
        for label, (cls, mults) in curves.items()
    }
    return seq, transforms


# The triangle pencil's nine blow-ups, (id, parent, on) triples, and its six
# lines, label -> (class coeffs, mults); sections_to_minus_four extends copies.
_TRIANGLE_CENTERS = (
    ("p12", None, ("L1", "L2", "L4")),
    ("p12n", "p12", ("L4",)),
    ("p13", None, ("L1", "L3", "L5")),
    ("p13n", "p13", ("L5",)),
    ("p23", None, ("L2", "L3", "L6")),
    ("p23n", "p23", ("L6",)),
    ("p16", None, ("L1", "L6")),
    ("p25", None, ("L2", "L5")),
    ("p34", None, ("L3", "L4")),
)
_TRIANGLE_CURVES = {
    "L1": ([1], {"p12": 1, "p13": 1, "p16": 1}),
    "L2": ([1], {"p12": 1, "p23": 1, "p25": 1}),
    "L3": ([1], {"p13": 1, "p23": 1, "p34": 1}),
    "L4": ([1], {"p12": 1, "p12n": 1, "p34": 1}),
    "L5": ([1], {"p13": 1, "p13n": 1, "p25": 1}),
    "L6": ([1], {"p23": 1, "p23n": 1, "p16": 1}),
}


def triangle_pencil() -> ExampleBundle:
    """Cubic pencil spanned by two line triangles in special position.

    The triangles L1+L2+L3 and L4+L5+L6 satisfy L1.L2 on L4, L1.L3 on L5,
    L2.L3 on L6, giving nine base points, three of them infinitely near.
    The pencil's two reducible members map to a hexagon and a triangle of
    rational curves; six exceptional curves are disjoint sections.
    Contracting the six sections and blowing up the six hexagon nodes plus
    one triangle node yields a surface with an isolated bi-anticanonical
    pencil of self-intersection 6 and K^2 = -1.
    """
    seq, L = _seq(P2(), _TRIANGLE_CENTERS, _TRIANGLE_CURVES)
    E12, E13, E23 = map(seq.exceptional_proper, ("p12", "p13", "p23"))
    hexagon = configuration_from_classes(
        [("L1", L["L1"], 0, 1), ("L2", L["L2"], 0, 1), ("L3", L["L3"], 0, 1),
         ("E12", E12, 0, 1), ("E13", E13, 0, 1), ("E23", E23, 0, 1)]
    )
    triangle = configuration_from_classes(
        [(lbl, L[lbl], 0, 1) for lbl in ("L4", "L5", "L6")]
    )
    sections = [seq.exceptional(c) for c in ("p16", "p25", "p34", "p12n", "p13n", "p23n")]
    minus_k = -seq.lattice.canonical
    claims = (
        _claim("the hexagon member has cycle fiber type I6",
               "fiber-type", {"configuration": hexagon}, "I6"),
        _claim("the triangle member has cycle fiber type I3",
               "fiber-type", {"configuration": triangle}, "I3"),
        _claim("hexagon components plus three exceptional curves sum to the anticanonical class",
               "class-identity",
               {"lhs": L["L1"] + L["L2"] + L["L3"] + E12 + E13 + E23, "rhs": minus_k}, True),
        _claim("the triangle's proper transforms alone sum to the anticanonical class",
               "class-identity", {"lhs": L["L4"] + L["L5"] + L["L6"], "rhs": minus_k}, True),
        _claim("six exceptional curves are disjoint sections of the genus-1 pencil",
               "section-pattern", {"sections": sections, "fiber": minus_k}, True),
        _claim("contracting the six sections raises the pencil class square to 6",
               "blow-down-chain",
               {"sequence": seq, "contract": sections, "track": minus_k},
               {"k_squared": 6, "track_square": 6}),
        _claim("six further blow-ups on the hexagon plus one on the triangle leave K^2 = -1",
               "blow-down-chain",
               {"sequence": seq, "contract": sections, "extra_blowups": 7},
               {"k_squared": -1, "track_square": None}),
        _claim("six depth-1 towers over the reduced cycle fiber satisfy the section bounds",
               "jacobian-bound", {"fiber": "I6", "g": [1, 1, 1, 1, 1, 1]}, True),
        _claim("both special fibers are of the multiplicative types a K3 double cover allows",
               "halphen-k3", {"fibers": ["I6", "I3"]}, True),
    )
    return ExampleBundle(
        description="Cubic pencil through two special line triangles; hexagon and "
                    "triangle members, six disjoint sections, mobile square 6.",
        claims=claims,
    )


def two_star_fibers() -> ExampleBundle:
    """Genus-1 pencil with two star-shaped fibers and four disjoint sections.

    The pencil is spanned by three concurrent lines and a line plus double
    line.  Both reducible members acquire the five-component star shape.
    Blowing up two points on one multiple component and one on the other,
    then contracting a section and a leaf, leaves K^2 = -1; the direct
    image data of the second ruling fits the sextic shape with a
    quadruple point resolved twice (case 2 with (m, k) = (0, 2)).
    """
    v_centers = [
        ("q0", None, ("L1", "L2", "L3", "H1")),
        ("q1", "q0", ("H1",)),
        ("q2", "q1", ("H1",)),
        ("a1", None, ("L1", "H2")),
        ("b1", "a1", ("L1",)),
        ("a2", None, ("L2", "H2")),
        ("b2", "a2", ("L2",)),
        ("a3", None, ("L3", "H2")),
        ("b3", "a3", ("L3",)),
    ]
    v_curves = {
        "L1": ([1], {"q0": 1, "a1": 1, "b1": 1}),
        "L2": ([1], {"q0": 1, "a2": 1, "b2": 1}),
        "L3": ([1], {"q0": 1, "a3": 1, "b3": 1}),
        "H1": ([1], {"q0": 1, "q1": 1, "q2": 1}),
        "H2": ([1], {"a1": 1, "a2": 1, "a3": 1}),
    }
    seq_v, V = _seq(P2(), v_centers, v_curves)
    # the blown-up surface: two centers on the first star's double component,
    # one (the elliptic-type witness) on the second star's double component
    x_centers = v_centers + [("u1", "q0", ()), ("u2", "q0", ()), ("w", None, ("H2",))]
    x_curves = {k: (c, dict(m)) for k, (c, m) in v_curves.items()}
    x_curves["H2"][1]["w"] = 1
    seq_x, X = _seq(P2(), x_centers, x_curves)
    EQ0, EQ1, EA1, EA2, EA3 = map(seq_v.exceptional_proper, ("q0", "q1", "a1", "a2", "a3"))
    star1 = configuration_from_classes(
        [("L1", V["L1"], 0, 1), ("L2", V["L2"], 0, 1), ("L3", V["L3"], 0, 1),
         ("EQ0", EQ0, 0, 2), ("EQ1", EQ1, 0, 1)]
    )
    star2 = configuration_from_classes(
        [("H1", V["H1"], 0, 1), ("H2", V["H2"], 0, 2),
         ("EA1", EA1, 0, 1), ("EA2", EA2, 0, 1), ("EA3", EA3, 0, 1)]
    )
    minus_k = -seq_v.lattice.canonical
    line = [1]
    case2_input = {
        "y_min": "P2", "k": 2, "m": 0,
        "components": [
            {"role": "M1", "g": 2, "class": line},
            {"role": "G", "g": 2, "class": line},
            {"role": "H", "g": 1, "class": line},
            {"role": "H", "g": 1, "class": line},
        ],
        "marked_point": {"on": [0, 2, 3]},
    }
    claims = (
        _claim("the three concurrent lines give a star fiber I0*",
               "fiber-type", {"configuration": star1}, "I0*"),
        _claim("the line plus double line gives a second star fiber I0*",
               "fiber-type", {"configuration": star2}, "I0*"),
        _claim("first star: components with multiplicities sum to the anticanonical class",
               "class-identity",
               {"lhs": V["L1"] + V["L2"] + V["L3"] + 2 * EQ0 + EQ1, "rhs": minus_k}, True),
        _claim("second star: components with multiplicities sum to the anticanonical class",
               "class-identity",
               {"lhs": V["H1"] + 2 * V["H2"] + EA1 + EA2 + EA3, "rhs": minus_k}, True),
        _claim("four exceptional curves are disjoint sections of the pencil",
               "section-pattern",
               {"sections": [seq_v.exceptional(c) for c in ("b1", "b2", "b3", "q2")],
                "fiber": minus_k}, True),
        _claim("after the three extra blow-ups, two disjoint (-1)-curves remain",
               "disjoint-minus-ones",
               {"curves": [seq_x.exceptional("w"), seq_x.exceptional("b2")]}, True),
        _claim("contracting one section and the leaf it meets leaves K^2 = -1",
               "blow-down-chain",
               {"sequence": seq_x, "contract": [seq_x.exceptional("b1"), X["L1"]]},
               {"k_squared": -1, "track_square": None}),
        _claim("the direct image data fits the double-mobile sextic shape",
               "match-case", {"input": case2_input}, [2]),
        _claim("one depth-2 tower over a non-reduced star fiber passes the bounds",
               "jacobian-bound", {"fiber": "I0*", "g": [2]}, True),
        _claim("star fibers exclude the K3 double cover",
               "halphen-k3", {"fibers": ["I0*", "I0*"]}, False),
    )
    return ExampleBundle(
        description="Pencil with two I0* members; four sections; blow-ups and "
                    "blow-downs exhibit rational type with a doubled mobile line.",
        claims=claims,
    )


def three_lines_conic() -> ExampleBundle:
    """Three lines and a conic in general position; nine intersection
    points blown up, then a tenth generic center.

    The bi-anticanonical system splits as a mobile genus-1 part of
    self-intersection 3 (pull-back of a line plus the conic transform)
    plus the three line transforms.
    """
    centers = [
        ("p12", None, ("L1", "L2")), ("p13", None, ("L1", "L3")),
        ("p23", None, ("L2", "L3")),
        ("x11", None, ("L1", "C")), ("x12", None, ("L1", "C")),
        ("x21", None, ("L2", "C")), ("x22", None, ("L2", "C")),
        ("x31", None, ("L3", "C")), ("x32", None, ("L3", "C")),
        ("q", None, ()),
    ]
    curves = {
        "L1": ([1], {"p12": 1, "p13": 1, "x11": 1, "x12": 1}),
        "L2": ([1], {"p12": 1, "p23": 1, "x21": 1, "x22": 1}),
        "L3": ([1], {"p13": 1, "p23": 1, "x31": 1, "x32": 1}),
        "C": ([2], {"x11": 1, "x12": 1, "x21": 1, "x22": 1, "x31": 1, "x32": 1}),
    }
    seq, T = _seq(P2(), centers, curves)
    lat = seq.lattice
    E = seq.exceptional("q")
    mobile_member = (
        3 * lat.basis_class("e0")
        - sum((seq.exceptional(x) for x in ("x11", "x12", "x21", "x22", "x31", "x32")),
              lat.zero())
        - 2 * E
    )
    member_cfg = configuration_from_classes(
        [("Mq", mobile_member, 0, 1),
         ("L1", T["L1"], 0, 1), ("L2", T["L2"], 0, 1), ("L3", T["L3"], 0, 1),
         ("E", E, 0, 1)]
    )
    lines = T["L1"] + T["L2"] + T["L3"]
    # the lifted line class plus the conic transform
    mobile = lat.basis_class("e0") + T["C"]
    claims = (
        _claim("the anticanonical class is the lifted line-triple member minus the tenth center",
               "class-identity",
               {"lhs": lines + sum(map(seq.exceptional, ("p12", "p13", "p23")), -E),
                "rhs": -lat.canonical}, True),
        _claim("bi-anticanonical class = mobile part plus the three line transforms "
               "(less twice the tenth center)",
               "class-identity",
               {"lhs": mobile + lines - 2 * E, "rhs": -2 * lat.canonical}, True),
        _claim("the mobile part has self-intersection 3",
               "combination-square", {"cls": mobile}, 3),
        _claim("the mobile part has arithmetic genus 1",
               "combination-genus", {"cls": mobile}, 1),
        _claim("each line transform is a (-3)-curve",
               "all-squares", {"curves": [T["L1"], T["L2"], T["L3"]]}, [-3]),
        _claim("the conic transform is a (-2)-curve",
               "combination-square", {"cls": T["C"]}, -2),
        _claim("K^2 = -1 after the ten blow-ups", "k-squared", {"sequence": seq}, -1),
        _claim("the tenth center's curve cannot be contracted within the family",
               "minimality",
               {"configuration": member_cfg, "member": ["Mq", "L1", "L2", "L3"], "e": "E"},
               "blocks-blow-down"),
    )
    return ExampleBundle(
        description="Three lines plus a conic; mobile part of square 3 and genus 1; "
                    "a generic tenth blow-up keeps the surface in the family.",
        claims=claims,
    )


_HEX_CYCLE = ("L1", "E12", "L2", "E23", "L3", "E13")
_HEX_SECTIONS = {"L1": "p16", "E12": "p12n", "L2": "p25",
                 "E23": "p23n", "L3": "p34", "E13": "p13n"}
# cycle node k joins component k and component k+1; (parent center, line curve)
_HEX_NODES = [
    ("p12", "L1"), ("p12", "L2"), ("p23", "L2"),
    ("p23", "L3"), ("p13", "L3"), ("p13", "L1"),
]


def sections_to_minus_four(m: int = 6) -> ExampleBundle:
    """Depth-1 section towers over the hexagon fiber: blow up the cycle
    nodes adjacent to m chosen components until each chosen transform is a
    (-4)-curve, then contract the m sections.

    The contracted image of a general pencil member has self-intersection
    m, and each (-4)-transform meets the residual anticanonical part
    twice.
    """
    if not 1 <= m <= 6:
        raise ValueError("m must be between 1 and 6")
    centers = list(_TRIANGLE_CENTERS)
    curves = {lbl: (cls, dict(mults)) for lbl, (cls, mults) in _TRIANGLE_CURVES.items()}
    chosen = list(_HEX_CYCLE[:m])
    needed = sorted({k % 6 for comp in range(m) for k in (comp - 1, comp)})
    node_ids = []
    for k in needed:
        parent, line = _HEX_NODES[k]
        nid = f"n{k + 1}"
        node_ids.append(nid)
        centers.append((nid, parent, (line,)))
        curves[line][1][nid] = 1
    seq, L = _seq(P2(), centers, curves)
    minus_k = -seq.lattice.canonical
    # a chosen component is a line transform or the curve over a triangle vertex
    comps = [L[c] if c[0] == "L" else seq.exceptional_proper(f"p{c[1:]}") for c in chosen]
    claims = (
        _claim("each chosen component transform is a (-4)-curve",
               "all-squares", {"curves": comps}, [-4]),
        _claim("contracting the m disjoint sections gives a pencil member of square m",
               "blow-down-chain",
               {"sequence": seq,
                "contract": [seq.exceptional(_HEX_SECTIONS[c]) for c in chosen],
                # the general pencil member misses the cycle nodes: lift of the base fiber
                "track": sum(map(seq.exceptional, node_ids), minus_k)},
               {"k_squared": None, "track_square": m}),
        _claim("the first (-4)-transform meets the residual anticanonical part twice",
               "pairing", {"a": comps[0], "b": minus_k - sum(comps, seq.lattice.zero())}, 2),
        _claim("m depth-1 towers over the reduced cycle fiber satisfy the bounds",
               "jacobian-bound", {"fiber": "I6", "g": [1] * m}, True),
    )
    return ExampleBundle(
        description="Blow up hexagon-cycle nodes until m component transforms reach "
                    "self-intersection -4; contract the m sections; the mobile member "
                    "square equals m.",
        claims=claims,
    )


def scroll_fiber_tower(n: int = 3, t: int = 0, b: int = 4) -> ExampleBundle:
    """Fiber towers on a Hirzebruch surface F_b realizing the fiber-pencil
    classification shape with arbitrarily negative K^2.

    Requires n >= 3, 0 <= t <= n, b >= t + 2(n-1), and at most
    MAX_BLOWUPS blow-ups (b + n + t + 3).  With r = b-t-2(n-1)
    and s = n-t, the surface blows up r fibers once, s fibers three times
    and t fibers five times (in towers), plus one generic point.  Then
    K^2 = 5-(n+t+b) and the bi-anticanonical class decomposes as n times
    the fiber plus 4 times the negative section plus explicit towers.
    """
    if n < 3 or t < 0 or t > n or b < t + 2 * (n - 1):
        raise ValueError("need n >= 3, 0 <= t <= n, b >= t + 2(n-1)")
    if b + n + t + 3 > MAX_BLOWUPS:
        raise ValueError(
            f"n + t + b + 3 = {b + n + t + 3} blow-ups is over the budget of "
            f"{MAX_BLOWUPS} (coble.constructions.MAX_BLOWUPS)"
        )
    r, s = b - t - 2 * (n - 1), n - t
    kinds = ["plain"] * r + ["mid"] * s + ["deep"] * t
    centers, curves = [], {}
    for idx, kind in enumerate(kinds, 1):
        F = f"F{idx}"
        a, bb, c, d, e = (f"c{idx}{x}" for x in "abcde")
        if kind == "plain":
            centers += [(a, None, (F,))]
            curves[F] = ([1, 0], {a: 1})
        else:
            centers += [(a, None, (F,)), (bb, a, (F,)), (c, bb, ())]
            if kind == "deep":
                centers += [(d, c, ()), (e, d, ())]
            curves[F] = ([1, 0], {a: 1, bb: 1})
    centers.append(("q", None, ()))
    seq, T = _seq(Hirzebruch(b), centers, curves)
    lat = seq.lattice
    E, Ep = seq.exceptional, seq.exceptional_proper
    s0 = lat.basis_class("s0")
    # (coefficient, class) terms of the -K and -2K decompositions
    mk = [(2, s0), (-1, E("q"))]
    m2k = [(n, lat.basis_class("f")), (4, s0), (-2, E("q"))]
    for idx, kind in enumerate(kinds, 1):
        F = T[f"F{idx}"]
        a, bb, c, d, e = (f"c{idx}{x}" for x in "abcde")
        if kind == "plain":
            mk += [(1, F)]
            m2k += [(2, F)]
        elif kind == "mid":
            ea, eb = Ep(a), Ep(bb)
            mk += [(2, F), (2, eb), (1, ea), (1, E(c))]
            m2k += [(3, F), (2, eb), (1, ea)]
        else:
            ea, eb, ec, ed = map(Ep, (a, bb, c, d))
            mk += [(3, F), (4, eb), (2, ea), (3, ec), (2, ed), (1, E(e))]
            m2k += [(5, F), (6, eb), (3, ea), (4, ec), (2, ed)]
    h_genus = {"plain": 2, "mid": 3, "deep": 5}
    case13_input = {
        "y_min": {"Fb": b}, "k": n, "m": 0,
        "components": [{"role": "M1", "g": n, "class": [1, 0]},
                       {"role": "G", "g": 4, "class": [0, 1]}]
        + [{"role": "H", "g": h_genus[kind], "class": [1, 0]} for kind in kinds],
    }
    claims = (
        _claim("anticanonical class: twice the negative section plus the fiber towers, "
               "less the last center on the member",
               "class-identity", {"lhs": weighted_sum(mk), "rhs": -lat.canonical}, True),
        _claim("bi-anticanonical class: n fibers + 4 negative sections + tower residue, "
               "less twice the last center",
               "class-identity", {"lhs": weighted_sum(m2k), "rhs": -2 * lat.canonical}, True),
        _claim("K^2 = 5 - (n + t + b)",
               "k-squared", {"sequence": seq},
               5 - (n + t + b)),
        _claim("the negative section has self-intersection -b",
               "combination-square", {"cls": s0}, -b),
        _claim("the direct image data fits the fiber-pencil shape (case 13) with k = n",
               "match-case", {"input": case13_input}, [13]),
    )
    return ExampleBundle(
        description="Towers over fibers of a Hirzebruch surface; K^2 = 5-(n+t+b) with "
                    "an explicit bi-anticanonical decomposition and a case-13 image.",
        claims=claims,
    )


def quintic_plus_line() -> ExampleBundle:
    """Six-nodal quintic plus a transversal line: a sextic whose surface
    carries a reduced simple-normal-crossing bi-anticanonical member.

    Blowing up five nodes, four of the five line intersections, and the
    last node leaves the member C5' + L' with two (-3)-components meeting
    once.  Both the last exceptional curve and the conic through the five
    blown-up nodes are blow-down witnesses that keep p_a = 1.
    """
    centers = [(f"p{i}", None, ("C5", "C2")) for i in range(1, 6)]
    centers += [(f"q{j}", None, ("C5", "L")) for j in range(1, 5)]
    centers += [("p", None, ("C5",))]
    curves = {
        "C5": ([5], {**{f"p{i}": 2 for i in range(1, 6)},
                     **{f"q{j}": 1 for j in range(1, 5)}, "p": 2}),
        "L": ([1], {f"q{j}": 1 for j in range(1, 5)}),
        "C2": ([2], {f"p{i}": 1 for i in range(1, 6)}),
    }
    seq, T = _seq(P2(), centers, curves)
    c5, ln, c2 = T["C5"], T["L"], T["C2"]
    ep = seq.exceptional("p")
    member = configuration_from_classes([("C5", c5, 0, 1), ("L", ln, 0, 1)])
    member_e = configuration_from_classes(
        [("C5", c5, 0, 1), ("L", ln, 0, 1), ("E", ep, 0, 1)]
    )
    member_c2 = configuration_from_classes(
        [("C5", c5, 0, 1), ("L", ln, 0, 1), ("C2", c2, 0, 1)]
    )
    claims = (
        _claim("quintic transform plus line transform equals the bi-anticanonical class",
               "class-identity",
               {"lhs": c5 + ln, "rhs": -2 * seq.lattice.canonical}, True),
        _claim("the quintic transform is a rational (-3)-curve",
               "combination-square", {"cls": c5}, -3),
        _claim("the quintic transform has genus 0",
               "combination-genus", {"cls": c5}, 0),
        _claim("the line transform is a (-3)-curve",
               "combination-square", {"cls": ln}, -3),
        _claim("quintic and line transforms meet exactly once",
               "pairing", {"a": c5, "b": ln}, 1),
        _claim("the conic through the five nodes becomes a (-1)-curve",
               "combination-square", {"cls": c2}, -1),
        _claim("the member is reduced simple normal crossing (K3 double-cover shape)",
               "k3-type", {"configuration": member}, True),
        _claim("the member is an interior-free (-3)-(-3) chain",
               "log-enriques", {"configuration": member}, True),
        _claim("contracting the last exceptional curve is blocked (p_a stays 1)",
               "minimality",
               {"configuration": member_e, "member": ["C5", "L"], "e": "E"},
               "blocks-blow-down"),
        _claim("contracting the nodal conic's transform is likewise blocked",
               "minimality",
               {"configuration": member_c2, "member": ["C5", "L"],
                "e": "C2"},
               "blocks-blow-down"),
        _claim("K^2 = -1 after the ten blow-ups", "k-squared", {"sequence": seq}, -1),
        _claim("the six-nodal quintic's multiplicity vector reduces to a line",
               "reduce", {"vector": "(5;2,2,2,2,2,2)"}, "line"),
    )
    return ExampleBundle(
        description="Six-nodal quintic plus transversal line; reduced SNC member of "
                    "two (-3)-curves; two blocked blow-down witnesses.",
        claims=claims,
    )


def halphen_five_lines() -> ExampleBundle:
    """Index-2 genus-1 pencil from five general lines: the sextic member
    4 lines + doubled 5th line gives a star fiber I0*; one more blow-up
    on the doubled line yields an isolated non-reduced bi-anticanonical
    member, so no K3 double cover exists.
    """
    pair_names = ["p12", "p13", "p14", "p23", "p24", "p34"]
    on_lines = {
        "p12": ("L1", "L2"), "p13": ("L1", "L3"), "p14": ("L1", "L4"),
        "p23": ("L2", "L3"), "p24": ("L2", "L4"), "p34": ("L3", "L4"),
    }
    centers = [(p, None, on_lines[p] + ("C3",)) for p in pair_names]
    centers += [(f"q{j}", None, ("L5", "C3")) for j in (1, 2, 3)]
    centers += [("a", None, ("L5",))]
    curves = {
        "L1": ([1], {"p12": 1, "p13": 1, "p14": 1}),
        "L2": ([1], {"p12": 1, "p23": 1, "p24": 1}),
        "L3": ([1], {"p13": 1, "p23": 1, "p34": 1}),
        "L4": ([1], {"p14": 1, "p24": 1, "p34": 1}),
        "L5": ([1], {"q1": 1, "q2": 1, "q3": 1, "a": 1}),
        "C3": ([3], {**{p: 1 for p in pair_names}, "q1": 1, "q2": 1, "q3": 1}),
    }
    seq, T = _seq(P2(), centers, curves)
    r = {i: T[f"L{i}"] for i in range(1, 5)}
    ea = seq.exceptional("a")
    r5_member = T["L5"]
    r5_pencil = r5_member + ea
    star = configuration_from_classes(
        [(f"R{i}", r[i], 0, 1) for i in range(1, 5)] + [("R5", r5_pencil, 0, 2)]
    )
    member = configuration_from_classes(
        [(f"R{i}", r[i], 0, 1) for i in range(1, 5)] + [("R5", r5_member, 0, 2)]
    )
    member_ea = configuration_from_classes(
        [(f"R{i}", r[i], 0, 1) for i in range(1, 5)]
        + [("R5", r5_member, 0, 2), ("EA", ea, 0, 1)]
    )
    claims = (
        _claim("four line transforms around the doubled fifth line form a star fiber I0*",
               "fiber-type", {"configuration": star}, "I0*"),
        _claim("the isolated bi-anticanonical member is the four lines plus the "
               "doubled fifth transform",
               "class-identity",
               {"lhs": r[1] + r[2] + r[3] + r[4] + 2 * r5_member,
                "rhs": -2 * seq.lattice.canonical}, True),
        _claim("the anticanonical class is the cubic transform minus the last center "
               "(no effective member)",
               "class-identity",
               {"lhs": T["C3"] - ea, "rhs": -seq.lattice.canonical}, True),
        _claim("the doubled component makes the member non-reduced: no K3 double cover",
               "k3-type", {"configuration": member}, False),
        _claim("a star fiber is outside the multiplicative types a K3 cover allows",
               "halphen-k3", {"fibers": ["I0*"]}, False),
        _claim("the member is not an index-2 degeneration chain shape",
               "log-enriques", {"configuration": member}, False),
        _claim("contracting the last exceptional curve is blocked (p_a stays 1)",
               "minimality",
               {"configuration": member_ea,
                "member": ["R1", "R2", "R3", "R4", "R5"], "e": "EA"},
               "blocks-blow-down"),
        _claim("K^2 = -1 after the ten blow-ups", "k-squared", {"sequence": seq}, -1),
        _claim("the doubled-line transform is a (-3)-curve",
               "combination-square", {"cls": r5_member}, -3),
    )
    return ExampleBundle(
        description="Five general lines; index-2 pencil with an I0* member; the "
                    "blown-up surface has an isolated non-reduced bi-anticanonical "
                    "member and no K3 double cover.",
        claims=claims,
    )


BUILDERS = {
    "triangle-pencil": triangle_pencil,
    "two-star-fibers": two_star_fibers,
    "three-lines-conic": three_lines_conic,
    "sections-to-minus-four": sections_to_minus_four,
    "scroll-fiber-tower": scroll_fiber_tower,
    "quintic-plus-line": quintic_plus_line,
    "halphen-five-lines": halphen_five_lines,
}
