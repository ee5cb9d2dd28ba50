"""Dual-graph divisor arithmetic: genus, connectedness, SNC, loop bound."""

import collections
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coble import cli, config
from coble.classify import LogEnriquesReport, log_enriques_shape
from coble.config import (
    MAX_DECOMPOSITIONS,
    UNDETERMINED,
    CurveConfiguration,
    DecompositionBudgetError,
    Edge,
    LoopReport,
    Node,
    check_snc,
    config_from_json,
    divisor_pa,
    is_numerically_k_connected,
    loop_inequality_check,
    pa_sum_formula_check,
)
from coble.fibers import FIBER_NAMES, kodaira_fiber, recognize_fiber


def chain(*self_ints):
    nodes = tuple(Node(f"C{i}", s) for i, s in enumerate(self_ints))
    edges = tuple(Edge(f"C{i}", f"C{i+1}") for i in range(len(self_ints) - 1))
    return CurveConfiguration(nodes, edges)


def test_node_and_edge_validation():
    with pytest.raises(ValueError):
        Node("A", -1, genus=-1)
    with pytest.raises(ValueError):
        Node("A", -1, mult=0)
    with pytest.raises(ValueError):
        Node("A", -1, sing="tacnode")
    with pytest.raises(ValueError):
        Edge("A", "A")
    with pytest.raises(ValueError):
        CurveConfiguration((Node("A", -1),), (Edge("A", "B"),))
    with pytest.raises(ValueError):
        CurveConfiguration((Node("A", -1), Node("A", -2)))


def test_gram_accumulates_edges():
    cfg = CurveConfiguration(
        (Node("A", -2), Node("B", -3)),
        (Edge("A", "B", count=2), Edge("A", "B", count=1, tangency=2)),
    )
    g = cfg.gram()
    assert g[0][0] == -2 and g[1][1] == -3
    assert g[0][1] == g[1][0] == 2 + 2
    assert cfg.meeting_points("A", "B") == 3


def test_divisor_pa_oracles():
    # single rational curves: p_a = 0 regardless of self-intersection
    for s in (-1, -2, -4):
        assert divisor_pa(CurveConfiguration((Node("D", s),))) == 0
    # a genus-1 component alone
    assert divisor_pa(CurveConfiguration((Node("D", 0, genus=1),))) == 1
    # two rational curves meeting twice form a cycle: p_a = 1
    loop = CurveConfiguration((Node("A", -2), Node("B", -2)), (Edge("A", "B", count=2),))
    assert divisor_pa(loop) == 1
    # cycle of length n: p_a = 1
    nodes = tuple(Node(f"C{i}", -2) for i in range(6))
    edges = tuple(Edge(f"C{i}", f"C{(i+1) % 6}") for i in range(6))
    assert divisor_pa(CurveConfiguration(nodes, edges)) == 1
    # a chain is simply connected: p_a = 0
    assert divisor_pa(chain(-3, -2, -3)) == 0
    # two (-3)-curves meeting once: the bi-anticanonical member of the
    # quintic-plus-line surface
    assert divisor_pa(chain(-3, -3)) == 0


def test_divisor_pa_with_multiplicities():
    # D + 2E where E is a (-1)-curve meeting the (-4)-component twice:
    # p_a = 1, the blow-down obstruction value
    cfg = CurveConfiguration(
        (Node("D", -4), Node("E", -1)), (Edge("D", "E", count=2),)
    )
    assert divisor_pa(cfg, {"D": 1, "E": 2}) == 1
    # disjoint E instead: p_a = 0
    cfg2 = CurveConfiguration((Node("D", -4), Node("E", -1)))
    assert divisor_pa(cfg2, {"D": 1, "E": 2}) == 0
    # subset selection by id list uses stored multiplicities
    cfg3 = CurveConfiguration((Node("A", -2, mult=2), Node("B", -1)))
    assert divisor_pa(cfg3, ["B"]) == 0


def test_divisor_pa_determined_on_disjoint_multiples():
    # h^0 of a multiple of one smooth rational component is exact, so a
    # disjoint union of such structures still has a determined genus:
    # p_a(2A + 2B) = -16/2 + (4 + 4) = 0 for two disjoint (-2)-curves
    cfg = CurveConfiguration((Node("A", -2), Node("B", -2)))
    assert divisor_pa(cfg, {"A": 2, "B": 2}) == 0


def test_divisor_pa_undetermined_on_loose_multiple():
    # 2A + 2B with A.B = 1 is not numerically 1-connected
    # (A against A + 2B gives -2 + 2 = 0) and spans two components,
    # so no exact h^0 rule applies
    cfg = CurveConfiguration((Node("A", -2), Node("B", -2)), (Edge("A", "B"),))
    assert divisor_pa(cfg, {"A": 2, "B": 2}) is UNDETERMINED
    # an irreducible singular member taken with multiplicity: likewise open
    cfg2 = CurveConfiguration((Node("A", -2, sing="node"),))
    assert divisor_pa(cfg2, {"A": 2}) is UNDETERMINED


def test_divisor_pa_rejects_empty():
    cfg = CurveConfiguration((Node("A", -1),))
    with pytest.raises(ValueError):
        divisor_pa(cfg, {})


def test_numerical_connectedness():
    # two curves meeting once: 1-connected but not 2-connected
    cfg = CurveConfiguration((Node("A", -1), Node("B", -1)), (Edge("A", "B"),))
    assert is_numerically_k_connected(cfg, None, 1)
    assert not is_numerically_k_connected(cfg, None, 2)
    # disjoint pair: not even 1-connected
    cfg2 = CurveConfiguration((Node("A", -1), Node("B", -1)))
    assert not is_numerically_k_connected(cfg2, None, 1)
    # a double structure on a (-1)-curve: 2C decomposes as C + C with
    # C.C = -1 < 1
    cfg3 = CurveConfiguration((Node("C", -1, mult=2),))
    assert not is_numerically_k_connected(cfg3, None, 1)


def test_pa_sum_formula():
    cfg = CurveConfiguration(
        (Node("A", -1), Node("B", -1)), (Edge("A", "B"),)
    )
    out = pa_sum_formula_check(cfg, ["A"], ["B"])
    assert out["holds"] and out["cross"] == 1
    with pytest.raises(ValueError):
        pa_sum_formula_check(cfg, ["A"], ["A"])


def test_check_snc():
    good = CurveConfiguration(
        (Node("A", -2), Node("B", -2)), (Edge("A", "B", count=2),)
    )
    rep = check_snc(good)
    assert rep.passed and not rep.violations and rep.notes
    tangent = CurveConfiguration(
        (Node("A", -2), Node("B", -2)), (Edge("A", "B", tangency=2),)
    )
    assert not check_snc(tangent).passed
    positive_genus = CurveConfiguration((Node("A", 0, genus=1),))
    assert not check_snc(positive_genus).passed
    nodal = CurveConfiguration((Node("A", -2, sing="node"),))
    assert not check_snc(nodal).passed
    triple = CurveConfiguration(
        (Node("A", -1), Node("B", -1), Node("C", -1)),
        (Edge("A", "B"), Edge("A", "C"), Edge("B", "C")),
        (("A", "B", "C"),),
    )
    assert not check_snc(triple).passed


def test_loop_inequality():
    # M1 plus a chain of two (-3)-curves closing a triangle
    cfg = CurveConfiguration(
        (Node("M", 0), Node("P", -3), Node("Q", -3)),
        (Edge("M", "P"), Edge("P", "Q"), Edge("Q", "M")),
    )
    rep = loop_inequality_check(cfg, ["P", "Q"], "M")
    assert rep.chain_length == 2
    assert rep.chain_self_int_sum == -6
    assert rep.bound == -5
    assert rep.inequality_holds  # -6 <= -5
    assert rep.loop_unique
    # a 2-cycle needs a double intersection
    two = CurveConfiguration((Node("M", 0), Node("P", -5)), (Edge("M", "P", count=2),))
    rep2 = loop_inequality_check(two, ["P"], "M")
    assert rep2.inequality_holds  # -5 <= -3
    with pytest.raises(ValueError):
        loop_inequality_check(cfg, ["P"], "M")  # M,P,Q triangle is not a 2-cycle


def test_config_json_round_trip():
    cfg = CurveConfiguration(
        (Node("A", -2, genus=0, mult=2), Node("B", -3, sing="cusp")),
        (Edge("A", "B", count=2, tangency=1),),
        (),
    )
    again = config_from_json(cfg.to_json())
    assert again == cfg


# ---------------------------------------------- k-connectivity against the scan


def exhaustive_k_connected(cfg, subset, k):
    """Reference: test D1.D2 >= k on every decomposition of the whole box
    with Python integers, without the closed form, the midpoint or blocks."""
    mults = cfg.subset_vector(subset)
    support = [i for i, m in enumerate(mults) if m > 0]
    gram = cfg.gram()
    sub_m = [mults[i] for i in support]
    sub_gram = [[gram[i][j] for j in support] for i in support]
    gd = [sum(row[j] * sub_m[j] for j in range(len(sub_m))) for row in sub_gram]
    r = range(len(sub_m))
    for d1 in itertools.product(*(range(m + 1) for m in sub_m)):
        if not any(d1) or d1 == tuple(sub_m):
            continue
        lin = sum(a * g for a, g in zip(d1, gd))
        quad = sum(d1[i] * sub_gram[i][j] * d1[j] for i in r for j in r)
        if lin - quad < k:
            return False
    return True


@st.composite
def configurations(draw, mults):
    """Configurations, connected or not, whose self-intersections mostly put
    D.C_i in [0, m_i), where the closed form may apply, and sometimes move
    it by m_i either way."""
    ms = draw(mults)
    n = len(ms)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [Edge(f"N{i}", f"N{j}", count=draw(st.integers(1, 2)),
                  tangency=draw(st.integers(1, 2))) for i, j in chosen]
    meet = [0] * n
    for e, (i, j) in zip(edges, chosen):
        meet[i] += e.count * e.tangency * ms[j]
        meet[j] += e.count * e.tangency * ms[i]
    nodes = tuple(
        Node(f"N{i}", -(meet[i] // ms[i]) + draw(st.sampled_from((0, 0, 0, -1, 1))),
             genus=draw(st.sampled_from((0, 0, 1))), mult=ms[i])
        for i in range(n)
    )
    return CurveConfiguration(nodes, tuple(edges))


def is_forest(cfg, subset):
    """``config._is_forest`` on a sub-divisor's support."""
    mults = cfg._support(subset)
    return config._is_forest(cfg, mults, len(cfg.components(list(mults))))


def _box(cfg):
    return math.prod(n.mult + 1 for n in cfg.nodes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(configurations(st.lists(st.integers(1, 3), min_size=1, max_size=5)), st.integers(-1, 3))
def test_k_connected_matches_exhaustive_scan(cfg, k):
    assert _box(cfg) <= config._VECTORIZE_THRESHOLD
    assert is_numerically_k_connected(cfg, None, k) is exhaustive_k_connected(cfg, None, k)


# multiplicities whose box lies just above the switch to numpy blocks
JUST_ABOVE_SWITCH = [
    list(ms)
    for r in (4, 5)
    for ms in itertools.product(range(1, 9), repeat=r)
    if 4096 < math.prod(m + 1 for m in ms) <= 3 * 4096
]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(configurations(st.sampled_from(JUST_ABOVE_SWITCH)), st.integers(-1, 3))
def test_blocked_scan_matches_exhaustive_scan(cfg, k):
    assert config._VECTORIZE_THRESHOLD < _box(cfg)
    expected = exhaustive_k_connected(cfg, None, k)
    assert is_numerically_k_connected(cfg, None, k) is expected
    # blocks of 1, 2, 4 then 5 rows: every boundary and the midpoint row is
    # met, and the closed form is bypassed so the blocks decide
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(config, "_FIRST_BLOCK", 1)
        mp.setattr(config, "_MAX_BLOCK", 5)
        mp.setattr(config, "_zariski_verdict", lambda *args: None)
        assert is_numerically_k_connected(cfg, None, k) is expected
    finally:
        mp.undo()


def test_blocked_scan_midpoint_row():
    # mA with A^2 = -1 pairs xA . (m - x)A = -x (m - x), least at the
    # midpoint row x = m/2 of the box, the last row the scan visits
    cfg = CurveConfiguration((Node("A", -1, mult=2),))
    assert not is_numerically_k_connected(cfg, None, 0)
    assert is_numerically_k_connected(cfg, None, -1)
    big = CurveConfiguration((Node("A", -1, mult=2 * 4096),))
    assert is_numerically_k_connected(big, None, -(4096**2))
    assert not is_numerically_k_connected(big, None, -(4096**2) + 1)


def test_blocked_scan_block_boundaries(monkeypatch):
    # blocks of 1, 2, 4, then 5 rows: the one violating row (the midpoint of
    # mA, A^2 = -1) takes every position in a block over consecutive m
    monkeypatch.setattr(config, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(config, "_MAX_BLOCK", 5)
    for half in range(2049, 2061):
        cfg = CurveConfiguration((Node("A", -1, mult=2 * half),))
        assert is_numerically_k_connected(cfg, None, -half * half)
        assert not is_numerically_k_connected(cfg, None, -half * half + 1)


def test_closed_form_on_kodaira_fibers(monkeypatch):
    # 28 types x multiples 1, 2, 3 x k = 0..3 against the reference where the
    # box is small and against the blocked scan (closed form bypassed) up to
    # 10^5 decompositions
    compared = 0
    for name in FIBER_NAMES:
        fiber = kodaira_fiber(name)
        for c in (1, 2, 3):
            subset = {n.id: c * n.mult for n in fiber.nodes}
            box = math.prod(m + 1 for m in subset.values())
            for k in range(4):
                fast = is_numerically_k_connected(fiber, subset, k)
                # a component C of a reducible fiber F has C.(F - C) = 2
                expected = k == 0 or (c == 1 and (k <= 2 or len(fiber.nodes) == 1))
                assert fast is expected, (name, c, k)
                if box <= 64:
                    assert fast is exhaustive_k_connected(fiber, subset, k), (name, c, k)
                elif box <= 10**5 and (k >= 1 or box <= 4096):
                    with monkeypatch.context() as mp:
                        mp.setattr(config, "_zariski_verdict", lambda *args: None)
                        assert fast is is_numerically_k_connected(fiber, subset, k), (name, c, k)
                else:
                    continue
                compared += 1
    assert compared == 223  # of 336


def test_closed_form_rules():
    # A + B, two (-1)-curves meeting once: D.A = D.B = 0 and gcd 1, so
    # 1-connected; K.A = -1 is odd and A.B = 1, so not 2-connected
    cfg = CurveConfiguration((Node("A", -1), Node("B", -1)), (Edge("A", "B"),))
    assert is_numerically_k_connected(cfg, None, 1)
    assert not is_numerically_k_connected(cfg, None, 2)
    # a doubled I3: the gcd 2 gives D/2 . D/2 = 0
    i3 = kodaira_fiber("I3")
    double = {n.id: 2 for n in i3.nodes}
    assert is_numerically_k_connected(i3, double, 0)
    assert not is_numerically_k_connected(i3, double, 1)
    # the same with one (-1)-curve: D.C = (2, 0, 0) >= 0 and D^2 = 4 > 0, so
    # 1-connected despite the gcd; D/2 . D/2 = 1, so not 2-connected
    nef = CurveConfiguration(
        (Node("A", -1, mult=2), Node("B", -2, mult=2), Node("C", -2, mult=2)),
        (Edge("A", "B"), Edge("B", "C"), Edge("C", "A")),
    )
    for k, expected in ((1, True), (2, False)):
        assert is_numerically_k_connected(nef, None, k) is expected
        assert exhaustive_k_connected(nef, None, k) is expected


def _uses_numpy(fn) -> bool:
    """Whether ``fn()`` calls into numpy, seen by a profile hook."""
    numpy_dir = os.path.dirname(np.__file__)
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            seen.append(True)
        elif event == "c_call" and (getattr(arg, "__module__", None) or "").startswith("numpy"):
            seen.append(True)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return bool(seen)


def test_numpy_switch_point():
    # the benchmark's switch-point check: Python integers at 4096
    # decompositions, numpy at 4097
    i2 = kodaira_fiber("I2")
    assert not _uses_numpy(lambda: is_numerically_k_connected(i2, {"A": 15, "B": 255}, 1))
    assert _uses_numpy(lambda: is_numerically_k_connected(i2, {"A": 16, "B": 240}, 1))


def test_scan_past_int64_is_exact():
    # every D1.D2 = x (m - x) 10^15 > 0, far past int64 at m = 5000; the
    # closed form decides k = 1, and one node is a forest, so the dynamic
    # programme decides k = 3 and the midpoint bound
    for m in (4000, 5000):
        cfg = CurveConfiguration((Node("A", 10**15, mult=m),))
        assert is_numerically_k_connected(cfg, None, 1)
        assert is_numerically_k_connected(cfg, None, 3)
        least = (m - 1) * 10**15
        assert is_numerically_k_connected(cfg, None, least)
        assert not is_numerically_k_connected(cfg, None, least + 1)
        d_sq, k_d = m * m * 10**15, m * (-2 - 10**15)
        assert divisor_pa(cfg) == (d_sq + k_d) // 2 + 1


def _ring(n, self_int, mult):
    nodes = tuple(Node(f"R{i}", self_int, mult=mult) for i in range(n))
    return CurveConfiguration(nodes, tuple(Edge(f"R{i}", f"R{(i + 1) % n}") for i in range(n)))


def test_scan_past_int64_on_cycles():
    # cycles whose pairings may pass int64 are scanned in Python integers,
    # on both sides of the 4,096 decompositions where int64 blocks start
    s = 10**18
    cases = []
    for a in (3, 32):  # boxes of 49 and 4,225
        # A, B meeting twice, both of multiplicity 2a: the Gram is negative
        # definite, so the least D1.D2 is D^2 / 4, at D1 = D / 2
        pair2 = CurveConfiguration(
            (Node("A", -s, mult=2 * a), Node("B", -s, mult=2 * a)), (Edge("A", "B", count=2),)
        )
        cases.append((pair2, a * a * (4 - 2 * s)))
    for n in (5, 13):  # boxes of 32 and 8,192
        # D1 a proper set of reduced ring components cuts at least two edges
        cases.append((_ring(n, -s, 1), 2))
    cases.append((_ring(8, -s, 2), 8 * (2 - s)))  # 6,561: least at D / 2
    for cfg, least in cases:
        assert not is_forest(cfg, None)
        box = _box(cfg)
        for k, expected in ((least, True), (least + 1, False)):
            if box > config._VECTORIZE_THRESHOLD:
                assert not _uses_numpy(lambda: is_numerically_k_connected(cfg, None, k))
            assert is_numerically_k_connected(cfg, None, k) is expected, (box, k)
            if box <= 64:
                assert exhaustive_k_connected(cfg, None, k) is expected, (box, k)


def test_decomposition_budget():
    # a 20-node chain of doubled (-2)-curves: 3^20 decompositions
    chain20 = CurveConfiguration(
        tuple(Node(f"C{i}", -2, mult=2) for i in range(20)),
        tuple(Edge(f"C{i}", f"C{i+1}") for i in range(19)),
    )
    start = time.perf_counter()
    with pytest.raises(DecompositionBudgetError, match=r"3,486,784,401 .*MAX_DECOMPOSITIONS"):
        is_numerically_k_connected(chain20, None, 1)
    assert divisor_pa(chain20) is UNDETERMINED
    assert time.perf_counter() - start < 1.0
    assert MAX_DECOMPOSITIONS >= 314_928  # the I8* fiber's box
    # 21 components pass the component cap
    chain21 = CurveConfiguration(
        tuple(Node(f"C{i}", -2, mult=1 + (i == 0)) for i in range(21)),
        tuple(Edge(f"C{i}", f"C{i+1}") for i in range(20)),
    )
    with pytest.raises(DecompositionBudgetError, match="MAX_DISTINCT_COMPONENTS"):
        is_numerically_k_connected(chain21, None, 1)
    assert divisor_pa(chain21) is UNDETERMINED
    assert issubclass(DecompositionBudgetError, ValueError)


def test_decomposition_budget_boundary(monkeypatch):
    cfg = CurveConfiguration((Node("A", -2, mult=2), Node("B", -2, mult=3)), (Edge("A", "B"),))
    monkeypatch.setattr(config, "MAX_DECOMPOSITIONS", 12)
    assert not is_numerically_k_connected(cfg, None, 1)
    monkeypatch.setattr(config, "MAX_DECOMPOSITIONS", 11)
    with pytest.raises(DecompositionBudgetError, match="12 decompositions"):
        is_numerically_k_connected(cfg, None, 1)
    # the closed form is decided before the budget is counted
    assert is_numerically_k_connected(kodaira_fiber("I4"), None, 1)
    # pairings past int64 scan Python integers against a smaller budget
    huge = CurveConfiguration((Node("A", -(10**17), mult=11),))
    monkeypatch.setattr(config, "MAX_DECOMPOSITIONS", 12 * config._PYTHON_INT_SLOWDOWN)
    assert not is_numerically_k_connected(huge, None, 1)
    monkeypatch.setattr(config, "MAX_DECOMPOSITIONS", 12 * config._PYTHON_INT_SLOWDOWN - 1)
    with pytest.raises(DecompositionBudgetError, match="past int64"):
        is_numerically_k_connected(huge, None, 1)


# ------------------------------------- forests: the dynamic programme, the scan


def two_point_pair(a, b):
    """(-3)-curves A, B with multiplicities 2a, 2b meeting at two points: a
    cycle of the dual graph, so scanned.  The Gram is negative definite, so
    D1.(D - D1) = D^2/4 - y.y for D1 = D/2 + y is least only at D1 = D/2,
    the midpoint row of the box, where it is -3a^2 + 4ab - 3b^2."""
    cfg = CurveConfiguration((Node("A", -3, mult=2 * a), Node("B", -3, mult=2 * b)), (Edge("A", "B", count=2),))
    return cfg, -3 * a * a + 4 * a * b - 3 * b * b


def test_blocked_scan_midpoint_row_on_a_cycle():
    for a, b in ((1, 1), (32, 32)):  # 9 and 4,225 decompositions: both scans
        cfg, least = two_point_pair(a, b)
        assert not is_forest(cfg, None)
        assert is_numerically_k_connected(cfg, None, least)
        assert not is_numerically_k_connected(cfg, None, least + 1)
    assert _uses_numpy(lambda: is_numerically_k_connected(cfg, None, least))


def test_blocked_scan_block_boundaries_on_a_cycle(monkeypatch):
    # blocks of 1, 2, 4, then 5 rows: the midpoint row 3a + 1 of a box of
    # 3 (2a + 1) rows takes every position in a block over consecutive a
    monkeypatch.setattr(config, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(config, "_MAX_BLOCK", 5)
    for a in range(683, 693):
        cfg, least = two_point_pair(a, 1)
        assert is_numerically_k_connected(cfg, None, least)
        assert not is_numerically_k_connected(cfg, None, least + 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(configurations(st.sampled_from(JUST_ABOVE_SWITCH)), st.integers(-1, 3))
def test_blocked_scan_matches_exhaustive_scan_on_forests(cfg, k):
    # the blocked scan with forests forced onto it, as before the DP
    expected = exhaustive_k_connected(cfg, None, k)
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(config, "_is_forest", lambda *args: False)
        assert is_numerically_k_connected(cfg, None, k) is expected
        mp.setattr(config, "_FIRST_BLOCK", 1)
        mp.setattr(config, "_MAX_BLOCK", 5)
        mp.setattr(config, "_zariski_verdict", lambda *args: None)
        assert is_numerically_k_connected(cfg, None, k) is expected
    finally:
        mp.undo()


@st.composite
def forests(draw):
    """Forests of up to six nodes, one intersection point per meeting pair
    (tangency 1 or 2), with D.C_i mostly in [0, m_i) and sometimes moved by
    m_i either way, and a sub-divisor: all of D, some components at their
    multiplicity, or new multiplicities."""
    n = draw(st.integers(1, 6))
    ms = [draw(st.integers(1, 3)) for _ in range(n)]
    # each node after the first hangs from an earlier one or starts a tree
    parents = [draw(st.one_of(st.none(), st.integers(0, i - 1))) for i in range(1, n)]
    pairs = [(p, i) for i, p in enumerate(parents, 1) if p is not None]
    edges = [Edge(f"N{p}", f"N{i}", tangency=draw(st.integers(1, 2))) for p, i in pairs]
    meet = [0] * n
    for e, (p, i) in zip(edges, pairs):
        meet[p] += e.tangency * ms[i]
        meet[i] += e.tangency * ms[p]
    nodes = tuple(
        Node(f"N{i}", -(meet[i] // ms[i]) + draw(st.sampled_from((0, 0, 0, -1, 1))), mult=ms[i])
        for i in range(n)
    )
    cfg = CurveConfiguration(nodes, tuple(draw(st.permutations(edges))))
    ids = list(cfg.ids)
    subset = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(ids), min_size=1, unique=True),
        st.dictionaries(st.sampled_from(ids), st.integers(0, 3), min_size=1).filter(lambda s: any(s.values())),
    ))
    return cfg, subset


@settings(max_examples=150, deadline=None, derandomize=True)
@given(forests(), st.integers(-1, 3))
def test_forest_dp_matches_exhaustive_scan(case, k):
    cfg, subset = case
    assert is_forest(cfg, subset)
    assert is_numerically_k_connected(cfg, subset, k) is exhaustive_k_connected(cfg, subset, k)


def kodaira_near_misses():
    """Every model with one self-intersection moved by 1 or one edge dropped."""
    for name in FIBER_NAMES:
        fiber = kodaira_fiber(name)
        for i, n in enumerate(fiber.nodes):
            for delta in (-1, 1):
                moved = Node(n.id, n.self_int + delta, n.genus, n.mult, n.sing)
                yield name, CurveConfiguration(fiber.nodes[:i] + (moved,) + fiber.nodes[i + 1:], fiber.edges)
        for i in range(len(fiber.edges)):
            yield name, CurveConfiguration(fiber.nodes, fiber.edges[:i] + fiber.edges[i + 1:])


def test_forest_dp_on_kodaira_near_misses(monkeypatch):
    # the DP against the scan (forests forced onto it) up to 10^5
    # decompositions and against the reference up to 64, k = -1..2
    compared = forests_seen = 0
    for name, cfg in kodaira_near_misses():
        if not is_forest(cfg, None):
            continue
        forests_seen += 1
        box = _box(cfg)
        for k in range(-1, 3):
            fast = is_numerically_k_connected(cfg, None, k)
            if box <= 64:
                assert fast is exhaustive_k_connected(cfg, None, k), (name, k)
            elif box <= 10**5 and (k >= 1 or box <= 4096):
                with monkeypatch.context() as mp:
                    mp.setattr(config, "_is_forest", lambda *args: False)
                    assert fast is is_numerically_k_connected(cfg, None, k), (name, k)
            else:
                continue
            compared += 1
    assert (forests_seen, compared) == (393, 1008)


def test_forest_dp_runs_without_numpy():
    # an I8* near-miss: a tree over 314,928 decompositions that the scan
    # could only decide in numpy blocks
    fiber = kodaira_fiber("I8*")
    lowered = Node(fiber.nodes[0].id, fiber.nodes[0].self_int - 1, mult=fiber.nodes[0].mult)
    cfg = CurveConfiguration((lowered,) + fiber.nodes[1:], fiber.edges)
    assert _box(cfg) > config._VECTORIZE_THRESHOLD and is_forest(cfg, None)
    assert not _uses_numpy(lambda: is_numerically_k_connected(cfg, None, 1))
    assert is_numerically_k_connected(cfg, None, 1)


# ------------------------------------------ the dense implementation as oracle
# Test-local copies of the dense-Gram code that ``CurveConfiguration.adjacency``
# replaced: components by scanning the whole support per vertex, pairings over
# the n x n Gram, meeting points by scanning the edge list, the log-Enriques
# degree and path logic and the matrix-based fiber isomorphism.


def dense_components(cfg, support):
    gram = cfg.gram()
    seen, comps = set(), []
    for start in support:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in support:
                if w not in seen and gram[v][w] != 0:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def dense_pairing(gram, m1, m2):
    return sum(a * gram[i][j] * b for i, a in enumerate(m1) for j, b in enumerate(m2))


def dense_meeting_points(cfg, a, b):
    return sum(e.count for e in cfg.edges if {e.a, e.b} == {a, b})


def dense_divisor_pa(cfg, subset=None):
    mults = cfg.subset_vector(subset)
    support = [i for i, m in enumerate(mults) if m > 0]
    h0_total = 0
    for comp in dense_components(cfg, support):
        if all(mults[i] == 1 for i in comp):
            h0_total += 1
            continue
        h = UNDETERMINED
        if len(comp) == 1:
            h = config._h0_single_multiple(cfg.nodes[comp[0]], mults[comp[0]])
        if h is UNDETERMINED:
            if not exhaustive_k_connected(cfg, {cfg.nodes[i].id: mults[i] for i in comp}, 1):
                return UNDETERMINED
            h = 1
        h0_total += h
    k_d = sum(m * kd for m, kd in zip(mults, cfg.canonical_degrees()))
    return (dense_pairing(cfg.gram(), mults, mults) + k_d) // 2 + h0_total


def dense_pa_sum_formula_check(cfg, d1, d2):
    m1, m2 = cfg.subset_vector(d1), cfg.subset_vector(d2)
    if any(a > 1 for a in m1) or any(b > 1 for b in m2):
        raise ValueError("parts must be reduced")
    if any(a + b > 1 for a, b in zip(m1, m2)):
        raise ValueError("parts must have disjoint support so the sum is reduced")
    for name, part in (("D1", d1), ("D2", d2)):
        if not exhaustive_k_connected(cfg, part, 1):
            raise ValueError(f"{name} is not numerically 1-connected")
    msum = {cfg.nodes[i].id: a + b for i, (a, b) in enumerate(zip(m1, m2)) if a + b}
    pa_sum, pa1, pa2 = dense_divisor_pa(cfg, msum), dense_divisor_pa(cfg, d1), dense_divisor_pa(cfg, d2)
    cross = dense_pairing(cfg.gram(), m1, m2)
    if any(v is UNDETERMINED for v in (pa_sum, pa1, pa2)):
        raise ValueError("a part's genus is undetermined; formula not checkable")
    return {"pa_sum": pa_sum, "pa_parts": (pa1, pa2), "cross": cross,
            "holds": pa_sum == pa1 + pa2 + cross - 1}


def dense_loop_inequality_check(cfg, chain, m1):
    cycle = [m1] + list(chain)
    if len(set(cycle)) != len(cycle):
        raise ValueError("loop nodes must be distinct")
    if len(cycle) < 2:
        raise ValueError("a loop needs at least two components")
    problems = []
    if len(cycle) == 2:
        pts = dense_meeting_points(cfg, cycle[0], cycle[1])
        if pts != 2:
            problems.append(f"{cycle[0]},{cycle[1]} meet at {pts} points, need 2")
    else:
        for i, a in enumerate(cycle):
            for j in range(i + 1, len(cycle)):
                pts = dense_meeting_points(cfg, a, cycle[j])
                want = 1 if j - i == 1 or (i == 0 and j == len(cycle) - 1) else 0
                if pts != want:
                    problems.append(f"{a},{cycle[j]} meet at {pts} points, need {want}")
    if problems:
        raise ValueError("not a simple loop: " + "; ".join(problems))
    total = sum(cfg.node(c).self_int for c in chain)
    bound = -2 * len(chain) - 1
    comps = len(dense_components(cfg, list(range(len(cfg.nodes)))))
    rank = sum(e.count for e in cfg.edges) - len(cfg.nodes) + comps
    return LoopReport(len(chain), total, bound, total <= bound, rank, rank == 1)


def dense_log_enriques_shape(cfg):
    gram = cfg.gram()
    ok, chains, lone, degenerate = True, [], [], []
    for comp in dense_components(cfg, list(range(len(cfg.nodes)))):
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
        deg = {i: sum(1 for j in comp if j != i and gram[i][j] != 0) for i in comp}
        if any(gram[i][j] > 1 for i in comp for j in comp if i != j):
            ok = False
            continue
        ends = [i for i in comp if deg[i] == 1]
        interior = [i for i in comp if deg[i] == 2]
        if (len(ends) != 2 or len(ends) + len(interior) != len(comp)
                or any(cfg.nodes[i].self_int != -3 for i in ends)
                or any(cfg.nodes[i].self_int != -2 for i in interior)):
            ok = False
            continue
        order, prev = [ends[0]], None
        while len(order) < len(comp):
            here = order[-1]
            nxt = [j for j in comp if j != here and j != prev and gram[here][j] != 0]
            if not nxt:
                break
            prev = here
            order.append(nxt[0])
        chains.append(tuple(cfg.nodes[i].id for i in order))
        if not interior:
            degenerate.append(chains[-1])
    return LogEnriquesReport(ok, tuple(chains), tuple(lone), tuple(degenerate))


def dense_signature(cfg):
    gram, n = cfg.gram(), len(cfg.nodes)
    points = [[0] * n for _ in range(n)]
    for e in cfg.edges:
        i, j = cfg.ids.index(e.a), cfg.ids.index(e.b)
        points[i][j] += e.count
        points[j][i] += e.count
    node_sig = sorted((node.self_int, node.genus, node.mult, node.sing or "", sum(points[i]))
                      for i, node in enumerate(cfg.nodes))
    pair_sig = sorted((gram[i][j], points[i][j]) for i in range(n) for j in range(i + 1, n) if points[i][j])
    return tuple(node_sig), tuple(pair_sig), len(cfg.triple_points)


def dense_isomorphic(a, b):
    ga, gb = a.gram(), b.gram()
    na = len(a.nodes)
    pa = [[0] * na for _ in range(na)]
    pb = [[0] * na for _ in range(na)]
    for cfg, points in ((a, pa), (b, pb)):
        for e in cfg.edges:
            i, j = cfg.ids.index(e.a), cfg.ids.index(e.b)
            points[i][j] += e.count
            points[j][i] += e.count

    def key(cfg, i):
        n = cfg.nodes[i]
        return (n.self_int, n.genus, n.mult, n.sing or "")

    mapping, used = [-1] * na, [False] * na

    def extend(i):
        if i == na:
            ta = {tuple(sorted(a.ids.index(x) for x in t)) for t in a.triple_points}
            tb = {tuple(sorted(mapping.index(b.ids.index(x)) for x in t)) for t in b.triple_points}
            return ta == tb
        for j in range(na):
            if used[j] or key(a, i) != key(b, j):
                continue
            if any(ga[i][h] != gb[j][mapping[h]] or pa[i][h] != pb[j][mapping[h]] for h in range(i)):
                continue
            mapping[i], used[j] = j, True
            if extend(i + 1):
                return True
            mapping[i], used[j] = -1, False
        return False

    return extend(0)


@functools.cache
def dense_models():
    return tuple((name, kodaira_fiber(name), dense_signature(kodaira_fiber(name))) for name in FIBER_NAMES)


def dense_recognize_fiber(cfg):
    signature = dense_signature(cfg)
    for name, model, model_signature in dense_models():
        if signature == model_signature and dense_isomorphic(cfg, model):
            return name
    return None


def outcome(fn, *args):
    """A call's answer, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def multigraphs(draw):
    """Up to six nodes, mult 1 or 2, with repeated edges on one pair, count
    and tangency up to 3, triple points and disconnected supports."""
    n = draw(st.integers(1, 6))
    nodes = tuple(
        Node(f"N{i}", draw(st.integers(-4, 1)), genus=draw(st.sampled_from((0, 0, 0, 1))),
             mult=draw(st.integers(1, 2)), sing=draw(st.sampled_from((None, None, None, "node"))))
        for i in range(n)
    )
    ordered = [(a.id, b.id) for a in nodes for b in nodes if a.id != b.id]
    edges = tuple(
        Edge(a, b, count, tangency)
        for (a, b), count, tangency in draw(st.lists(
            st.tuples(st.sampled_from(ordered), st.integers(1, 3), st.integers(1, 3)), max_size=8
        ))
    ) if ordered else ()
    triples = tuple(draw(st.lists(
        st.sampled_from(list(itertools.combinations([x.id for x in nodes], 3))), max_size=2, unique=True
    ))) if n >= 3 else ()
    return CurveConfiguration(nodes, edges, triples)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(multigraphs(), st.data())
def test_adjacency_readers_match_dense_gram(cfg, data):
    gram, ids, n = cfg.gram(), cfg.ids, len(cfg.nodes)
    for i in range(n):
        for j in range(n):
            if i != j:
                points = dense_meeting_points(cfg, ids[i], ids[j])
                assert cfg.meeting_points(ids[i], ids[j]) == points
                assert cfg.adjacency[i].get(j, (0, 0)) == (gram[i][j], points)
    support = data.draw(st.lists(st.sampled_from(range(n)), unique=True))
    assert cfg.components(support) == dense_components(cfg, support)
    vectors = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    m1, m2 = data.draw(vectors), data.draw(vectors)
    assert cfg.pairing(m1, m2) == dense_pairing(gram, m1, m2)
    subset = data.draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(ids), st.integers(0, 2))))
    if subset is not None and not any(subset.values()):
        subset = None
    assert divisor_pa(cfg, subset) == dense_divisor_pa(cfg, subset)
    parts = data.draw(st.permutations(ids))
    cut = data.draw(st.integers(1, n))
    d1, d2 = parts[:cut], parts[cut:] or parts[:1]
    assert outcome(pa_sum_formula_check, cfg, d1, d2) == outcome(dense_pa_sum_formula_check, cfg, d1, d2)


@st.composite
def chain_unions(draw):
    """Lone (-4)-curves and (-3)-(-2)...-(-2)-(-3) chains in shuffled node
    order, often with one edit: a moved self-intersection, a multiplicity,
    an extra, doubled or dropped edge."""
    nodes, edges = [], []
    for c in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 5))
        ids = [f"K{c}.{i}" for i in range(length)]
        selfs = [-4] if length == 1 else [-3] + [-2] * (length - 2) + [-3]
        nodes += [Node(x, s) for x, s in zip(ids, selfs)]
        edges += [Edge(*draw(st.permutations((ids[i], ids[i + 1])))) for i in range(length - 1)]
    edit = draw(st.sampled_from(("none", "none", "self", "mult", "extra", "double", "drop")))
    k = draw(st.integers(0, len(nodes) - 1))
    if edit == "self":
        nodes[k] = Node(nodes[k].id, nodes[k].self_int + draw(st.sampled_from((-1, 1))))
    elif edit == "mult":
        nodes[k] = Node(nodes[k].id, nodes[k].self_int, mult=2)
    elif edit == "extra" and len(nodes) > 1:
        a, b = draw(st.permutations([x.id for x in nodes]))[:2]
        edges.append(Edge(a, b))
    elif edit == "double" and edges:
        edges[k % len(edges)] = Edge(edges[k % len(edges)].a, edges[k % len(edges)].b, count=2)
    elif edit == "drop" and edges:
        edges.pop(k % len(edges))
    return CurveConfiguration(tuple(draw(st.permutations(nodes))), tuple(edges))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(chain_unions(), multigraphs()))
def test_log_enriques_shape_matches_dense(cfg):
    assert log_enriques_shape(cfg) == dense_log_enriques_shape(cfg)


@st.composite
def loops(draw):
    """A loop of 2-5 nodes, up to two extra nodes and edges, and the chain
    read from a random start in a random direction, sometimes shuffled."""
    length = draw(st.integers(2, 5))
    ids = [f"L{i}" for i in range(length)] + [f"X{i}" for i in range(draw(st.integers(0, 2)))]
    nodes = tuple(Node(x, draw(st.integers(-7, 0))) for x in ids)
    if length == 2:
        edges = [Edge("L0", "L1", count=2)]
    else:
        edges = [Edge(f"L{i}", f"L{(i + 1) % length}") for i in range(length)]
    for a, b, count in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.integers(1, 2)).filter(lambda t: t[0] != t[1]),
        max_size=2,
    )):
        edges.append(Edge(a, b, count))
    start, step = draw(st.integers(0, length - 1)), draw(st.sampled_from((1, -1)))
    cycle = [f"L{(start + step * i) % length}" for i in range(length)]
    chain = cycle[1:]
    if draw(st.booleans()):
        chain = list(draw(st.permutations(chain)))
    return CurveConfiguration(nodes, tuple(edges)), chain, cycle[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(loops())
def test_loop_inequality_matches_dense(case):
    cfg, chain, m1 = case
    assert outcome(loop_inequality_check, cfg, chain, m1) == outcome(dense_loop_inequality_check, cfg, chain, m1)


def test_loop_inequality_checks_linearly_many_pairs(monkeypatch):
    # a 2,000-member simple loop of (-3)-curves plus one chord: at most 2L + e
    # meeting_points lookups, where checking every pair would take L(L - 1)/2
    n = 2000
    ids = [f"C{i}" for i in range(n)]
    edges = [Edge(ids[i], ids[(i + 1) % n]) for i in range(n)]
    chord = CurveConfiguration(tuple(Node(c, -3) for c in ids), tuple(edges) + (Edge(ids[0], ids[n // 2]),))
    simple = CurveConfiguration(tuple(Node(c, -3) for c in ids), tuple(edges))
    calls = []
    real = CurveConfiguration.meeting_points
    monkeypatch.setattr(CurveConfiguration, "meeting_points", lambda cfg, a, b: calls.append((a, b)) or real(cfg, a, b))
    report = loop_inequality_check(simple, ids[1:], ids[0])
    assert report.inequality_holds and report.loop_unique
    assert len(calls) <= 2 * n + len(simple.edges)
    calls.clear()
    with pytest.raises(ValueError, match=f"C0,C{n // 2} meet at 1 points, need 0"):
        loop_inequality_check(chord, ids[1:], ids[0])
    assert len(calls) <= 2 * n + len(chord.edges)


@st.composite
def fiber_variants(draw):
    """A Kodaira model with shuffled, renamed nodes and edges, either as it is
    or after one edit.  A split writes an edge of count c as two records of
    counts 1 and max(c - 1, 1): the same configuration when c >= 2."""
    name = draw(st.sampled_from(FIBER_NAMES))
    data = kodaira_fiber(name).to_json()
    rename = dict(zip((n["id"] for n in data["nodes"]), draw(st.permutations(range(len(data["nodes"]))))))
    nodes = [{**n, "id": f"v{rename[n['id']]}"} for n in data["nodes"]]
    edges = [{**e, "a": f"v{rename[e['a']]}", "b": f"v{rename[e['b']]}"} for e in data["edges"]]
    edges = [{**e, "a": e["b"], "b": e["a"]} if draw(st.booleans()) else e for e in edges]
    edit = draw(st.sampled_from(("none", "none", "none", "self", "mult", "drop", "count", "tangency", "split")))
    if edit in ("self", "mult"):
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        node[edit] += 1 if edit == "mult" else draw(st.sampled_from((-1, 1)))
    elif edit == "split" and edges:
        e = edges.pop(draw(st.integers(0, len(edges) - 1)))
        edges += [{**e, "count": 1}, {**e, "count": max(e["count"] - 1, 1)}]
        if e["count"] == 1:  # one more meeting point: a near-miss
            edit = "count"
    elif edges and edit != "none":
        k = draw(st.integers(0, len(edges) - 1))
        if edit == "drop":
            edges.pop(k)
        else:
            edges[k] = {**edges[k], edit: edges[k][edit] + 1}
    triples = [[f"v{rename[x]}" for x in t] for t in data.get("triples", ())]
    cfg = config_from_json({"nodes": draw(st.permutations(nodes)), "edges": draw(st.permutations(edges)),
                            "triples": triples})
    return cfg, name if edit in ("none", "split") else None


@settings(max_examples=70, deadline=None, derandomize=True)
@given(fiber_variants())
def test_recognize_fiber_matches_dense(case):
    cfg, name = case
    found = recognize_fiber(cfg)
    assert found == dense_recognize_fiber(cfg)
    if name is not None:
        assert found == name


def checked_json_list(data: dict, key: str, kind: type, required: tuple = ()) -> list:
    items = data.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, kind) and all(r in x for r in required) for x in items):
        what = "arrays" if kind is list else "objects with " + " and ".join(map(repr, required))
        raise ValueError(f"{key!r} must be a list of JSON {what}")
    return items


def checked_json_int(obj: dict, key: str, default=None) -> int:
    value = obj.get(key, default)
    if type(value) is not int:
        got, where = (json.dumps(x, default=repr) for x in (value, obj))
        raise ValueError(f"{key!r} must be an integer, got {got} in {where}")
    return value


def checked_config_from_json(data):
    """An item-by-item reader, independent of ``config``'s helpers: the
    whole list's shape first, then each item's fields in order."""
    if not isinstance(data, dict) or not data.get("nodes"):
        raise ValueError("a configuration must be a JSON object with a nonempty 'nodes' list")
    nodes = tuple(
        Node(str(n["id"]), checked_json_int(n, "self"), checked_json_int(n, "genus", 0),
             checked_json_int(n, "mult", 1), n.get("sing"))
        for n in checked_json_list(data, "nodes", dict, ("id",))
    )
    edges = tuple(
        Edge(str(e["a"]), str(e["b"]), checked_json_int(e, "count", 1), checked_json_int(e, "tangency", 1))
        for e in checked_json_list(data, "edges", dict, ("a", "b"))
    )
    triples = tuple(tuple(map(str, t)) for t in checked_json_list(data, "triples", list))
    return CurveConfiguration(nodes, edges, triples)


def read_outcome(read, data):
    """The configuration read, or the type and message of what was raised."""
    try:
        return read(data)
    except Exception as exc:
        return type(exc), str(exc)


BAD_VALUES = (-1, 0, 2.0, -1.5, True, False, "1", None, [1], "node", "bogus")


@st.composite
def json_configurations(draw):
    """Node and edge lists of up to four items, each valid or with one field
    removed or replaced, sometimes as an ``OrderedDict``, and sometimes a
    whole list replaced."""
    def item(valid, keys):
        if not draw(st.integers(0, 3)):
            if not draw(st.integers(0, 5)):
                return draw(st.sampled_from((5, "x", [], None)))
            key = draw(st.sampled_from(keys))
            if key in valid and not draw(st.integers(0, 3)):
                valid = {k: v for k, v in valid.items() if k != key}
            else:
                valid = {**valid, key: draw(st.sampled_from(BAD_VALUES))}
        return valid if draw(st.integers(0, 4)) else collections.OrderedDict(valid)

    ids = [f"N{i}" for i in range(draw(st.integers(1, 4)))]
    nodes = [item({"id": x, "self": draw(st.integers(-3, 0))}, ("id", "self", "genus", "mult", "sing"))
             for x in ids]
    edges = [item({"a": draw(st.sampled_from(ids + ["Z"])), "b": draw(st.sampled_from(ids))},
                  ("a", "b", "count", "tangency"))
             for _ in range(draw(st.integers(0, 4)))]
    data = {"nodes": nodes, "edges": edges}
    for key in ("nodes", "edges"):
        if not draw(st.integers(0, 5)):
            data[key] = draw(st.sampled_from((5, "abc", {"id": "A"}, tuple(data[key]), [])))
    if draw(st.integers(0, 3)) == 0:
        data["triples"] = draw(st.sampled_from(([ids[:3]], [5], "abc", [["N0", "N0", "N1"]], [ids[:3] + ids[:1]])))
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(json_configurations())
def test_config_from_json_matches_the_checked_reader(data):
    # the same configuration, or the same exception with the same message
    assert read_outcome(config_from_json, data) == read_outcome(checked_config_from_json, data)


def test_config_from_json_loads_every_model_and_refuses_non_integers():
    for name in FIBER_NAMES:
        assert config_from_json(kodaira_fiber(name).to_json()) == kodaira_fiber(name)
    for bad in (-1.5, -1.0, True, "-1", None):
        with pytest.raises(ValueError, match="'self' must be an integer"):
            config_from_json({"nodes": [{"id": "A", "self": bad}]})
    with pytest.raises(ValueError, match="'nodes'"):
        config_from_json({"nodes": []})


def test_config_nested_at_any_depth_is_refused_with_value_error():
    for depth in range(1, sys.getrecursionlimit() + 10):
        deep = "[" * depth + "]" * depth
        with pytest.raises(ValueError, match="'self' must be an integer|nested too deeply"):
            config_from_json('{"nodes": [{"id": %s, "self": %s}]}' % (deep, deep))


def test_library_builds_no_dense_gram(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("the library built a dense Gram")

    monkeypatch.setattr(CurveConfiguration, "gram", refuse)
    cases = [kodaira_fiber(name) for name in ("I5", "I2", "IV", "I2*", "II*")]
    cases += [chain(-3, -2, -2, -3), chain(-2, -2, -2)]
    cases.append(CurveConfiguration(  # a near-miss of 2 I0*: D.C < 0 on a leaf, so it scans
        (Node("C", -2, mult=4),) + tuple(Node(f"L{i}", -2 - (i == 0), mult=2) for i in range(4)),
        tuple(Edge("C", f"L{i}") for i in range(4)),
    ))
    for cfg in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert cli.main(["check-config", "--input", str(path), "--json"]) == 0
        assert (recognize_fiber(cfg) is None) is (cfg in cases[-3:])
        is_numerically_k_connected(cfg, None, 1)
    capsys.readouterr()
    # both scans: Python integers at 4096 decompositions, numpy blocks above
    assert is_numerically_k_connected(cases[1], {"A": 15, "B": 255}, 1) is False
    assert is_numerically_k_connected(cases[1], {"A": 16, "B": 240}, 1) is False
    assert pa_sum_formula_check(cases[0], ["C0", "C1"], ["C2", "C3", "C4"])["holds"]
    assert loop_inequality_check(cases[0], ["C1", "C2", "C3", "C4"], "C0").loop_unique
    assert log_enriques_shape(cases[5]).chains == (("C0", "C1", "C2", "C3"),)
