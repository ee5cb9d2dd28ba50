"""Dual-graph divisor arithmetic: genus, connectedness, SNC, loop bound."""

import itertools
import math
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coble import config
from coble.config import (
    MAX_DECOMPOSITIONS,
    UNDETERMINED,
    CurveConfiguration,
    DecompositionBudgetError,
    Edge,
    Node,
    check_snc,
    config_from_json,
    divisor_pa,
    is_numerically_k_connected,
    loop_inequality_check,
    pa_sum_formula_check,
)
from coble.fibers import FIBER_NAMES, kodaira_fiber


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
    # closed form decides k = 1 and the scan k = 3 and the midpoint bound
    for m in (4000, 5000):
        cfg = CurveConfiguration((Node("A", 10**15, mult=m),))
        assert is_numerically_k_connected(cfg, None, 1)
        assert is_numerically_k_connected(cfg, None, 3)
        least = (m - 1) * 10**15
        assert is_numerically_k_connected(cfg, None, least)
        assert not is_numerically_k_connected(cfg, None, least + 1)
        d_sq, k_d = m * m * 10**15, m * (-2 - 10**15)
        assert divisor_pa(cfg) == (d_sq + k_d) // 2 + 1


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
