"""Degenerate genus-1 fiber catalog: class identities and recognition."""

import gc

import pytest

from coble.config import CurveConfiguration, Edge, Node, divisor_pa
from coble.fibers import (
    FIBER_NAMES,
    fiber_euler_number,
    fiber_family,
    kodaira_fiber,
    recognize_fiber,
)


def fiber_numerics(cfg):
    """(F^2, K.F, p_a(F)) for F = sum of components with multiplicities."""
    gram = cfg.gram()
    mults = [n.mult for n in cfg.nodes]
    f_sq = sum(
        mults[i] * mults[j] * gram[i][j]
        for i in range(len(mults))
        for j in range(len(mults))
    )
    k_f = sum(m * kd for m, kd in zip(mults, cfg.canonical_degrees()))
    return f_sq, k_f, divisor_pa(cfg)


def test_catalog_is_complete():
    assert "smooth" in FIBER_NAMES
    assert {f"I{n}" for n in range(1, 13)} <= set(FIBER_NAMES)
    assert {f"I{b}*" for b in range(0, 9)} <= set(FIBER_NAMES)
    assert {"II", "III", "IV", "II*", "III*", "IV*"} <= set(FIBER_NAMES)
    assert len(FIBER_NAMES) == 1 + 6 + 12 + 9


def test_every_fiber_is_numerically_anticanonical():
    # F^2 = 0, K.F = 0, p_a(F) = 1: the class identities of a genus-1
    # pencil member, exactly
    for name in FIBER_NAMES:
        f_sq, k_f, pa = fiber_numerics(kodaira_fiber(name))
        assert f_sq == 0, name
        assert k_f == 0, name
        assert pa == 1, name


def test_recognition_round_trip():
    for name in FIBER_NAMES:
        assert recognize_fiber(kodaira_fiber(name)) == name


def test_euler_numbers():
    assert fiber_euler_number("smooth") == 0
    assert fiber_euler_number("II") == 2
    assert fiber_euler_number("III") == 3
    assert fiber_euler_number("IV") == 4
    assert fiber_euler_number("II*") == 10
    assert fiber_euler_number("III*") == 9
    assert fiber_euler_number("IV*") == 8
    for n in range(1, 13):
        assert fiber_euler_number(f"I{n}") == n
    for b in range(0, 9):
        assert fiber_euler_number(f"I{b}*") == b + 6
    with pytest.raises(KeyError):
        fiber_euler_number("V")


def test_one_reader_for_type_names():
    assert [fiber_family(name) for name in ("smooth", "II*", "I1", "I12", "I0*", "I8*")] == [
        ("smooth", 0), ("II*", 0), ("I", 1), ("I", 12), ("I*", 0), ("I*", 8)]
    for name in ("I13", "I0", "I01", "I99", "I9*", "I*", "nonsense", ""):
        for read in (fiber_family, fiber_euler_number, kodaira_fiber):
            with pytest.raises(KeyError, match="unknown fiber type"):
                read(name)


def test_component_counts():
    assert len(kodaira_fiber("I1").nodes) == 1
    assert len(kodaira_fiber("I5").nodes) == 5
    assert len(kodaira_fiber("I0*").nodes) == 5
    assert len(kodaira_fiber("I3*").nodes) == 8
    assert len(kodaira_fiber("II*").nodes) == 9
    assert len(kodaira_fiber("IV").nodes) == 3


def test_recognition_rejects_perturbations():
    # wrong multiplicity on the star center
    star = CurveConfiguration(
        tuple(Node(f"R{i}", -2) for i in range(1, 5)) + (Node("C", -2, mult=1),),
        tuple(Edge(f"R{i}", "C") for i in range(1, 5)),
    )
    assert recognize_fiber(star) is None  # I0* needs the center doubled
    # wrong self-intersection somewhere
    almost_i2 = CurveConfiguration(
        (Node("A", -2), Node("B", -3)), (Edge("A", "B", count=2),)
    )
    assert recognize_fiber(almost_i2) is None
    # a (-1)-curve is not a fiber
    assert recognize_fiber(CurveConfiguration((Node("E", -1),))) is None


def test_recognition_is_label_insensitive():
    # the hexagon with scrambled ids and reversed edges is still I6
    ids = ["u", "v", "w", "x", "y", "z"]
    nodes = tuple(Node(i, -2) for i in ids)
    edges = tuple(
        Edge(ids[(i + 1) % 6], ids[i]) for i in range(6)
    )
    assert recognize_fiber(CurveConfiguration(nodes, edges)) == "I6"


def test_recognition_leaves_no_cyclic_garbage():
    # each model with new ids, its nodes and edges reversed: the matcher
    # backtracks, and nothing it builds may wait for the cyclic collector
    def relabelled(cfg):
        new = {n.id: f"r{n.id}" for n in cfg.nodes}
        return CurveConfiguration(
            tuple(Node(new[n.id], n.self_int, n.genus, n.mult, n.sing) for n in reversed(cfg.nodes)),
            tuple(Edge(new[e.b], new[e.a], e.count, e.tangency) for e in reversed(cfg.edges)),
            tuple(tuple(new[x] for x in t) for t in cfg.triple_points),
        )

    models = [relabelled(kodaira_fiber(name)) for name in FIBER_NAMES]
    recognize_fiber(models[0])  # the shared models are built outside the count
    gc.collect()
    gc.disable()
    try:
        assert [recognize_fiber(m) for m in models] == FIBER_NAMES
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_i2_and_iii_differ_by_tangency():
    # both are two components with pairing 2; III is the tangent one
    i2 = kodaira_fiber("I2")
    iii = kodaira_fiber("III")
    assert recognize_fiber(i2) == "I2"
    assert recognize_fiber(iii) == "III"
    assert {e.tangency for e in i2.edges} == {1}
    assert {e.tangency for e in iii.edges} == {2}


def test_ii_is_the_cuspidal_member():
    ii = kodaira_fiber("II")
    assert len(ii.nodes) == 1
    assert ii.nodes[0].sing == "cusp"
    i1 = kodaira_fiber("I1")
    assert i1.nodes[0].sing == "node"


def test_models_are_built_once_and_matches_still_checked(monkeypatch):
    from coble import fibers

    assert recognize_fiber(kodaira_fiber("I3")) == "I3"

    def no_build(name):
        raise AssertionError(f"model {name} rebuilt")

    monkeypatch.setattr(fibers, "kodaira_fiber", no_build)
    assert [recognize_fiber(m) for _, m, _ in fibers._models()] == FIBER_NAMES
    # the genus identity is re-derived on every match, not once per model
    monkeypatch.setattr(fibers, "divisor_pa", lambda cfg: 0)
    with pytest.raises(AssertionError, match="arithmetic genus 1"):
        recognize_fiber(CurveConfiguration(
            tuple(Node(f"x{i}", -2) for i in range(3)),
            (Edge("x0", "x1"), Edge("x1", "x2"), Edge("x2", "x0")),
        ))
