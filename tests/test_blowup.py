"""Blow-up bookkeeping: transforms, class identities, graph extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coble.blowup import (
    BlowUpSequence,
    Center,
    CurveAssignment,
    configuration_from_classes,
    make_assignment,
    proper_transform,
    total_transform,
)
from coble.lattice import (
    I64_MAX,
    P2,
    Hirzebruch,
    LatticeMismatch,
    arithmetic_genus,
    make_lattice,
    pair,
    weighted_sum,
)


def plane_seq(*cids):
    return BlowUpSequence(P2(), tuple(Center(c) for c in cids))


def test_k_squared_drops_by_one_per_center():
    assert plane_seq().k_squared() == 9
    assert plane_seq(*[f"p{i}" for i in range(9)]).k_squared() == 0
    hseq = BlowUpSequence(Hirzebruch(2), tuple(Center(f"q{i}") for i in range(3)))
    assert hseq.k_squared() == 5


def test_center_ordering_validation():
    with pytest.raises(ValueError):
        BlowUpSequence(P2(), (Center("p"), Center("p")))
    # a center may not take the name of a basis vector of the base
    for base, label in ((P2(), "e0"), (Hirzebruch(2), "f"), (Hirzebruch(0), "s0")):
        with pytest.raises(ValueError, match=f"center id '{label}' names a basis vector"):
            BlowUpSequence(base, (Center("p"), Center(label, parent="p")))
    # a parent must appear before its child
    with pytest.raises(ValueError):
        BlowUpSequence(P2(), (Center("q", parent="p"), Center("p")))
    with pytest.raises(KeyError):
        plane_seq("p").center("missing")


def test_exceptional_classes():
    seq = BlowUpSequence(P2(), (Center("p"), Center("q", parent="p")))
    e_p, e_q = seq.exceptional("p"), seq.exceptional("q")
    assert e_p.self_intersection() == -1
    # the irreducible curve over p loses its child's class and becomes a (-2)
    ep_irr = seq.exceptional_proper("p")
    assert ep_irr.self_intersection() == -2
    assert pair(ep_irr, e_q) == 1
    assert seq.exceptional_proper("q") == e_q


def test_lift_preserves_base_intersections():
    seq = plane_seq("p1", "p2")
    line = seq.base_lattice.make_class((1,))
    lifted = seq.lift(line)
    assert lifted.self_intersection() == 1
    assert lifted.coeffs == (1, 0, 0)
    other = make_lattice(Hirzebruch(1), 0).make_class((1, 0))
    with pytest.raises(LatticeMismatch):
        seq.lift(other)


def test_assignment_validation():
    seq = BlowUpSequence(
        P2(), (Center("p", on_curves=("C",)), Center("q", parent="p"))
    )
    line = seq.base_lattice.make_class((1,))
    with pytest.raises(ValueError, match="unknown center"):
        make_assignment(seq, "C", line, {"zz": 1})
    with pytest.raises(ValueError, match="negative"):
        make_assignment(seq, "C", line, {"p": -1})
    # an infinitely near point cannot be more singular than its parent
    with pytest.raises(ValueError, match="exceeds"):
        make_assignment(seq, "C", line, {"p": 1, "q": 2})
    # declared on the curve but multiplicity zero
    with pytest.raises(ValueError, match="declared on this curve"):
        make_assignment(seq, "C", line, {})
    wrong = make_lattice(P2(), 1).make_class((1, 0))
    with pytest.raises(LatticeMismatch):
        make_assignment(seq, "C", wrong, {"p": 1})
    ok = make_assignment(seq, "C", line, {"p": 2, "q": 1})
    assert ok.mults == {"p": 2, "q": 1}


def test_assignment_errors_come_in_sequence_order():
    # q exceeds its parent p, r is declared on C with multiplicity 0, and s
    # exceeds its parent r; the first center in the sequence is reported,
    # whatever the order of the multiplicities.  The five plain centers put
    # r and s at indices 7 and 8, which a set of indices yields as 8, 7.
    seq = BlowUpSequence(P2(), (
        Center("p", on_curves=("C",)), Center("q", parent="p"),
        *(Center(f"f{i}") for i in range(5)),
        Center("r", on_curves=("C", "D")), Center("s", parent="r"), Center("t"),
    ))
    line = seq.base_lattice.make_class((1,))

    def error(mults, label="C"):
        with pytest.raises(ValueError) as info:
            make_assignment(seq, label, line, mults)
        return str(info.value)

    assert error({"s": 1, "q": 2, "p": 1}) == (
        "curve 'C': multiplicity 2 at 'q' exceeds parent 'p''s multiplicity"
    )
    assert error({"s": 1, "q": 1, "p": 1}) == (
        "curve 'C': center 'r' is declared on this curve but the multiplicity there is 0"
    )
    assert error({"t": 1}) == (
        "curve 'C': center 'p' is declared on this curve but the multiplicity there is 0"
    )
    assert error({"t": 1, "s": 1}, "D") == (
        "curve 'D': center 'r' is declared on this curve but the multiplicity there is 0"
    )
    assert error({"s": 2, "r": 1}, "D") == (
        "curve 'D': multiplicity 2 at 's' exceeds parent 'r''s multiplicity"
    )
    assert make_assignment(seq, "D", line, {"r": 1, "s": 1}).mults == {"r": 1, "s": 1}


def test_transforms():
    seq = plane_seq(*[f"p{i}" for i in range(1, 6)])
    conic = seq.base_lattice.make_class((2,))
    c = make_assignment(seq, "C", conic, {f"p{i}": 1 for i in range(1, 6)})
    tot, prop = total_transform(seq, c), proper_transform(seq, c)
    assert tot.self_intersection() == 4
    # conic through five points: (2; 1^5) has square -1 and genus 0
    assert prop.self_intersection() == -1
    assert arithmetic_genus(prop) == 0
    diff = tot - prop
    assert diff == sum(
        (seq.lattice.basis_class(f"p{i}") for i in range(1, 6)),
        seq.lattice.zero(),
    )


def test_class_identities():
    seq = BlowUpSequence(
        P2(),
        tuple(Center(f"p{i}", on_curves=("C",)) for i in range(1, 10)),
    )
    cubic = seq.base_lattice.make_class((3,))
    c = make_assignment(seq, "C", cubic, {f"p{i}": 1 for i in range(1, 10)})
    proper, total = proper_transform(seq, c), total_transform(seq, c)
    # a cubic through nine points represents the anticanonical class
    assert proper == -seq.lattice.canonical
    # the total transform keeps the exceptional coefficients at zero
    exceptional = [(1, seq.exceptional(f"p{i}")) for i in range(1, 10)]
    assert total == weighted_sum([(1, proper), *exceptional])
    assert total == 3 * seq.lift(seq.base_lattice.unit(0))
    # a wrong identity leaves a nonzero residual
    assert any((proper - seq.lattice.canonical).coeffs)


def reference_classes(seq, assignments):
    """Every class a sequence and its curves name, built from lattice basis
    classes by + and - only."""
    lat = seq.lattice
    out = {("canonical",): lat.canonical}
    for label, c in assignments.items():
        total = lat.make_class(c.base_class.coeffs + (0,) * len(seq.centers))
        proper = total
        for cid, m in c.mults.items():
            proper = proper - m * lat.basis_class(cid)
        out[("total", label)], out[("proper", label)] = total, proper
    for c in seq.centers:
        out[("exceptional", c.id)] = lat.basis_class(c.id)
        curve = lat.basis_class(c.id)
        for child in seq.centers:
            if child.parent == c.id:
                curve = curve - lat.basis_class(child.id)
        out[("exceptional_proper", c.id)] = curve
    for label in seq.base_lattice.basis_labels:
        out[("base", label)] = lat.basis_class(label)
    return out


def transform_classes(seq, assignments):
    """The same classes as ``reference_classes``, from the sequence's API."""
    out = {("canonical",): seq.lattice.canonical}
    for label, c in assignments.items():
        out[("total", label)] = total_transform(seq, c)
        out[("proper", label)] = proper_transform(seq, c)
    for c in seq.centers:
        out[("exceptional", c.id)] = seq.exceptional(c.id)
        out[("exceptional_proper", c.id)] = seq.exceptional_proper(c.id)
    for label in seq.base_lattice.basis_labels:
        out[("base", label)] = seq.lift(seq.base_lattice.basis_class(label))
    return out


@st.composite
def sequences_and_terms(draw):
    """A sequence with infinitely near centers, two curves on it, and a
    nonempty list of (coefficient, key) terms over every kind of class that
    ``reference_classes`` names."""
    base = draw(st.sampled_from([P2(), Hirzebruch(0), Hirzebruch(1), Hirzebruch(3)]))
    centers = []
    for i in range(draw(st.integers(1, 8))):
        parent = draw(st.sampled_from([None] + [c.id for c in centers]))
        centers.append(Center(f"p{i}", parent=parent))
    seq = BlowUpSequence(base, tuple(centers))
    head = seq.base_lattice.rank
    assignments = {}
    for label in ("A", "B"):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=head, max_size=head))
        mults = {}
        for c in centers:
            cap = 4 if c.parent is None else mults.get(c.parent, 0)
            mults[c.id] = draw(st.integers(0, cap))
        base_class = seq.base_lattice.make_class(coeffs)
        assignments[label] = make_assignment(seq, label, base_class, mults)
    keys = list(reference_classes(seq, assignments))
    terms = st.lists(
        st.tuples(st.integers(-10**6, 10**6), st.sampled_from(keys)), min_size=1, max_size=10
    )
    return seq, assignments, draw(terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sequences_and_terms())
def test_combination_matches_the_folded_terms(case):
    seq, assignments, terms = case
    classes = transform_classes(seq, assignments)
    assert classes == reference_classes(seq, assignments)
    folded = seq.lattice.zero()
    for k, key in terms:
        folded = folded + k * classes[key]
    assert weighted_sum((k, classes[key]) for k, key in terms) == folded


def test_identity_term_errors():
    seq = BlowUpSequence(P2(), (Center("p"), Center("q", parent="p")))
    # e0 is a basis label of the lattice but not a center
    for cid in ("zz", "e0"):
        for exceptional in (seq.exceptional, seq.exceptional_proper, seq.center):
            with pytest.raises(KeyError, match=f"unknown center '{cid}'"):
                exceptional(cid)
    # exceptional labels are not base basis labels
    with pytest.raises(ValueError):
        seq.base_lattice.basis_class("p")


def test_combination_term_errors():
    seq = BlowUpSequence(P2(), (Center("p"), Center("q", parent="p")))
    # a base class from another lattice, under either transform
    for wrong in (make_lattice(P2(), 1).make_class((1, 0)), make_lattice(Hirzebruch(0), 0).zero()):
        c = CurveAssignment("C", wrong, {})
        for transform in (proper_transform, total_transform):
            with pytest.raises(LatticeMismatch):
                transform(seq, c)
    # terms from two lattices, or none at all
    with pytest.raises(LatticeMismatch):
        weighted_sum([(1, seq.exceptional("p")), (1, make_lattice(P2(), 2).unit(1))])
    with pytest.raises(ValueError, match="at least one term"):
        weighted_sum([])


def test_combination_guards_the_finished_class_only():
    seq = plane_seq("p")
    line, e_p = seq.lift(seq.base_lattice.unit(0)), seq.exceptional("p")
    big = 2**62
    # partial sums leave int64, the total fits: the exact class
    assert weighted_sum([(big, line), (big, line), (-big, line)]).coeffs == (big, 0)
    assert weighted_sum([(I64_MAX, e_p), (1, e_p), (-1, e_p)]).coeffs == (0, I64_MAX)
    assert weighted_sum([(-big, line), (-big, line), (-1, e_p)]).coeffs == (-(2**63), -1)
    # a total past int64 still raises
    with pytest.raises(OverflowError, match=f"value {2**63} leaves"):
        weighted_sum([(big, line), (big, line)])
    with pytest.raises(OverflowError, match=f"value {-(2**63) - 1} leaves"):
        weighted_sum([(-I64_MAX, e_p), (-2, e_p)])


def test_configuration_from_classes():
    seq = plane_seq("p", "q")
    lat = seq.lattice
    line_pq = lat.make_class((1, -1, -1))
    e_p = lat.basis_class("p")
    cfg = configuration_from_classes(
        [("L", line_pq, 0, 1), ("E", e_p, 0, 1)]
    )
    assert {n.id: n.self_int for n in cfg.nodes} == {"L": -1, "E": -1}
    (edge,) = cfg.edges
    assert {edge.a, edge.b} == {"L", "E"} and edge.count == 1
    # a pairing of 2 is an edge with count 2
    conic = lat.make_class((2, 0, 0))
    line = lat.make_class((1, 0, 0))
    (edge2,) = configuration_from_classes([("C", conic, 0, 1), ("L", line, 0, 1)]).edges
    assert edge2.count == 2 and edge2.tangency == 1
    # two names for one class pair negatively: not a curve pair
    with pytest.raises(ValueError, match="pair negatively"):
        configuration_from_classes([("A", e_p, 0, 1), ("B", e_p, 0, 1)])
