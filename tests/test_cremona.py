"""Degree reduction of plane multiplicity vectors by plane transformations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coble.cremona import (
    MultiplicityVector,
    ReductionError,
    TransformNotAdmissible,
    from_class,
    low_degree_rational_family,
    make_vector,
    noether_reduce,
    parse_vector,
    quadratic_transform,
    quintic_transform,
    to_class,
)
from coble.lattice import reflect


def test_parse_and_canonical_form():
    v = parse_vector("(6; 3,3, 2,2,2,2)")
    assert (v.d, v.mults) == (6, (3, 3, 2, 2, 2, 2))
    assert parse_vector("(1)").mults == ()
    # multiplicities come back sorted with zeros dropped
    assert make_vector(5, (1, 0, 3, 2)).mults == (3, 2, 1)
    assert str(make_vector(2, ())) == "(2)"
    with pytest.raises(ValueError):
        make_vector(4, (2, -1))
    with pytest.raises(ValueError):
        MultiplicityVector(3, (1, 2))  # not sorted descending


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position 5"):
        parse_vector("(4;2,a)")
    with pytest.raises(ValueError, match="empty entry"):
        parse_vector("(4;2,,2)")
    with pytest.raises(ValueError, match="expected"):
        parse_vector("4;2,2")
    with pytest.raises(ValueError, match="unexpected character"):
        parse_vector("(4;-2)")


def test_vector_class_round_trip():
    v = parse_vector("(6;3,3,2)")
    c = to_class(v, 5)
    assert c.coeffs == (6, -3, -3, -2, 0, 0)
    assert from_class(c) == v
    with pytest.raises(ValueError):
        to_class(v, 2)
    with pytest.raises(ValueError):
        from_class(c.lattice.make_class((-1, 0, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        from_class(c.lattice.make_class((1, 1, 0, 0, 0, 0)))


def test_quadratic_transform_oracles():
    assert str(quadratic_transform(parse_vector("(4;2,2,2)"), 0, 1, 2)) == "(2)"
    assert (
        str(quadratic_transform(parse_vector("(6;4,2,2,2,2)"), 0, 1, 2))
        == "(4;2,2,2)"
    )
    # based at general points the conic returns to the triple-point quartic
    assert str(quadratic_transform(parse_vector("(2)"), 0, 1, 2)) == "(4;2,2,2)"
    # degree changes by 2d - m1 - m2 - m3
    v = parse_vector("(7;3,3,2,2)")
    assert quadratic_transform(v, 0, 1, 2).d == 2 * 7 - 3 - 3 - 2
    with pytest.raises(ValueError):
        quadratic_transform(v, 0, 0, 1)
    with pytest.raises(TransformNotAdmissible):
        quadratic_transform(parse_vector("(3;2,2,2)"), 0, 1, 2)


def test_quintic_transform_oracles():
    assert str(quintic_transform(parse_vector("(5;2,2,2,2,2,2)"), range(6))) == "(1)"
    # the double-point sextic is fixed
    fixed = parse_vector("(6;2,2,2,2,2,2)")
    assert quintic_transform(fixed, range(6)) == fixed
    with pytest.raises(ValueError):
        quintic_transform(fixed, range(5))
    with pytest.raises(ValueError):
        quintic_transform(fixed, [0, 0, 1, 2, 3, 4])
    with pytest.raises(TransformNotAdmissible):
        quintic_transform(parse_vector("(2;1,1,1,1,1,1)"), range(6))


def reflected(v, a, idx):
    """Oracle: the class of v reflected in a e0 - sum_{i in idx} e_i and read
    back as a vector; ValueError when the image is not a curve vector."""
    cls = to_class(v, max(len(v.mults), max(idx) + 1))
    root = cls.lattice.make_class([a] + [-int(i in idx) for i in range(cls.lattice.rank - 1)])
    return from_class(reflect(cls, root))


@pytest.mark.parametrize(
    "a, transform",
    [(1, lambda v, idx: quadratic_transform(v, *idx)), (2, quintic_transform)],
    ids=["quadratic", "quintic"],
)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 30), st.lists(st.integers(0, 16), max_size=9), st.data())
def test_transform_is_the_lattice_reflection(a, transform, d, mults, data):
    # a e0 - sum e_i is a (-2)-root on a^2 + 2 points
    idx = data.draw(st.lists(st.integers(0, 11), min_size=a * a + 2, max_size=a * a + 2, unique=True))
    v = make_vector(d, mults)
    try:
        expected = reflected(v, a, idx)
    except ValueError:
        with pytest.raises(TransformNotAdmissible):
            transform(v, idx)
    else:
        assert transform(v, idx) == expected


def test_quadratic_refusal_text():
    # the CLI prints this text when a greedy step is refused
    with pytest.raises(TransformNotAdmissible) as exc:
        quadratic_transform(parse_vector("(5;3,3,1,1,1)"), 0, 1, 5)
    assert str(exc.value) == (
        "transformation not admissible for this vector: (5;...) at multiplicities 3,3,0"
    )


def test_reduce_traces():
    r = noether_reduce(parse_vector("(6;3,3,2,2,2,2)"))
    assert r.display_trace() == ["(6;3,3,2,2,2,2)", "(4;2,2,2)", "(2)"]
    assert r.final.describe() == "conic"
    assert noether_reduce(parse_vector("(6;3,3,3,2)")).display_trace() == [
        "(6;3,3,3,2)",
        "(3;2)",
    ]
    # the six-double-point quintic drops to a line in one degree-5 step
    r5 = noether_reduce(parse_vector("(5;2,2,2,2,2,2)"))
    assert [s.op for s in r5.steps] == ["quintic"]
    assert r5.final.describe() == "line"
    # without it, two quadratic steps leave a conic
    r5q = noether_reduce(parse_vector("(5;2,2,2,2,2,2)"), use_quintic=False)
    assert [s.op for s in r5q.steps] == ["quadratic", "quadratic"]
    assert r5q.final.describe() == "conic"


def test_reduce_guards():
    with pytest.raises(ValueError, match="genus proxy"):
        noether_reduce(parse_vector("(4;2,2)"))
    forced = noether_reduce(parse_vector("(4;2,2)"), force=True)
    assert forced.final == parse_vector("(4;2,2)")  # 2+2+0 <= 4, nothing to do
    # degree <= 3 vectors with one singular point are already terminal
    r = noether_reduce(parse_vector("(3;2)"))
    assert r.steps == () and r.final.describe() == "(3;2)"


def test_reduce_stuck_keeps_partial_trace():
    # rational, but the second step would need a negative multiplicity
    v = parse_vector("(7;3,3,3,3,3)")
    assert v.genus_proxy() == 0
    with pytest.raises(ReductionError) as exc:
        noether_reduce(v)
    partial = exc.value.partial
    assert partial.start == v
    assert len(partial.steps) == 1
    assert partial.final == parse_vector("(5;3,3,1,1,1)")


def test_rational_family_is_frozen():
    assert [str(v) for v in low_degree_rational_family()] == [
        "(4;2,2,2)",
        "(5;2,2,2,2,2,2)",
        "(5;3,2,2,2)",
        "(6;3,2,2,2,2,2,2,2)",
        "(6;3,3,2,2,2,2)",
        "(6;3,3,3,2)",
        "(6;4,2,2,2,2)",
    ]
    for v in low_degree_rational_family():
        assert v.genus_proxy() == 0
        assert noether_reduce(v).final.d <= 3
