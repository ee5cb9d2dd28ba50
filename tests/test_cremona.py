"""Degree reduction of plane multiplicity vectors by plane transformations."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coble import cremona
from coble.cli import main
from coble.cremona import (
    MultiplicityVector,
    ReductionBudgetExceeded,
    ReductionError,
    ReductionResult,
    ReductionStep,
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


# The reduction chain as it was before the in-place step: every step builds
# checked vectors through make_vector, so it is the oracle for the fast path.
def ref_make_vector(d, mults):
    ms = sorted((int(m) for m in mults), reverse=True)
    if ms and ms[-1] < 0:
        raise ValueError(f"multiplicities must be >= 0, got {min(ms)}")
    return MultiplicityVector(int(d), tuple(m for m in ms if m > 0))


def ref_reflect(v, a, idx):
    ms = list(v.mults) + [0] * (max(idx) + 1 - len(v.mults))
    mi = [ms[i] for i in idx]
    t = a * v.d - sum(mi)
    for i in idx:
        ms[i] += t
    if v.d + a * t < 0 or t + min(mi) < 0:
        raise TransformNotAdmissible(
            f"transformation not admissible for this vector: "
            f"({v.d};...) at multiplicities {','.join(map(str, mi))}"
        )
    return ref_make_vector(v.d + a * t, ms)


def ref_quadratic(v, i, j, k):
    if len({i, j, k}) != 3 or min(i, j, k) < 0:
        raise ValueError("centers must be three distinct nonnegative indices")
    return ref_reflect(v, 1, [i, j, k])


def ref_quintic(v, indices):
    idx = [int(i) for i in indices]
    if len(idx) != 6 or len(set(idx)) != 6 or min(idx) < 0:
        raise ValueError("need six distinct nonnegative point indices")
    return ref_reflect(v, 2, idx)


def ref_noether_reduce(v, force=False, use_quintic=True):
    if not force and v.genus_proxy() != 0:
        raise ValueError(
            f"{v} has genus proxy {v.genus_proxy()}, not an irreducible rational "
            "curve vector; pass force=True to reduce anyway"
        )
    steps = []
    cur = v
    while True:
        if use_quintic and cur.singular().mults == (2,) * 6 and cur.d == 5:
            six = [i for i, m in enumerate(cur.mults) if m == 2][:6]
            try:
                nxt = ref_quintic(cur, six)
            except TransformNotAdmissible as exc:
                raise ReductionError(str(exc), v, steps) from exc
            steps.append(ReductionStep("quintic", (2,) * 6, False, nxt))
            cur = nxt
            continue
        n_sing = sum(1 for m in cur.mults if m >= 2)
        top = list(cur.mults[: min(3, n_sing)]) + [0] * max(0, 3 - n_sing)
        if sum(top) <= cur.d:
            break
        centers = tuple(range(min(3, n_sing))) + tuple(
            len(cur.mults) + t for t in range(3 - min(3, n_sing))
        )
        try:
            nxt = ref_quadratic(cur, *centers)
        except TransformNotAdmissible as exc:
            raise ReductionError(str(exc), v, steps) from exc
        steps.append(ReductionStep("quadratic", tuple(top), 0 in top, nxt))
        cur = nxt
    return ReductionResult(v, tuple(steps), cur)


def outcome(fn, *args, **kwargs):
    """What a call gives: its JSON (or the vector), or the exception type,
    message and, for a stuck reduction, the partial trace."""
    try:
        value = fn(*args, **kwargs)
    except ReductionError as exc:
        return type(exc), str(exc), exc.partial.to_json()
    except ValueError as exc:
        return type(exc), str(exc)
    return value.to_json()


@st.composite
def raised_rational_vectors(draw):
    """A rational curve vector reached from a line by degree-raising
    quadratic steps at three existing or fresh general points."""
    d, ms = 1, []
    for _ in range(draw(st.integers(0, 30))):
        i, j, k = draw(st.lists(st.integers(0, len(ms) + 2), min_size=3, max_size=3, unique=True))
        padded = ms + [0, 0, 0]
        s = padded[i] + padded[j] + padded[k]
        if s < d:
            padded[i], padded[j], padded[k] = d - padded[j] - padded[k], d - padded[i] - padded[k], d - padded[i] - padded[j]
            d = 2 * d - s
            ms = sorted((m for m in padded if m), reverse=True)
    return make_vector(d, ms)


def assert_same_as_reference(v, force, idx3, idx6):
    for use_quintic in (True, False):
        assert outcome(noether_reduce, v, force=force, use_quintic=use_quintic) == outcome(
            ref_noether_reduce, v, force=force, use_quintic=use_quintic
        )
    assert outcome(quadratic_transform, v, *idx3) == outcome(ref_quadratic, v, *idx3)
    assert outcome(quintic_transform, v, idx6) == outcome(ref_quintic, v, idx6)


three_points = st.lists(st.integers(0, 11), min_size=3, max_size=3, unique=True)
six_points = st.lists(st.integers(0, 11), min_size=6, max_size=6, unique=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raised_rational_vectors(), three_points, six_points)
def test_reduction_matches_the_reference_on_rational_vectors(v, idx3, idx6):
    assert v.genus_proxy() == 0
    assert_same_as_reference(v, False, idx3, idx6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 40), st.lists(st.integers(0, 20), max_size=12), st.booleans(), three_points, six_points)
@example(5, [2] * 6, False, [0, 1, 2], [0, 1, 2, 3, 4, 5])
@example(5, [2] * 6 + [1, 1], False, [0, 1, 6], [2, 3, 4, 5, 6, 7])
@example(5, [2] * 7, True, [5, 6, 7], [0, 1, 2, 3, 4, 5])
@example(7, [3] * 5, False, [0, 1, 5], [0, 1, 2, 3, 4, 5])
def test_reduction_matches_the_reference_on_forced_vectors(d, mults, force, idx3, idx6):
    # arbitrary vectors: genus refusals, stuck steps and inadmissible transforms
    assert_same_as_reference(make_vector(d, mults), force, idx3, idx6)


def nine_point_vector(n):
    """The rational vector (3n^2; n^2+n, n^2 six times, n^2-1, n^2-n): an
    exceptional curve translated along the anticanonical pencil, whose
    reduction takes 4(n-1) steps."""
    return make_vector(3 * n * n, [n * n + n] + [n * n] * 6 + [n * n - 1, n * n - n])


def test_step_budget(monkeypatch, capsys):
    v = nine_point_vector(10)
    full = noether_reduce(v)
    assert len(full.steps) == 36 and str(full.final) == "(1;1,1)"
    monkeypatch.setattr(cremona, "MAX_REDUCTION_STEPS", 36)
    assert noether_reduce(v) == full  # a reduction may use the whole budget
    monkeypatch.setattr(cremona, "MAX_REDUCTION_STEPS", 35)
    with pytest.raises(ReductionBudgetExceeded) as exc:
        noether_reduce(v)
    assert isinstance(exc.value, ReductionError)
    assert str(exc.value) == (
        f"reduction of {v} stopped after 35 steps: it needs more than the budget "
        "of 35 steps (MAX_REDUCTION_STEPS)"
    )
    assert exc.value.partial.steps == full.steps[:35]
    assert exc.value.partial.final == full.steps[34].result
    # the CLI refuses an over-budget input as a usage error; a stuck one still fails
    assert main(["reduce", str(v), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc.value}\n"
    assert main(["reduce", "(7;3,3,3,3,3)"]) == 1
    assert capsys.readouterr().err.startswith("reduction failed: ")


def test_trace_entry_budget(monkeypatch, capsys):
    # simple points keep the vector rational and lengthen every stored step
    v = make_vector(300, nine_point_vector(10).mults + (1,) * 20)
    full = noether_reduce(v)
    entries = sum(len(s.result.mults) for s in full.steps)
    assert len(full.steps) == 36 and entries > 36 * 20
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", entries)
    assert noether_reduce(v) == full  # a trace may fill the whole budget
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", entries - 1)
    with pytest.raises(ReductionBudgetExceeded) as exc:
        noether_reduce(v)
    assert str(exc.value) == (
        f"reduction of {v} stopped after 35 steps: its trace needs more than the "
        f"budget of {entries - 1} stored multiplicities (MAX_TRACE_ENTRIES)"
    )
    assert exc.value.partial.steps == full.steps[:35]
    assert main(["reduce", str(v)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {exc.value}\n"
