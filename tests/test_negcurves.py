"""Bounded enumeration of negative classes and the pairing-growth table."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coble import negcurves
from coble.lattice import I64_MAX, P2, Hirzebruch, _classes_of_int64_matrix, make_lattice
from coble.negcurves import (
    MAX_CLASSES,
    _arrangement_count,
    _arrangements,
    _assert_difference_identity,
    _canonical_order,
    enumerate_negative_classes,
    exceptional_pairing_growth,
)

# number of (-1)-curves on the plane blown up in n general points
DEL_PEZZO_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def test_del_pezzo_minus_one_counts():
    # every (-1)-class on these surfaces has degree at most 6, so a cap of
    # 7 sees the whole list and nothing new appears at the margin
    for n, expected in DEL_PEZZO_COUNTS.items():
        lat = make_lattice(P2(), n)
        classes = enumerate_negative_classes(lat, 1, 7)
        assert len(classes) == expected, f"n={n}"
        assert len(set(classes)) == expected


def test_small_cases_explicit():
    lat = make_lattice(P2(), 3)
    assert [str(c) for c in enumerate_negative_classes(lat, 1, 5)] == [
        "e1",
        "e2",
        "e3",
        "e0-e1-e2",
        "e0-e1-e3",
        "e0-e2-e3",
    ]
    # roots (square -2, canonical degree 0) on four points: 6 differences
    # e_i - e_j with i < j both signs, 4 classes e0 - e_i - e_j - e_k
    roots = enumerate_negative_classes(make_lattice(P2(), 4), 2, 5)
    assert len(roots) == 12 + 4
    assert all(c.self_intersection() == -2 for c in roots)


def test_shape_flag_filters_degree_zero():
    # square -4 classes of degree 0 on four points: the effective shapes
    # are e_a - e_b - e_c - e_d; the lattice also contains -2 e_a
    lat = make_lattice(P2(), 4)
    eff = enumerate_negative_classes(lat, 4, 0)
    full = enumerate_negative_classes(lat, 4, 0, shape="lattice-only")
    assert len(eff) == 4
    assert len(full) == len(eff) + 4
    assert set(eff) <= set(full)


def test_hirzebruch_negative_section():
    # on the degree-2 scroll with no blow-ups the only numerical (-2) is s0
    lat = make_lattice(Hirzebruch(2), 0)
    classes = enumerate_negative_classes(lat, 2, 5)
    assert [str(c) for c in classes] == ["s0"]
    # after one blow-up on the section, f - e and s0 variants appear
    lat1 = make_lattice(Hirzebruch(2), 1)
    ones = enumerate_negative_classes(lat1, 1, 5)
    assert lat1.basis_class(lat1.basis_labels[-1]) in ones
    assert all(c.dot(lat1.canonical) == -1 for c in ones)


def test_budget_and_argument_guards():
    lat = make_lattice(P2(), 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_negative_classes(lat, 0, 5)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        enumerate_negative_classes(lat, 1, -1)
    with pytest.raises(ValueError, match="unknown shape"):
        enumerate_negative_classes(lat, 1, 5, shape="everything")
    with pytest.raises(ValueError, match="budget"):
        enumerate_negative_classes(make_lattice(P2(), 15), 1, 5)
    with pytest.raises(ValueError, match="budget"):
        enumerate_negative_classes(lat, 1, 21)


def test_pairing_growth_table():
    rows = exceptional_pairing_growth([1, 2, 3])
    assert [(r.cap, r.max_pairing) for r in rows] == [(1, 1), (2, 1), (3, 2)]
    counts = [r.class_count for r in rows]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    with pytest.raises(ValueError, match="ascending"):
        exceptional_pairing_growth([3, 1])


# Reference path: the enumeration as it ran before arrangements were generated
# directly.  It steps through all k! permutations of each coefficient multiset
# and drops repeats with a set, and checks both equations class by class.


def _oracle_arrangements(values):
    seen = set()
    for p in itertools.permutations(values):
        if p not in seen:
            seen.add(p)
            yield p


def _oracle_descending(total, total_sq, slots, max_part):
    if slots == 0:
        if total == 0 and total_sq == 0:
            yield ()
        return
    for first in range(min(max_part, total), -1, -1):
        rest, rest_sq = total - first, total_sq - first * first
        if rest < 0 or rest_sq < 0:
            continue
        if rest > first * (slots - 1) or rest_sq > first * first * (slots - 1):
            continue
        for tail in _oracle_descending(rest, rest_sq, slots - 1, first):
            yield (first,) + tail


def _oracle_signed(k, s1, s2):
    bound = math.isqrt(s2)
    for t in itertools.combinations_with_replacement(range(-bound, bound + 1), k):
        if sum(t) == s1 and sum(v * v for v in t) == s2:
            yield from _oracle_arrangements(t)


def _oracle_classes(lattice, n, cap, shape):
    k = lattice.n_blowups
    if isinstance(lattice.base, P2):
        heads = [((d,), 3 * d + n - 2, d * d + n) for d in range(cap + 1)]
    else:
        b = lattice.base.b
        heads = [
            ((al, be), n - 2 + 2 * al - (b - 2) * be, 2 * al * be - b * be * be + n)
            for be in range(cap + 1)
            for al in range(cap + 1)
        ]
    out = []
    for head, s1, s2 in heads:
        if not any(head):
            arrs = [
                a
                for a in _oracle_signed(k, s1, s2)
                if shape == "lattice-only" or (a.count(-1) == 1 and set(a) <= {-1, 0, 1})
            ]
        elif s1 < 0 or s2 < 0:
            continue
        else:
            arrs = [
                p for m in _oracle_descending(s1, s2, k, s1) for p in _oracle_arrangements(m)
            ]
        out += [lattice.make_class(head + tuple(-a for a in arr)) for arr in arrs]
    h = len(heads[0][0])
    out.sort(key=lambda c: (c.coeffs[:h], tuple((i, -v) for i, v in enumerate(c.coeffs[h:]) if v)))
    for c in out:
        assert c.self_intersection() == -n and c.dot(lattice.canonical) == n - 2
    return out


def _arranged(values):
    """Rows of the label table for ``values``, read back as value tuples."""
    groups = sorted(Counter(values).items(), key=lambda vc: vc[1])
    labels = _arrangements(tuple(c for _, c in groups))
    return [tuple(r) for r in np.array([v for v, _ in groups], dtype=np.int64)[labels].tolist()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 4), max_size=8))
def test_distinct_arrangements_match_permutation_dedup(values):
    got = _arranged(values)
    assert len(got) == len(set(got)) == _arrangement_count(values)
    assert set(got) == set(_oracle_arrangements(values))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 2),
    # zeros about half the time, so rows have inner and trailing zeros
    st.lists(st.lists(st.sampled_from([0, 0, 0, 0, -3, -1, 1, 2]), min_size=7, max_size=7),
             min_size=1, max_size=40),
    st.lists(st.integers(0, 39), max_size=8),
)
def test_lexsort_order_matches_canonical_key(head, rows, repeats):
    rows += [rows[i % len(rows)] for i in repeats]
    a = np.array(rows, dtype=np.int64)

    def canonical_key(row):  # the sort key before the rows became a matrix
        return (row[:head], tuple((i, -v) for i, v in enumerate(row[head:]) if v))

    assert a[_canonical_order(a, head)].tolist() == sorted(rows, key=canonical_key)


def test_matrix_classes_equal_checked_classes():
    lat = make_lattice(Hirzebruch(1), 4)
    a = np.array([[0, 1, -1, 0, 0, 0], [2, 3, 0, -1, -2, 1], [0, 0, 0, 0, 0, 0],
                  [I64_MAX, -I64_MAX - 1, 0, 0, 0, 1]], dtype=np.int64)
    built = _classes_of_int64_matrix(lat, a)
    checked = [lat.make_class(row) for row in a.tolist()]
    assert built == checked
    assert [hash(c) for c in built] == [hash(c) for c in checked]
    assert all(type(x) is int for c in built for x in c.coeffs)
    assert _classes_of_int64_matrix(lat, a[:0]) == []
    with pytest.raises(ValueError, match="int64 matrix with 6 columns"):
        _classes_of_int64_matrix(lat, a.astype(np.int32))
    with pytest.raises(ValueError, match="int64 matrix with 6 columns"):
        _classes_of_int64_matrix(lat, a[:, :5])
    # classes that users build keep the per-coefficient guard
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        lat.make_class([I64_MAX + 1, 0, 0, 0, 0, 0])
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        lat.make_class([0, 0, 0, 0, 0, -I64_MAX - 2])


@pytest.mark.parametrize(
    "base, points, caps",
    [(P2(), range(9), (2, 3, 4))] + [(Hirzebruch(b), range(8), (1, 2, 3)) for b in range(4)],
    ids=["P2", "F0", "F1", "F2", "F3"],
)
def test_class_lists_match_oracle(base, points, caps):
    for k in points:
        lat = make_lattice(base, k)
        for n, cap, shape in itertools.product((1, 2, 3), caps, ("effective-shape", "lattice-only")):
            assert enumerate_negative_classes(lat, n, cap, shape) == _oracle_classes(
                lat, n, cap, shape
            ), (k, n, cap, shape)


def test_growth_rows_match_separate_enumerations():
    lat = make_lattice(P2(), 9)
    e9 = lat.basis_class("e9")
    rows = exceptional_pairing_growth(range(1, 6))
    assert [r.cap for r in rows] == [1, 2, 3, 4, 5]
    for row in rows:
        classes = enumerate_negative_classes(lat, 1, row.cap)
        assert row.class_count == len(classes)
        assert row.max_pairing == max(c.dot(e9) for c in classes)
    assert exceptional_pairing_growth([]) == []
    with pytest.raises(ValueError, match="cap must be >= 0"):
        exceptional_pairing_growth([-1, 2])


def test_difference_identity_check_is_live():
    sign = np.array([1, -1, -1])
    minus_ones = np.array([[0, 1, 0], [0, 0, 1], [1, -1, -1]])
    _assert_difference_identity(minus_ones, sign)
    # e0 has square +1, so no pair involving it satisfies the identity
    with pytest.raises(AssertionError, match="difference identity fails"):
        _assert_difference_identity(np.vstack([minus_ones, [1, 0, 0]]), sign)
    with pytest.raises(OverflowError, match="int32"):
        _assert_difference_identity(np.array([[0, 20000, 0]]), sign)


def test_class_budget_refuses_up_front(monkeypatch):
    # 11 points at cap 4 gives 12,573 classes, inside the budget; 12 points
    # at cap 6 would give 595,596 and is refused before any is built
    assert len(enumerate_negative_classes(make_lattice(P2(), 11), 1, 4)) == 12573
    with pytest.raises(ValueError, match=f"MAX_CLASSES = {MAX_CLASSES:,}"):
        enumerate_negative_classes(make_lattice(P2(), 12), 1, 6)
    lat = make_lattice(P2(), 3)
    monkeypatch.setattr(negcurves, "MAX_CLASSES", 6)
    assert len(enumerate_negative_classes(lat, 1, 5)) == 6
    monkeypatch.setattr(negcurves, "MAX_CLASSES", 5)
    with pytest.raises(ValueError, match=r"class budget exceeded: .* \(6 counted"):
        enumerate_negative_classes(lat, 1, 5)
