"""Intersection lattice arithmetic against hand-checked oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coble.lattice import (
    I64_MAX,
    DivisorClass,
    Hirzebruch,
    LatticeMismatch,
    P2,
    arithmetic_genus,
    base_from_json,
    canonical_orthogonal_basis,
    make_lattice,
    pair,
    reflect,
    riemann_roch_chi,
    weighted_sum,
)


def test_p2_gram_and_canonical():
    lat = make_lattice(P2(), 3)
    e0, e1, e2, e3 = (lat.unit(i) for i in range(4))
    assert pair(e0, e0) == 1
    assert all(pair(e, e) == -1 for e in (e1, e2, e3))
    assert all(pair(a, b) == 0 for a, b in [(e0, e1), (e0, e2), (e1, e2), (e2, e3)])
    assert lat.canonical.coeffs == (-3, 1, 1, 1)
    assert lat.k_squared == 9 - 3


def test_hirzebruch_gram_and_canonical():
    for b in (0, 1, 2, 3, 5):
        lat = make_lattice(Hirzebruch(b), 2)
        f, s0 = lat.unit(0), lat.unit(1)
        assert pair(f, f) == 0
        assert pair(f, s0) == 1
        assert pair(s0, s0) == -b
        k = lat.canonical
        assert k.coeffs[:2] == (-(b + 2), -2)
        assert k.coeffs[2:] == (1, 1)
        assert lat.k_squared == 8 - 2
        assert pair(k, k) == 8 - 2


def test_negative_hirzebruch_rejected():
    with pytest.raises(ValueError):
        Hirzebruch(-1)


def test_make_lattice_refuses_a_base_that_is_not_an_instance():
    # the class P2 in place of P2() used to build a Hirzebruch-headed lattice
    for base in (P2, "P2", None):
        with pytest.raises(ValueError, match="P2 or Hirzebruch instance"):
            make_lattice(base, 2)


def test_pair_bilinear_symmetric():
    rng = random.Random(7)
    lat = make_lattice(P2(), 6)
    for _ in range(50):
        a = lat.make_class([rng.randint(-9, 9) for _ in range(lat.rank)])
        b = lat.make_class([rng.randint(-9, 9) for _ in range(lat.rank)])
        c = lat.make_class([rng.randint(-9, 9) for _ in range(lat.rank)])
        assert pair(a, b) == pair(b, a)
        assert pair(a + b, c) == pair(a, c) + pair(b, c)
        assert pair(3 * a - 2 * b, c) == 3 * pair(a, c) - 2 * pair(b, c)


def test_cross_lattice_pairing_rejected():
    a = make_lattice(P2(), 2).make_class([1, 0, 0])
    b = make_lattice(P2(), 3).make_class([1, 0, 0, 0])
    with pytest.raises(LatticeMismatch):
        pair(a, b)
    with pytest.raises(LatticeMismatch):
        a + b


def test_plane_curve_genus_oracles():
    lat = make_lattice(P2(), 10)

    def plane(d, mults=()):
        coeffs = [d] + [-m for m in mults] + [0] * (10 - len(mults))
        return lat.make_class(coeffs)

    assert arithmetic_genus(plane(1)) == 0
    assert arithmetic_genus(plane(2)) == 0
    assert arithmetic_genus(plane(3)) == 1
    assert arithmetic_genus(plane(4)) == 3
    assert arithmetic_genus(plane(5)) == 6
    # ten-node sextic: the classical branch curve
    assert arithmetic_genus(plane(6, [2] * 10)) == 0
    # six-node quintic
    assert arithmetic_genus(plane(5, [2] * 6)) == 0
    # exceptional curve
    assert arithmetic_genus(lat.unit(1)) == 0


def test_hirzebruch_genus_oracles():
    lat = make_lattice(Hirzebruch(2), 0)
    fiber = lat.make_class([1, 0])
    section = lat.make_class([2, 1])
    assert arithmetic_genus(fiber) == 0
    assert arithmetic_genus(section) == 0
    assert arithmetic_genus(lat.make_class([0, 1])) == 0
    # anticanonical members have genus 1; p_a(-2K) = K^2 + 1
    assert arithmetic_genus(-1 * lat.canonical) == 1
    assert arithmetic_genus(-2 * lat.canonical) == lat.k_squared + 1
    p2 = make_lattice(P2(), 9)
    assert arithmetic_genus(-1 * p2.canonical) == 1
    assert arithmetic_genus(-2 * p2.canonical) == 1  # K^2 = 0 here


def test_riemann_roch_oracles():
    lat = make_lattice(P2(), 0)
    e0 = lat.unit(0)
    assert riemann_roch_chi(lat.zero()) == 1
    assert riemann_roch_chi(e0) == 3
    assert riemann_roch_chi(2 * e0) == 6
    assert riemann_roch_chi(3 * e0) == 10
    # chi(-K) = 1 + K^2 in general
    for n in (0, 5, 9, 12):
        latn = make_lattice(P2(), n)
        assert riemann_roch_chi(-1 * latn.canonical) == 1 + latn.k_squared


def test_reflect_is_involutive_isometry():
    rng = random.Random(11)
    lat = make_lattice(P2(), 9)
    roots = [
        lat.make_class([0, 1, -1] + [0] * 7),
        lat.make_class([1, -1, -1, -1] + [0] * 6),
        lat.make_class([2, -1, -1, -1, -1, -1, -1, 0, 0, 0]),
    ]
    for root in roots:
        assert pair(root, root) == -2
        assert pair(root, lat.canonical) == 0
    for _ in range(200):
        root = rng.choice(roots)
        x = lat.make_class([rng.randint(-8, 8) for _ in range(lat.rank)])
        y = lat.make_class([rng.randint(-8, 8) for _ in range(lat.rank)])
        rx, ry = reflect(x, root), reflect(y, root)
        assert reflect(rx, root) == x
        assert pair(rx, ry) == pair(x, y)
        assert reflect(lat.canonical, root) == lat.canonical


def test_reflect_requires_minus_two_root():
    lat = make_lattice(P2(), 1)
    with pytest.raises(ValueError):
        reflect(lat.unit(0), lat.unit(1))


def test_canonical_orthogonal_basis_spans_k_perp():
    for base, n in ((P2(), 9), (P2(), 4), (Hirzebruch(2), 3)):
        lat = make_lattice(base, n)
        basis = canonical_orthogonal_basis(lat)
        assert len(basis) == lat.rank - 1
        for v in basis:
            assert pair(v, lat.canonical) == 0
        # linear independence over Q: fraction-free row reduction
        rows = [[Fraction(c) for c in v.coeffs] for v in basis]
        rank = 0
        for col in range(lat.rank):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            lead = rows[rank][col]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    factor = rows[r][col] / lead
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        assert rank == len(basis)


def _determinant(rows) -> int:
    """Exact determinant of a square integer matrix by Gaussian elimination."""
    m = [[Fraction(c) for c in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return int(det)


def test_canonical_orthogonal_basis_is_saturated():
    # rank - 1 vectors in K^perp whose maximal minors have gcd 1 span a
    # saturated sublattice of rank rank(K^perp), hence all of K^perp
    for base in [P2()] + [Hirzebruch(b) for b in range(6)]:
        for n in range(11):
            lat = make_lattice(base, n)
            basis = canonical_orthogonal_basis(lat)
            assert len(basis) == lat.rank - 1
            assert all(pair(v, lat.canonical) == 0 for v in basis)
            rows = [v.coeffs for v in basis]
            minors = [
                _determinant([r[:j] + r[j + 1:] for r in rows]) for j in range(lat.rank)
            ]
            assert gcd(*minors) == 1, (base, n, minors)


def dense_gram(base, n):
    """The Gram matrix as the module docstring states it, entry by entry."""
    if isinstance(base, P2):
        head = [[1]]
    else:
        head = [[0, 1], [1, -base.b]]
    rank = len(head) + n
    gram = [[0] * rank for _ in range(rank)]
    for i, row in enumerate(head):
        gram[i][: len(row)] = row
    for i in range(len(head), rank):
        gram[i][i] = -1
    return gram


@st.composite
def class_pairs(draw):
    base = draw(st.one_of(st.just(P2()), st.integers(0, 9).map(Hirzebruch)))
    n = draw(st.integers(0, 12))
    lat = make_lattice(base, n)
    coeffs = st.lists(st.integers(-10**6, 10**6), min_size=lat.rank, max_size=lat.rank)
    return lat, draw(coeffs), draw(coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(class_pairs())
def test_pair_matches_dense_gram(case):
    lat, x, y = case
    gram = dense_gram(lat.base, lat.n_blowups)
    want = sum(x[i] * gram[i][j] * y[j] for i in range(lat.rank) for j in range(lat.rank))
    assert pair(lat.make_class(x), lat.make_class(y)) == want
    assert [list(r) for r in lat.gram] == gram


def test_int64_guard_at_construction_and_on_pairings():
    lat = make_lattice(P2(), 1)
    top = lat.make_class([2**63 - 1, 0])
    bottom = lat.make_class([-(2**63), 0])
    for coeffs in ([2**63, 0], [0, -(2**63) - 1]):
        with pytest.raises(OverflowError, match="signed 64-bit range"):
            lat.make_class(coeffs)
    one = lat.unit(0)
    crossings = [
        (lambda: top + one, 2**63),
        (lambda: bottom - one, -(2**63) - 1),
        (lambda: 2 * top, 2**64 - 2),
        (lambda: top * 2, 2**64 - 2),
        (lambda: -bottom, 2**63),
    ]
    for make, value in crossings:
        with pytest.raises(OverflowError, match=f"value {value} leaves the signed 64-bit range"):
            make()
    big = lat.make_class([3037000500, 0])  # 3037000500^2 > 2^63 - 1
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        pair(big, big)
    assert pair(lat.make_class([3037000499, 0]), lat.make_class([3037000499, 0])) == 3037000499**2


def test_int64_guard_names_the_first_offender():
    lat = make_lattice(P2(), 4)

    def message(coeffs):
        with pytest.raises(OverflowError) as info:
            DivisorClass(lat, coeffs)
        return str(info.value)

    assert message((1, 2, I64_MAX + 1, 3, 4)) == f"value {I64_MAX + 1} leaves the signed 64-bit range"
    assert message((0, -5, -I64_MAX - 2, 0, 7)) == f"value {-I64_MAX - 2} leaves the signed 64-bit range"
    # two offenders: the first in basis order is named
    assert message((0, 2**70, -(2**64), 0, 0)) == f"value {2**70} leaves the signed 64-bit range"
    assert message((0, 0, -(2**64), 2**70, 0)) == f"value {-(2**64)} leaves the signed 64-bit range"
    assert DivisorClass(lat, (I64_MAX, -I64_MAX - 1, 0, 0, 0)).coeffs[1] == -(2**63)


@st.composite
def weighted_terms(draw):
    """A lattice on P2 or F_b and (k, class) terms whose partial sums may leave int64."""
    base = draw(st.one_of(st.just(P2()), st.integers(0, 9).map(Hirzebruch)))
    lat = make_lattice(base, draw(st.integers(0, 6)))
    big = st.one_of(st.integers(-10**6, 10**6), st.integers(-(2**63), 2**63))
    coeffs = st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank)
    terms = st.lists(st.tuples(big, coeffs.map(lat.make_class)), min_size=1, max_size=6)
    return lat, draw(terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weighted_terms())
def test_weighted_sum_matches_a_left_fold(case):
    lat, terms = case
    exact = [sum(k * c.coeffs[i] for k, c in terms) for i in range(lat.rank)]
    if all(-(2**63) <= v <= I64_MAX for v in exact):
        assert weighted_sum(terms).coeffs == tuple(exact)
    else:
        with pytest.raises(OverflowError, match="signed 64-bit range"):
            weighted_sum(terms)
    try:
        folded = lat.zero()
        for k, c in terms:
            folded = folded + k * c
    except OverflowError:
        return  # a partial sum left int64; the exact total is checked above
    assert weighted_sum(terms) == folded


def test_lattices_equal_by_base_and_labels():
    a, b = make_lattice(P2(), 4), make_lattice(P2(), 4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert (a.unit(1) + b.unit(2)).coeffs == (0, 1, 1, 0, 0)
    assert pair(a.unit(0), b.unit(0)) == 1
    assert weighted_sum([(2, a.unit(1)), (3, b.unit(1))]).coeffs == (0, 5, 0, 0, 0)
    mismatched = [
        (make_lattice(P2(), 2), make_lattice(P2(), 2, ["p", "q"])),
        (make_lattice(Hirzebruch(1), 2), make_lattice(Hirzebruch(2), 2)),
        (make_lattice(Hirzebruch(1), 0), make_lattice(P2(), 1)),
    ]
    for x, y in mismatched:
        with pytest.raises(LatticeMismatch):
            pair(x.unit(0), y.unit(0))
        with pytest.raises(LatticeMismatch):
            x.unit(0) - y.unit(0)


@pytest.mark.parametrize("text, base", [
    ("P2", P2()),
    ("P1xP1", Hirzebruch(0)),
    ("F0", Hirzebruch(0)),
    ("F12", Hirzebruch(12)),
    ({"Fb": 3}, Hirzebruch(3)),
])
def test_base_from_json_accepts(text, base):
    assert base_from_json(text) == base


@pytest.mark.parametrize("text", [
    {"Fb": 2.5}, {"Fb": True}, {"Fb": -1}, {"Fb": "2"}, {"Fb": 2, "x": 1},
    "F", "F-1", "Fx", "F²", "F\u0663", "P3", "p2", None, ["P2"],
])
def test_base_from_json_refuses(text):
    with pytest.raises(ValueError):
        base_from_json(text)
