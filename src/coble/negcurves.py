"""Enumeration of negative rational curve classes on blow-up lattices.

A numerical (-n)-class is a divisor class C with C^2 = -n and C.K = n - 2
(so the adjunction genus is 0).  On the plane blown up at k points, writing
C = d e0 - sum a_i e_i, the two conditions become the Diophantine pair

    sum a_i = 3d + n - 2,      sum a_i^2 = d^2 + n,

which prunes the coefficient box hard enough for exhaustive search at desk
scale.  Enumeration is by degree; within a degree, descending coefficient
multisets are found recursively.  The number of classes is the sum of the
multisets' multinomial coefficients; it is counted before anything is
expanded, and a search that would return more than ``MAX_CLASSES`` classes
is refused up front.

The result is then built as one int64 matrix, one row per class.  Each
multiset is expanded over the point indices through a table of its
distinct arrangements (``_arrangements``), made once per pattern of value
counts and shared by the multisets with that pattern, so every arrangement
is emitted once and the work is proportional to the output.  The matrix is
sorted once by ``np.lexsort`` (``_canonical_order``), both defining
equations are re-checked on all its rows in one exact int64 pass, and the
classes are made from it in one pass (``lattice._classes_of_int64_matrix``).

Effectivity is NOT decided here: output classes are numerical candidates.
The default "effective-shape" filter keeps d >= 1 classes with all a_i >= 0
and, at d = 0, only the exceptional shapes e_i - (sum of other e_j); the
"lattice-only" flag admits every d = 0 integer solution.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .lattice import DivisorClass, IntersectionLattice, P2, _classes_of_int64_matrix, make_lattice

MAX_RANK = 15
MAX_CAP = 20
# Largest result enumerate_negative_classes builds.  A class costs about
# 3-5 us and 0.4 kB of peak memory (2-vCPU x86-64, Python 3.11, numpy 2.4):
# P2 with 13 points at cap 4 gives 91,897 classes in 0.3-0.45 s, with peak
# RSS 66 MB against 31 MB before the search.  So a search at the budget
# takes about 0.5 s and 40 MB.
MAX_CLASSES = 100_000


def _descending_tuples(total: int, total_sq: int, slots: int, max_part: int):
    """Descending tuples of nonnegative ints with given sum and sum of squares."""
    if slots == 0:
        if total == 0 and total_sq == 0:
            yield ()
        return
    top = min(max_part, total, math.isqrt(total_sq))
    for first in range(top, -1, -1):
        rest, rest_sq = total - first, total_sq - first * first
        # remaining slots each at most `first`, so sums are bounded
        if rest > first * (slots - 1) or rest_sq > first * first * (slots - 1):
            continue
        for tail in _descending_tuples(rest, rest_sq, slots - 1, first):
            yield (first,) + tail


def _arrangements(counts) -> np.ndarray:
    """Each distinct arrangement of a multiset, once, as a table of group labels.

    ``counts`` holds the multiplicities of the multiset's distinct values,
    rarest first.  Row r of the result puts the g-th value at slot s when
    entry (r, s) is g.  Every row starts filled with the last, most frequent
    value; the other values take their slots in turn, rarest first, in every
    combination of the slots still free.  The rows so far are repeated once
    per combination and the free-slot table shrinks at each step, so no
    arrangement is produced twice and the work is proportional to the
    output.
    """
    k = sum(counts)
    labels = np.full((1, k), len(counts) - 1, dtype=np.int8)
    free = np.arange(k)[None, :]
    for g, count in enumerate(counts[:-1]):
        width = free.shape[1]
        chosen = np.array(list(itertools.combinations(range(width), count)))
        rows = len(labels) * len(chosen)
        labels = np.repeat(labels, len(chosen), axis=0)
        np.put(labels, free[:, chosen].reshape(rows, count) + k * np.arange(rows)[:, None], g)
        if g + 2 < len(counts):
            # complements of the combinations, in order: the combinations of
            # the other size, in reverse lexicographic order
            rest = np.array(list(itertools.combinations(range(width), width - count))[::-1])
            free = free[:, rest].reshape(rows, width - count)
    return labels


def _arrangement_count(values) -> int:
    """Number of distinct orderings of a multiset (a multinomial coefficient)."""
    count = math.factorial(len(values))
    for c in Counter(values).values():
        count //= math.factorial(c)
    return count


def enumerate_negative_classes(
    lattice: IntersectionLattice,
    n: int,
    degree_cap: int,
    shape: str = "effective-shape",
) -> list[DivisorClass]:
    """All numerical (-n)-classes up to the degree cap, canonically sorted.

    ``shape`` is "effective-shape" (default) or "lattice-only"; see the
    module docstring.  Degree on a Hirzebruch lattice means the pair of
    ruling coefficients, both capped.  Raises ValueError before any class
    is built if the result would hold more than ``MAX_CLASSES`` classes.

    TESTS::

        >>> lat = make_lattice(P2(), 3)
        >>> [str(c) for c in enumerate_negative_classes(lat, 1, 5)]
        ['e1', 'e2', 'e3', 'e0-e1-e2', 'e0-e1-e3', 'e0-e2-e3']
        >>> len(enumerate_negative_classes(make_lattice(P2(), 1), 1, 5))
        1
    """
    return _classes_of_int64_matrix(lattice, _negative_class_matrix(lattice, n, degree_cap, shape))


def _negative_class_matrix(lattice, n, cap, shape) -> np.ndarray:
    """The classes of ``enumerate_negative_classes`` as rows of one int64 matrix.

    The arguments and the class budget are checked first.  Multisets that
    share a pattern of value counts share one label table from
    ``_arrangements``; each block of them becomes its rows in one
    fancy-indexing step.  The rows are then put in canonical order and
    checked against both defining equations.
    """
    if n < 1:
        raise ValueError("self-intersection parameter n must be >= 1")
    if cap < 0:
        raise ValueError("degree cap must be >= 0")
    if shape not in ("effective-shape", "lattice-only"):
        raise ValueError(f"unknown shape flag {shape!r}")
    if lattice.rank > MAX_RANK or cap > MAX_CAP:
        raise ValueError(
            f"search budget exceeded: rank <= {MAX_RANK} and cap <= {MAX_CAP}"
        )
    head = lattice.rank - lattice.n_blowups
    blocks, total = {}, 0
    for h, m in _multisets(lattice, n, cap, shape):
        total += _arrangement_count(m)
        if total > MAX_CLASSES:
            raise ValueError(
                f"class budget exceeded: more than MAX_CLASSES = {MAX_CLASSES:,} "
                f"classes ({total:,} counted before stopping)"
            )
        groups = sorted(Counter(m).items(), key=lambda vc: vc[1])
        heads, values = blocks.setdefault(tuple(c for _, c in groups), ([], []))
        heads.append(h)
        values.append([v for v, _ in groups])
    a = np.empty((total, lattice.rank), dtype=np.int64)
    row = 0
    for counts, (heads, values) in blocks.items():
        labels = _arrangements(counts)
        end = row + len(heads) * len(labels)
        a[row:end, :head] = np.repeat(np.array(heads, dtype=np.int64), len(labels), axis=0)
        a[row:end, head:] = np.array(values, dtype=np.int64)[:, labels].reshape(end - row, lattice.n_blowups)
        row = end
    a = a[_canonical_order(a, head)]
    _assert_negative_classes(a, lattice, n)
    return a


def _canonical_order(a: np.ndarray, head: int) -> np.ndarray:
    """Row order by head coefficients, then by the (index, -value) list of
    the nonzero exceptional coefficients, compared lexicographically.

    ``np.lexsort`` sorts on a dense code per exceptional coordinate: a
    nonzero v gives -v, a zero before a later nonzero gives +big and a
    trailing zero gives -big, with big above every |v|.  Where two rows'
    lists first differ at indices i1 < i2, the first row has a finite code
    at i1 and the second +big; at equal indices the codes compare -v1 with
    -v2; and a list that ends first has -big where the other has +big or a
    finite code.  So the dense codes order the rows as the lists do.
    """
    big = max(int(a.max(initial=0)), -int(a.min(initial=0))) + 1
    # np.lexsort takes its primary key last, so the columns go in reverse:
    # the last exceptional coordinate first and head column 0 last
    keys = np.empty(a.shape[::-1], dtype=np.int64)
    keys[-head:] = a[:, head - 1 :: -1].T
    codes, tail = keys[:-head], a[:, head:].T[::-1]
    np.negative(tail, out=codes)
    zero = tail == 0
    # in reverse order, a nonzero at or after a coordinate comes at or before it
    later = np.logical_or.accumulate(~zero, axis=0)
    np.copyto(codes, big, where=zero & later)
    np.copyto(codes, -big, where=~later)
    return np.lexsort(keys)


def _multisets(lattice, n, cap, shape):
    """(head coefficients, multiset of exceptional coefficients) per block.

    Writing C = head - sum a_i e_i, each head within the cap fixes the sum
    and the sum of squares of the a_i.  The multisets hold the coefficients
    -a_i themselves, in descending order of a_i.
    """
    k = lattice.n_blowups
    if isinstance(lattice.base, P2):
        heads = [((d,), 3 * d + n - 2, d * d + n) for d in range(cap + 1)]
    else:
        b = lattice.base.b
        heads = [
            ((alpha, beta), n - 2 + 2 * alpha - (b - 2) * beta,
             2 * alpha * beta - b * beta * beta + n)
            for beta in range(cap + 1)
            for alpha in range(cap + 1)
        ]
    for h, s1, s2 in heads:
        if not any(h):
            # classes supported on the exceptionals; signs may mix
            for arr in _signed_zero_degree(k, s1, s2):
                if shape == "lattice-only" or _exceptional_shape(arr):
                    yield h, tuple(-a for a in arr)
        elif s1 >= 0 and s2 >= 0:
            for desc in _descending_tuples(s1, s2, k, s1):
                yield h, tuple(-a for a in desc)


def _assert_negative_classes(a: np.ndarray, lattice, n):
    """C^2 = -n and C.K = n - 2 for every row of an int64 matrix, in one pass.

    The rows are coefficients within the cap, whose squares sum to at most
    a few thousand, so no product or sum comes near the int64 range.
    """
    gram = np.array(lattice.gram, dtype=np.int64)
    canonical = np.array(lattice.canonical.coeffs, dtype=np.int64)
    a_gram = a @ gram
    bad = np.flatnonzero(((a_gram * a).sum(axis=1) != -n) | (a_gram @ canonical != n - 2))
    if bad.size:
        raise AssertionError(f"class {tuple(a[bad[0]].tolist())} is not a numerical (-{n})-class")


def _exceptional_shape(arr) -> bool:
    """One coefficient -1, the rest 0 or 1 (e_center minus other points)."""
    return sorted(arr)[0] == -1 and all(a in (-1, 0, 1) for a in arr) and arr.count(-1) == 1


def _signed_zero_degree(k, s1, s2):
    """Non-decreasing integer k-tuples with given sum and sum of squares."""
    if s2 < 0:
        return
    bound = math.isqrt(s2)

    def rec(slots, total, total_sq, lo):
        # non-decreasing tuples with entries in [lo, bound]
        if slots == 0:
            if total == 0 and total_sq == 0:
                yield ()
            return
        for v in range(lo, bound + 1):
            if v * v > total_sq:
                continue
            if total - v > bound * (slots - 1):
                continue
            for tail in rec(slots - 1, total - v, total_sq - v * v, v):
                yield (v,) + tail

    yield from rec(k, s1, s2, -bound)


@dataclass(frozen=True)
class PairingGrowthRow:
    cap: int
    class_count: int
    max_pairing: int


def exceptional_pairing_growth(caps, n_points: int = 9) -> list[PairingGrowthRow]:
    """Table of max E'.E over enumerated (-1)-classes E', for E the last point.

    For each cap (ascending), the number of numerical (-1)-classes with
    degree up to the cap and their largest pairing against the fixed
    exceptional class of the last blown-up point.  The classes are
    enumerated once, at the largest cap, as the int64 matrix behind
    ``enumerate_negative_classes`` (no class object is built); its rows are
    sorted by degree, so each row of the table reads a prefix of them.
    For every ordered pair (A, B) of those classes the difference identity
    (A - B)^2 = -2 - 2 A.B is asserted by direct evaluation; every pair at
    a smaller cap is among them.

    The max column never decreases, and over caps 1..8 it grows: there is
    no finite bound on how positively two (-1)-classes can meet once the
    ninth point makes the class family infinite.

    TESTS::

        >>> rows = exceptional_pairing_growth([1, 2, 3])
        >>> [(r.cap, r.max_pairing) for r in rows]
        [(1, 1), (2, 1), (3, 2)]
    """
    caps = list(caps)
    if caps != sorted(caps):
        raise ValueError("caps must be ascending")
    if not caps:
        return []
    if caps[0] < 0:
        raise ValueError("degree cap must be >= 0")
    lattice = make_lattice(P2(), n_points)
    a = _negative_class_matrix(lattice, 1, caps[-1], "effective-shape")
    if not len(a):
        raise ValueError(f"no (-1)-classes on {n_points} points up to degree {caps[-1]}")
    e_last = lattice.basis_class(lattice.basis_labels[-1])
    sign = np.array([1] + [-1] * n_points, dtype=np.int64)
    e_vec = np.array(e_last.coeffs, dtype=np.int64)
    _assert_difference_identity(a, sign)
    best = np.maximum.accumulate((a * sign) @ e_vec)
    counts = np.searchsorted(a[:, 0], caps, side="right")
    return [
        PairingGrowthRow(cap=cap, class_count=int(m), max_pairing=int(best[m - 1]))
        for cap, m in zip(caps, counts)
    ]


def _assert_difference_identity(a: np.ndarray, sign: np.ndarray, cells: int = 1 << 16):
    """(A - B)^2 = -2 - 2 A.B for all rows A, B, evaluated directly.

    Both sides are summed one rank column at a time into block x N int32
    arrays of about ``cells`` entries, so memory stays bounded whatever N
    and the rank are.
    """
    n, rank = a.shape
    big = int(np.abs(a).max(initial=0))
    # |(A - B)^2| <= rank (2 big)^2 and |2 A.B| <= 2 rank big^2
    if 4 * rank * big * big + 2 > np.iinfo(np.int32).max:
        raise OverflowError(f"coefficients up to {big} at rank {rank} overflow int32")
    cols = np.ascontiguousarray(a.T, dtype=np.int32)
    step = max(1, cells // max(n, 1))
    for lo in range(0, n, step):
        block = cols[:, lo : lo + step, None]
        lhs = np.zeros((block.shape[1], n), dtype=np.int32)
        dot = np.zeros_like(lhs)
        term = np.empty_like(lhs)
        for j in range(rank):
            accumulate = np.add if sign[j] > 0 else np.subtract
            np.subtract(block[j], cols[j], out=term)
            np.multiply(term, term, out=term)
            accumulate(lhs, term, out=lhs)
            np.multiply(block[j], cols[j], out=term)
            accumulate(dot, term, out=dot)
        bad = np.argwhere(lhs != -2 - 2 * dot)
        if bad.size:
            raise AssertionError(
                f"difference identity fails for pair ({lo + bad[0][0]}, {bad[0][1]})"
            )
