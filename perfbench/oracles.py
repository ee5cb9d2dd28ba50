"""Reference computations that the benchmark checks coble's answers against.

Nothing in this module imports coble.  Each function recomputes a quantity
from its closed form, or by a plain exhaustive search, from the same plain
data (coefficient lists, configuration JSON) that the benchmark hands to
the program.

A base surface is named by ``b``: ``None`` for the plane, with basis
e0, e1, ..., en, and an integer b for the Hirzebruch surface F_b, with basis
f, s0, e1, ..., en.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

import numpy as np


def head_size(b) -> int:
    return 1 if b is None else 2


def canonical(b, n: int) -> list[int]:
    """Coefficients of K on the base blown up at n points."""
    head = [-3] if b is None else [-(b + 2), -2]
    return head + [1] * n


def pairing(x, y, b) -> int:
    """x.y from the closed form: head term minus the sum over the e_i."""
    if b is None:
        head = x[0] * y[0]
    else:
        head = x[0] * y[1] + x[1] * y[0] - b * x[1] * y[1]
    k = head_size(b)
    return head - sum(p * q for p, q in zip(x[k:], y[k:]))


def squares_and_k_degrees(rows, b):
    """C^2 and C.K for every coefficient row, as two int64 arrays."""
    a = np.asarray(rows, dtype=np.int64)
    tail = a[:, head_size(b):]
    if b is None:
        head_sq, head_k = a[:, 0] * a[:, 0], -3 * a[:, 0]
    else:
        alpha, beta = a[:, 0], a[:, 1]
        head_sq = 2 * alpha * beta - b * beta * beta
        head_k = -2 * alpha + (b - 2) * beta
    return head_sq - (tail * tail).sum(axis=1), head_k - tail.sum(axis=1)


def negative_classes_ok(rows, b, n: int, cap: int, shape: str) -> bool:
    """Every row is a distinct (-n)-class of genus 0 within the degree cap.

    For "effective-shape" a class of positive degree also has every
    exceptional coefficient <= 0.
    """
    if not rows:
        return True
    k = head_size(b)
    sq, kd = squares_and_k_degrees(rows, b)
    if not (np.all(sq == -n) and np.all(kd == n - 2)):
        return False
    if len({tuple(r) for r in rows}) != len(rows):
        return False
    for r in rows:
        head = r[:k]
        if min(head) < 0 or max(head) > cap:
            return False
        if shape == "effective-shape" and any(head) and max(r[k:]) > 0:
            return False
    return True


def _ordered_count(slots: int, total: int, total_sq: int, values) -> int:
    """How many ordered tuples of ``slots`` entries from ``values`` have the
    given sum and sum of squares; a dynamic programme over the positions."""
    ways = {(0, 0): 1}
    for _ in range(slots):
        step = Counter()
        for (s, q), w in ways.items():
            for v in values:
                if q + v * v <= total_sq:
                    step[s + v, q + v * v] += w
        ways = step
    return ways.get((total, total_sq), 0)


@functools.lru_cache(maxsize=None)
def negative_class_count(b, points: int, n: int, cap: int, shape: str) -> int:
    """How many classes ``enumerate_negative_classes`` must return.

    Writing C = head - sum a_i e_i, C^2 = -n and C.K = n - 2 fix the sum and
    the sum of squares of the a_i for each head within the cap.  A head of
    positive degree takes a_i >= 0.  The zero head takes any integers with
    "lattice-only", and with "effective-shape" only -1, 0 and 1, which the
    two sums then force into the shape e_i - (sum of other e_j).
    """
    if b is None:
        heads = [((d,), 3 * d + n - 2, d * d + n) for d in range(cap + 1)]
    else:
        heads = [
            ((alpha, beta), n - 2 + 2 * alpha - (b - 2) * beta, 2 * alpha * beta - b * beta * beta + n)
            for beta in range(cap + 1)
            for alpha in range(cap + 1)
        ]
    count = 0
    for head, total, total_sq in heads:
        if total_sq < 0:
            continue
        top = math.isqrt(total_sq)
        if any(head):
            values = range(top + 1)
        elif shape == "lattice-only":
            values = range(-top, top + 1)
        else:
            values = (-1, 0, 1)
        count += _ordered_count(points, total, total_sq, values)
    return count


def vector_invariants(d: int, mults) -> tuple[int, int]:
    """(C^2, C.K) of the plane class d e0 - sum m_i e_i."""
    return d * d - sum(m * m for m in mults), -3 * d + sum(mults)


def config_gram(data: dict) -> tuple[list[str], list[list[int]]]:
    """Node ids and the intersection matrix of a configuration JSON object."""
    ids = [node["id"] for node in data["nodes"]]
    index = {nid: i for i, nid in enumerate(ids)}
    gram = [[0] * len(ids) for _ in ids]
    for i, node in enumerate(data["nodes"]):
        gram[i][i] = node["self"]
    for e in data.get("edges", ()):
        i, j = index[e["a"]], index[e["b"]]
        v = e.get("count", 1) * e.get("tangency", 1)
        gram[i][j] += v
        gram[j][i] += v
    return ids, gram


def k_connected(gram, mults, k: int) -> bool:
    """D1.D2 >= k over every split D = D1 + D2 into nonzero effective parts.

    Plain exhaustive search over the whole box of sub-divisors; meant for
    boxes of at most a few thousand points.
    """
    box = np.array(list(itertools.product(*(range(m + 1) for m in mults))), dtype=np.int64)
    full = np.array(mults, dtype=np.int64)
    g = np.array(gram, dtype=np.int64)
    inner = box[1:-1]  # drop D1 = 0 and D1 = D, the first and last points
    values = np.einsum("ij,jk,ik->i", inner, g, full - inner)
    return bool(np.all(values >= k))
