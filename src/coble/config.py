"""Curve configurations: weighted dual graphs with exact genus arithmetic.

A configuration records the components of a curve on a surface as graph
nodes (self-intersection, own genus, multiplicity in the divisor, optional
self-singularity marker) and their mutual intersections as edges.  An edge
carries ``count`` (number of distinct intersection points) and ``tangency``
(contact order at each of those points), so the pairing contribution is
count * tangency.  Triple points list node triples sharing one point.

``CurveConfiguration.adjacency`` is the one store of the pairing, built once
from the edges: per node index, ``{neighbour index: (C_i.C_j, distinct
points)}`` summed over repeated edges.  Pairings, connected components
(O(n + e)), meeting points, degrees and fiber matching all read it;
``gram()`` is a dense view derived from the edges for callers that want a
matrix, and no computation here builds one for the whole configuration.

The arithmetic genus of a sub-divisor D = sum m_i C_i is

    p_a(D) = (D^2 + K.D)/2 + h^0(O_D)

with K.C_i = 2 genus(C_i) - 2 - C_i^2 read off per component.  h^0(O_D)
is combinatorial only in the cases the theory actually needs:

  * reduced D: number of connected components;
  * a connected numerically 1-connected D: 1 (below);
  * m copies of a single smooth component (genus 0 with C^2 <= 0, or
    genus 1 with C^2 < 0): the exact filtration value;
  * disjoint unions: sums over connected components.

Anything else yields the first-class verdict ``UNDETERMINED`` rather than
a guess or an error.

Numerical k-connectivity (D1.D2 >= k for every D = D1 + D2 with both parts
nonzero and effective) takes one of three paths (see
``is_numerically_k_connected``): a closed form by Zariski's lemma when D is
nef on its connected support, as on every Kodaira fiber and its multiples;
an exact min-sum dynamic programme when the support's dual graph, with one
edge per intersection point, is a forest, as on every Kodaira near-miss
with no cycle; otherwise a scan of the decomposition box.  The budgets are
checked before the programme or the scan runs, and a refusal makes
``divisor_pa`` answer ``UNDETERMINED``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np


class Undetermined:
    """Singleton verdict for genus values the combinatorics cannot decide."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undetermined"

    def __bool__(self) -> bool:
        raise TypeError("Undetermined has no truth value; compare with is")


UNDETERMINED = Undetermined()

MAX_DISTINCT_COMPONENTS = 20
# About 2 s of blocked int64 scan at 20 components (2 * 10^6 decompositions/s
# on a 2-core x86_64 VM); admits the I8* fiber's 314,928.
MAX_DECOMPOSITIONS = 4_000_000

# Above this many decompositions the scan runs in int64 numpy blocks rather
# than Python integers, unless a pairing could pass int64; both are exact.
_VECTORIZE_THRESHOLD = 4096
_FIRST_BLOCK = 256
_MAX_BLOCK = 32_768
_INT64_MAX = 2**63 - 1
# The Python-integer scan, taken whenever a pairing could pass int64, runs
# about this many times slower than int64 blocks at 20 components.
_PYTHON_INT_SLOWDOWN = 20


class DecompositionBudgetError(ValueError):
    """A decomposition scan refused up front for its size."""


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    self_int: int
    genus: int = 0
    mult: int = 1
    sing: str | None = None  # "node" | "cusp" marker for irreducible singular members

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"node {self.id}: genus must be >= 0")
        if self.mult < 1:
            raise ValueError(f"node {self.id}: multiplicity must be >= 1")
        if self.sing not in (None, "node", "cusp"):
            raise ValueError(f"node {self.id}: unknown singularity marker {self.sing!r}")


@dataclass(frozen=True, slots=True)
class Edge:
    a: str
    b: str
    count: int = 1
    tangency: int = 1

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"edge endpoints must differ, got {self.a!r} twice")
        if self.count < 1 or self.tangency < 1:
            raise ValueError("edge count and tangency must be >= 1")


@dataclass(frozen=True)
class CurveConfiguration:
    """Nodes, edges and triple points of a curve configuration.

    ``__post_init__`` validates them and builds ``_index`` (node id ->
    index) and ``adjacency``.  Two facts of the whole configuration are
    derived on first use and then kept, each in O(n + e):
    ``whole_components()``, its connected components, and
    ``whole_degrees()``, the degrees D.C_i of the whole divisor
    D = sum mult_i C_i.  ``divisor_pa`` and ``is_numerically_k_connected``
    on the whole divisor, ``loop_inequality_check``'s cycle rank and
    ``classify.log_enriques_shape`` read them rather than search again.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...] = ()
    triple_points: tuple[tuple[str, str, str], ...] = ()
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    # per node index: {neighbour index: (C_i.C_j, distinct points)}
    adjacency: tuple[dict[int, tuple[int, int]], ...] = field(init=False, repr=False, compare=False, hash=False)
    # None until first read: see whole_components and whole_degrees
    _components: tuple = field(init=False, repr=False, compare=False, hash=False)
    _degrees: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        index = {nid: i for i, nid in enumerate(ids)}
        adjacency = tuple({} for _ in ids)
        for e in self.edges:
            if e.a not in index or e.b not in index:
                raise ValueError(f"edge ({e.a},{e.b}) references unknown node")
            i, j = index[e.a], index[e.b]
            pairing, points = adjacency[i].get(j, (0, 0))
            adjacency[i][j] = adjacency[j][i] = (pairing + e.count * e.tangency, points + e.count)
        for t in self.triple_points:
            if len(t) != 3 or len(set(t)) != 3 or any(x not in index for x in t):
                raise ValueError(f"triple point {t} must name three distinct nodes")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "_components", None)
        object.__setattr__(self, "_degrees", None)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, nid: str) -> Node:
        return self.nodes[self._index[nid]]

    def gram(self) -> list[list[int]]:
        """Pairwise intersection numbers in node order."""
        n = len(self.nodes)
        g = [[0] * n for _ in range(n)]
        for i, node in enumerate(self.nodes):
            g[i][i] = node.self_int
        for e in self.edges:
            i, j = self._index[e.a], self._index[e.b]
            g[i][j] += e.count * e.tangency
            g[j][i] += e.count * e.tangency
        return g

    def meeting_points(self, a: str, b: str) -> int:
        """Number of distinct intersection points of two components."""
        i = self._index.get(a)
        return 0 if i is None else self.adjacency[i].get(self._index.get(b), (0, 0))[1]

    def pairing(self, m1, m2) -> int:
        """D1.D2 for two multiplicity vectors over the node order, in O(n + e)."""
        return sum(
            a * (self.nodes[i].self_int * m2[i] + sum(p * m2[j] for j, (p, _) in self.adjacency[i].items()))
            for i, a in enumerate(m1)
            if a
        )

    def components(self, support) -> list[list[int]]:
        """Connected components of the graph on ``support`` (a sequence of
        node indices), as sorted index lists in order of first appearance;
        a depth-first search over ``adjacency`` in O(n + e)."""
        unseen, comps = set(support), []
        for start in support:
            if start in unseen:
                unseen.discard(start)
                stack, comp = [start], []
                while stack:
                    comp.append(v := stack.pop())
                    reached = unseen.intersection(self.adjacency[v])
                    unseen -= reached
                    stack.extend(reached)
                comps.append(sorted(comp))
        return comps

    def whole_components(self) -> tuple[tuple[int, ...], ...]:
        """``components`` of every node, derived on first use and kept."""
        if self._components is None:
            comps = tuple(map(tuple, self.components(range(len(self.nodes)))))
            object.__setattr__(self, "_components", comps)
        return self._components

    def whole_degrees(self) -> tuple[int, ...]:
        """D.C_i per node index for the whole divisor D = sum mult_i C_i,
        derived on first use and kept."""
        if self._degrees is None:
            nodes = self.nodes
            degrees = tuple(
                n.self_int * n.mult + sum(p * nodes[j].mult for j, (p, _) in near.items())
                for n, near in zip(nodes, self.adjacency)
            )
            object.__setattr__(self, "_degrees", degrees)
        return self._degrees

    def canonical_degrees(self) -> list[int]:
        """K.C_i per component via adjunction: 2 genus - 2 - C_i^2."""
        return [2 * n.genus - 2 - n.self_int for n in self.nodes]

    def _support(self, subset) -> dict[int, int]:
        """Positive multiplicities of a sub-divisor by node index, in index
        order, in time proportional to ``subset`` (see ``subset_vector``)."""
        if subset is None:
            return {i: n.mult for i, n in enumerate(self.nodes)}
        if not isinstance(subset, dict):
            subset = {nid: self.node(nid).mult for nid in subset}
        for nid, m in subset.items():
            if m < 0:
                raise ValueError(f"negative multiplicity for {nid}")
        mults = {self._index[nid]: int(m) for nid, m in subset.items()}
        return {i: mults[i] for i in sorted(mults) if mults[i]}

    def subset_vector(self, subset) -> list[int]:
        """Multiplicity vector of a sub-divisor over the node order.

        ``subset`` may be None (all nodes at their stored multiplicity), an
        iterable of node ids (those nodes at stored multiplicity), or a
        mapping id -> multiplicity.
        """
        mults = self._support(subset)
        return [mults.get(i, 0) for i in range(len(self.nodes))]

    def to_json(self) -> dict:
        data = {
            "nodes": [
                {
                    "id": n.id,
                    "self": n.self_int,
                    "genus": n.genus,
                    "mult": n.mult,
                    **({"sing": n.sing} if n.sing else {}),
                }
                for n in self.nodes
            ],
            "edges": [
                {"a": e.a, "b": e.b, "count": e.count, "tangency": e.tangency}
                for e in self.edges
            ],
        }
        if self.triple_points:
            data["triples"] = [list(t) for t in self.triple_points]
        return data


def _json_value(data):
    """JSON text decoded, or ``data`` itself when it is already decoded;
    text nested past the interpreter's recursion limit raises ValueError."""
    if not isinstance(data, str):
        return data
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _json_list(data: dict, key: str, kind: type, required: tuple = ()) -> list:
    """``data[key]`` (default []) if it is a list whose items are all
    ``kind`` and hold every ``required`` key; otherwise ValueError."""
    items = data.get(key, [])
    if _is_list_of(items, kind, required):
        return items
    what = "arrays" if kind is list else "objects with " + " and ".join(map(repr, required))
    raise ValueError(f"{key!r} must be a list of JSON {what}")


def _is_list_of(items, kind: type, required: tuple) -> bool:
    if not isinstance(items, list):
        return False
    for x in items:
        if not isinstance(x, kind):
            return False
        for r in required:
            if r not in x:
                return False
    return True


def _json_int(obj: dict, key: str, default=None) -> int:
    value = obj.get(key, default)
    if type(value) is not int:  # exact arithmetic: no bool, float or string
        got, where = (json.dumps(x, default=repr) for x in (value, obj))
        raise ValueError(f"{key!r} must be an integer, got {got} in {where}")
    return value


def config_from_json(data) -> CurveConfiguration:
    """Read a configuration from JSON text or its decoded object; a bad shape,
    no nodes, or a ``self``, ``genus``, ``mult``, ``count`` or ``tangency``
    that is not a JSON integer raises ValueError naming the field.

    The node list's shape is checked whole (``_json_list``), then each node
    is built in order; then the edges the same way, then the triples.  An
    item with a field that is not an integer is read again field by field
    (``_json_int``) only to word its refusal."""
    data = _json_value(data)
    if not isinstance(data, dict) or not data.get("nodes"):
        raise ValueError("a configuration must be a JSON object with a nonempty 'nodes' list")
    nodes = []
    for n in _json_list(data, "nodes", dict, ("id",)):
        s, genus, mult = n.get("self"), n.get("genus", 0), n.get("mult", 1)
        if type(s) is not int or type(genus) is not int or type(mult) is not int:
            s, genus, mult = _json_int(n, "self"), _json_int(n, "genus", 0), _json_int(n, "mult", 1)
        nodes.append(Node(str(n["id"]), s, genus, mult, n.get("sing")))
    edges = []
    for e in _json_list(data, "edges", dict, ("a", "b")):
        count, tangency = e.get("count", 1), e.get("tangency", 1)
        if type(count) is not int or type(tangency) is not int:
            count, tangency = _json_int(e, "count", 1), _json_int(e, "tangency", 1)
        edges.append(Edge(str(e["a"]), str(e["b"]), count, tangency))
    triples = tuple(tuple(map(str, t)) for t in _json_list(data, "triples", list))
    return CurveConfiguration(tuple(nodes), tuple(edges), triples)


def _zariski_verdict(cfg: CurveConfiguration, mults: dict, d: list[int], k: int, count: int):
    """Exact k-connectivity verdict for D nef on its connected support, or None.

    Applies when the support is connected and d_i = D.C_i >= 0 for every
    component in it.  Off-diagonal Gram entries are >= 0, so the identity

        D1.D2 = 1/2 sum_{i != j} g_ij m_i m_j (x_i/m_i - x_j/m_j)^2
                + sum_i (d_i/m_i) x_i (m_i - x_i)        (D1 = x, D = m)

    makes every D1.D2 >= 0, and 0 only for D1 in Q.D with D^2 = 0 (Zariski's
    lemma): a proper such D1 exists iff gcd(m) > 1.  Since D1^2 = K.D1
    (mod 2), D1.D2 = sum_i x_i (d_i + K.C_i) (mod 2), so D1.D2 >= 1 gives
    D1.D2 >= 2 when every d_i + K.C_i is even.  ``mults`` maps the support's
    node indices, in order, to their multiplicities, ``d`` lists the D.C_i
    and ``count`` is the number of connected components of the support.
    """
    if min(d) < 0 or count != 1:
        return None
    if k <= 0:
        return True
    if math.gcd(*mults.values()) > 1 and not any(d):
        return False
    if k == 1:
        return True
    # K.C_i = 2 genus - 2 - C_i^2 = C_i^2 (mod 2)
    if k == 2 and all((di + cfg.nodes[i].self_int) % 2 == 0 for di, i in zip(d, mults)):
        return True
    return None


def is_numerically_k_connected(cfg: CurveConfiguration, subset, k: int) -> bool:
    """Test D1.D2 >= k over all decompositions D = D1 + D2.

    Both parts range over nonzero effective sub-divisors of D; with none
    (D a single reduced component) the test holds vacuously.  Three paths
    decide it, and the budgets are checked after the first:

    * When D is nef on its connected support (D.C_i >= 0 there), Zariski's
      lemma decides in closed form: every k <= 0 holds, k >= 1 fails when
      D^2 = 0 and the multiplicities share a factor, k = 1 holds otherwise,
      and so does k = 2 when every D.C_i + K.C_i is even (D1^2 = K.D1
      mod 2).
    * Past it, a support of more than ``MAX_DISTINCT_COMPONENTS``
      components or ``MAX_DECOMPOSITIONS`` decompositions (divided by
      ``_PYTHON_INT_SLOWDOWN`` when a pairing may pass int64) raises
      ``DecompositionBudgetError`` naming the limit and the count, whichever
      path would follow.
    * A support whose dual graph is a forest, with one edge per
      intersection point (two curves meeting at two points form a cycle, as
      for the cycle rank of ``loop_inequality_check``), is decided by the
      exact least D1.D2 from a min-sum dynamic programme over the trees
      (``_least_proper_pairing``), in Python integers.
    * Any other support scans D1 over the box of prod(m_i + 1)
      decompositions up to its midpoint, since D1 and D - D1 pair alike: in
      int64 numpy blocks of at most ``_MAX_BLOCK`` rows above
      ``_VECTORIZE_THRESHOLD`` decompositions when every pairing fits, and
      in Python integers otherwise, stopping at the first violation.  Only
      the scan builds a dense Gram, over the support alone.
    """
    mults, comps, degrees = _support_facts(cfg, subset)
    if not mults:
        raise ValueError("empty divisor has no decompositions")
    if subset is None:
        mults = dict(enumerate(mults))
    return _k_connected(cfg, mults, [degrees[i] for i in mults], k, len(comps))


def _support_facts(cfg: CurveConfiguration, subset):
    """A sub-divisor D's multiplicities by node index, the connected
    components of its support, and D.C_i by node index.  For the whole
    divisor (``subset`` None) these are a list over all nodes and the
    components and degrees that ``cfg`` keeps; otherwise the support as
    {node index: multiplicity} in index order, and facts derived here in
    O(support + its edges)."""
    if subset is None:
        return [n.mult for n in cfg.nodes], cfg.whole_components(), cfg.whole_degrees()
    mults = cfg._support(subset)
    degrees = {
        i: cfg.nodes[i].self_int * m + sum(p * mults.get(j, 0) for j, (p, _) in cfg.adjacency[i].items())
        for i, m in mults.items()
    }
    return mults, cfg.components(list(mults)), degrees


def _k_connected(cfg: CurveConfiguration, mults: dict, d: list[int], k: int, count: int) -> bool:
    """``is_numerically_k_connected`` on a nonempty support given by node
    index: ``mults`` maps the indices, in order, to their multiplicities,
    ``d`` lists the D.C_i in the same order and ``count`` is the number of
    the support's connected components."""
    verdict = _zariski_verdict(cfg, mults, d, k, count)
    if verdict is not None:
        return verdict
    if len(mults) > MAX_DISTINCT_COMPONENTS:
        raise DecompositionBudgetError(
            f"decomposition scan capped at MAX_DISTINCT_COMPONENTS = "
            f"{MAX_DISTINCT_COMPONENTS} components ({len(mults)} given)"
        )
    sub_m = list(mults.values())
    total = math.prod(m + 1 for m in sub_m)
    # every product, partial sum and pairing in the scan is at most
    # 2 * bound = 2 sum_ij m_i |C_i.C_j| m_j in absolute value
    bound = sum(
        m * (abs(cfg.nodes[i].self_int) * m + sum(p * mults.get(j, 0) for j, (p, _) in cfg.adjacency[i].items()))
        for i, m in mults.items()
    )
    in_int64 = 2 * bound + abs(k) <= _INT64_MAX
    budget, name = MAX_DECOMPOSITIONS, "MAX_DECOMPOSITIONS"
    if not in_int64:
        budget //= _PYTHON_INT_SLOWDOWN
        name += f" // {_PYTHON_INT_SLOWDOWN} (pairings past int64)"
    if total > budget:
        raise DecompositionBudgetError(
            f"decomposition budget exceeded: {total:,} decompositions, "
            f"more than {name} = {budget:,}"
        )
    if _is_forest(cfg, mults, count):
        least = _least_proper_pairing(cfg, mults, d)
        return least is None or least >= k
    sub_gram = [[cfg.adjacency[i].get(j, (0, 0))[0] for j in mults] for i in mults]
    for p, i in enumerate(mults):
        sub_gram[p][p] = cfg.nodes[i].self_int
    if total > _VECTORIZE_THRESHOLD and in_int64:
        return _k_connected_blocked(sub_gram, sub_m, d, k)
    diag = [sub_gram[p][p] for p in range(len(sub_m))]
    meets = [(p, q, g) for p, row in enumerate(sub_gram) for q, g in enumerate(row) if p < q and g]
    # mixed-radix index i is D1 and total - 1 - i is D - D1, so the proper
    # decompositions are covered by i = 1 .. (total - 1) // 2
    ranges = (range(m + 1) for m in sub_m)
    for d1 in itertools.islice(itertools.product(*ranges), 1, (total + 1) // 2):
        # D1.D2 = D1.(D - D1) = D1.GD - D1 G D1, with D1 G D1 summed over
        # the diagonal and the support's own meeting pairs
        lin = sum(a * (di - s * a) for a, di, s in zip(d1, d, diag))
        if lin - 2 * sum(g * d1[p] * d1[q] for p, q, g in meets) < k:
            return False
    return True


def _is_forest(cfg: CurveConfiguration, mults: dict, count: int) -> bool:
    """Whether the dual graph of the support, with one edge per intersection
    point, has no cycle: it has as many edges as nodes minus its ``count``
    components."""
    points = sum(pts for i in mults for j, (_, pts) in cfg.adjacency[i].items() if j in mults)
    return points // 2 == len(mults) - count


def _least_proper_pairing(cfg: CurveConfiguration, mults: dict, d: list[int]):
    """Least D1.(D - D1) over the proper decompositions D = D1 + D2 of a
    support whose dual graph is a forest, or None when there is none.

    For D1 = x, D1.(D - D1) = sum_i x_i (D.C_i - C_i^2 x_i) - 2 sum over
    edges ij of (C_i.C_j) x_i x_j: one term per node and one per edge, so
    a min-sum dynamic programme over each tree is exact.  Over a subtree,
    an assignment carries two flags, "some x_j > 0" and "some x_j < m_j";
    with only the first set it is all full, with only the second all zero.
    A node's table holds, per x_i in 0..m_i, the least sum of the terms of
    its subtree over the assignments with both flags set (None where there
    is none), and the sum when all full, the one entry with the second flag
    unset (at x_i = m_i); all zero sums to 0 (at x_i = 0).  Children fold
    into their parents from the leaves up, flags combining by OR, in
    O(sum over edges of (m_i + 1)(m_j + 1)) Python-integer steps.
    """
    d_at = dict(zip(mults, d))
    least, seen = [], set()
    for root in mults:
        if root in seen:
            continue
        seen.add(root)
        order, parent = [root], {}
        for v in order:  # breadth first, so parents precede their children
            for u in cfg.adjacency[v]:
                if u in mults and u not in seen:
                    seen.add(u)
                    parent[u] = v
                    order.append(u)
        tables = {}
        for v in order:
            m, s = mults[v], cfg.nodes[v].self_int
            terms = [x * (d_at[v] - s * x) for x in range(m + 1)]
            tables[v] = [None] + terms[1:m] + [None], terms[m]
        for v in reversed(order[1:]):
            p = parent[v]
            tables[p] = _fold(*tables[p], *tables.pop(v), 2 * cfg.adjacency[v][p][0])
        least.append(min((t for t in tables[root][0] if t is not None), default=None))
    if len(least) == 1:
        return least[0]
    # a tree sums to 0 all zero and all full, and one tree all zero with
    # another all full is a proper decomposition of the forest
    return sum(min(t, 0) for t in least if t is not None)


def _fold(proper: list, full: int, child_proper: list, child_full: int, e: int) -> tuple[list, int]:
    """A parent's table with one child's subtree folded in along an edge of
    pairing e / 2: per parent value x, the child's value y is minimised
    with the edge term -e x y, for each way the union can be proper."""
    m, mc = len(proper) - 1, len(child_proper) - 1
    entries = [(e * y, t) for y, t in enumerate(child_proper) if t is not None]
    out = []
    for x, t in enumerate(proper):
        c_proper = min([u - x * s for s, u in entries], default=None)
        c_full = child_full - e * x * mc
        c_some = c_full if c_proper is None else min(c_full, c_proper)  # the child not all zero
        best = None if t is None else t + min(c_some, 0)
        if x == 0:  # the parent all zero so far: the child must not be
            best = c_some if best is None else min(best, c_some)
        if x == m:  # the parent all full so far: the child must not be
            rest = full + (0 if c_proper is None else min(c_proper, 0))
            best = rest if best is None else min(best, rest)
        out.append(best)
    return out, full + child_full - e * m * mc


def _k_connected_blocked(sub_gram, sub_m, gd, k: int) -> bool:
    """The scan of ``is_numerically_k_connected`` in int64 numpy blocks.

    Mixed-radix indices 1 .. (total - 1) // 2 are unravelled a block at a
    time, in O(block * r) memory; blocks start at ``_FIRST_BLOCK`` rows and
    double up to ``_MAX_BLOCK``, so an early violation costs little.
    """
    g = np.array(sub_gram, dtype=np.int64)
    lin = np.array(gd, dtype=np.int64)
    shape = tuple(m + 1 for m in sub_m)
    start, stop, block = 1, (math.prod(shape) + 1) // 2, _FIRST_BLOCK
    while start < stop:
        end = min(start + block, stop)
        a = np.stack(np.unravel_index(np.arange(start, end), shape), axis=1).astype(np.int64, copy=False)
        if np.any(a @ lin - ((a @ g) * a).sum(axis=1) < k):
            return False
        start, block = end, min(2 * block, _MAX_BLOCK)
    return True


def _h0_single_multiple(node: Node, m: int):
    """Exact h^0(O_{mC}) for m copies of one smooth component, where known."""
    s = node.self_int
    if node.sing is not None:
        return UNDETERMINED
    if node.genus == 0 and s <= 0:
        return m + (-s) * m * (m - 1) // 2
    if node.genus == 1 and s < 0:
        return 1 + (-s) * m * (m - 1) // 2
    return UNDETERMINED


def divisor_pa(cfg: CurveConfiguration, subset=None):
    """Arithmetic genus of a sub-divisor, or UNDETERMINED.

    A connected component whose 1-connectivity scan is refused for its size
    (``DecompositionBudgetError``) makes the genus UNDETERMINED as well.

    TESTS::

        >>> minus4 = CurveConfiguration((Node("D", -4),))
        >>> divisor_pa(minus4)
        0
        >>> loop = CurveConfiguration(
        ...     (Node("A", -2), Node("B", -2)), (Edge("A", "B", count=2),))
        >>> divisor_pa(loop)
        1
    """
    mults, comps, degrees = _support_facts(cfg, subset)
    if not mults:
        raise ValueError("empty divisor")
    h0_total = 0
    for comp in comps:
        if all(mults[i] == 1 for i in comp):
            h0_total += 1
            continue
        h = UNDETERMINED
        if len(comp) == 1:
            h = _h0_single_multiple(cfg.nodes[comp[0]], mults[comp[0]])
        if h is UNDETERMINED:
            # a connected component of the support: D.C_i there is its own
            # D_comp.C_i, since no other part of D meets it
            try:
                if not _k_connected(cfg, {i: mults[i] for i in comp}, [degrees[i] for i in comp], 1, 1):
                    return UNDETERMINED
            except DecompositionBudgetError:
                return UNDETERMINED
            h = 1
        h0_total += h
    # D^2 + K.D = sum_i m_i (D.C_i + K.C_i), K.C_i = 2 genus - 2 - C_i^2,
    # over the support, which the components partition
    nodes = cfg.nodes
    num = sum(mults[i] * (degrees[i] + 2 * nodes[i].genus - 2 - nodes[i].self_int) for comp in comps for i in comp)
    assert num % 2 == 0, "adjunction numerator is always even on a configuration"
    return num // 2 + h0_total


def pa_sum_formula_check(cfg: CurveConfiguration, d1, d2) -> dict:
    """Verify p_a(D1 + D2) = p_a(D1) + p_a(D2) + D1.D2 - 1.

    Requires D1, D2 and their sum reduced (so the supports are disjoint
    node sets) and each part numerically 1-connected; otherwise the
    formula's hypotheses fail and a diagnostic error is raised.

    TESTS::

        >>> cfg = CurveConfiguration((Node("A", -1), Node("B", -1)), (Edge("A", "B"),))
        >>> pa_sum_formula_check(cfg, ["A"], ["B"])["holds"]
        True
    """
    m1 = cfg.subset_vector(d1)
    m2 = cfg.subset_vector(d2)
    if any(a > 1 for a in m1) or any(b > 1 for b in m2):
        raise ValueError("parts must be reduced")
    if any(a + b > 1 for a, b in zip(m1, m2)):
        raise ValueError("parts must have disjoint support so the sum is reduced")
    for name, part in (("D1", d1), ("D2", d2)):
        if not is_numerically_k_connected(cfg, part, 1):
            raise ValueError(f"{name} is not numerically 1-connected")
    msum = {cfg.nodes[i].id: a + b for i, (a, b) in enumerate(zip(m1, m2)) if a + b}
    pa_sum = divisor_pa(cfg, msum)
    pa1 = divisor_pa(cfg, d1)
    pa2 = divisor_pa(cfg, d2)
    cross = cfg.pairing(m1, m2)
    for v in (pa_sum, pa1, pa2):
        if v is UNDETERMINED:
            raise ValueError("a part's genus is undetermined; formula not checkable")
    holds = pa_sum == pa1 + pa2 + cross - 1
    return {"pa_sum": pa_sum, "pa_parts": (pa1, pa2), "cross": cross, "holds": holds}


@dataclass(frozen=True)
class SncReport:
    passed: bool
    violations: tuple[str, ...]
    notes: tuple[str, ...]


def check_snc(cfg: CurveConfiguration) -> SncReport:
    """Check that a configuration is smooth-rational and simple normal crossing.

    Violations: a component of positive genus, a self-singularity marker, a
    tangency of order >= 2, or a triple point.  Multiple transverse
    intersections of one pair (count >= 2) are legal and only noted.
    """
    violations = []
    notes = []
    for n in cfg.nodes:
        if n.genus > 0:
            violations.append(f"component {n.id} has genus {n.genus} >= 1")
        if n.sing is not None:
            violations.append(f"component {n.id} carries a {n.sing} marker")
    for e in cfg.edges:
        if e.tangency >= 2:
            violations.append(
                f"components {e.a},{e.b} meet with tangency {e.tangency} >= 2"
            )
        if e.count >= 2:
            notes.append(
                f"components {e.a},{e.b} meet at {e.count} distinct transverse points"
            )
    for t in cfg.triple_points:
        violations.append(f"triple point through {', '.join(t)}")
    return SncReport(not violations, tuple(violations), tuple(notes))


@dataclass(frozen=True)
class LoopReport:
    chain_length: int
    chain_self_int_sum: int
    bound: int
    inequality_holds: bool
    cycle_rank: int
    loop_unique: bool


def loop_inequality_check(cfg: CurveConfiguration, chain, m1: str) -> LoopReport:
    """Check the self-intersection bound along a simple loop M1 + chain.

    The cycle [m1] + chain must close up simply: consecutive members meet at
    exactly one point (a 2-cycle meets at exactly two), and no other pair of
    cycle members meets; anything else raises ValueError.  The reported
    inequality is

        sum_i chain[i].self_int <= -2 s - 1,  s = len(chain),

    and uniqueness means the support graph of the whole configuration has
    cycle rank 1 (counting parallel intersections as parallel edges).
    """
    cycle = [m1] + list(chain)
    if len(set(cycle)) != len(cycle):
        raise ValueError("loop nodes must be distinct")
    if len(cycle) < 2:
        raise ValueError("a loop needs at least two components")
    n, position, problems = len(cycle), {nid: i for i, nid in enumerate(cycle)}, []
    for i, a in enumerate(cycle):
        # only consecutive members and members that meet can fail the test,
        # so check those partners j > i, in order: O(L + e) lookups in all
        met = (position.get(cfg.nodes[h].id, -1) for h in cfg.adjacency[cfg._index[a]]) if a in cfg._index else ()
        partners = {j for j in met if j > i} | {j for j in (i + 1, n - 1 if i == 0 else i + 1) if j < n}
        for j in sorted(partners):
            b = cycle[j]
            pts = cfg.meeting_points(a, b)
            consecutive = j - i == 1 or (i == 0 and j == n - 1)
            want = (2 if n == 2 else 1) if consecutive else 0
            if pts != want:
                problems.append(f"{a},{b} meet at {pts} points, need {want}")
    if problems:
        raise ValueError("not a simple loop: " + "; ".join(problems))
    total = sum(cfg.node(c).self_int for c in chain)
    bound = -2 * len(chain) - 1
    # cycle rank of the support multigraph: distinct points count as edges
    rank = sum(e.count for e in cfg.edges) - len(cfg.nodes) + len(cfg.whole_components())
    return LoopReport(chain_length=len(chain), chain_self_int_sum=total, bound=bound,
                      inequality_holds=total <= bound, cycle_rank=rank, loop_unique=rank == 1)
