"""Kodaira fiber types: model builders and graph-isomorphism recognition.

Each degenerate fiber of a relatively minimal genus-1 fibration is one of
the classical Kodaira types.  ``fiber_family`` is the one reader of a
type name, and refuses a name outside ``FIBER_NAMES`` with KeyError.
``kodaira_fiber`` builds the model configuration for a named type
(components with multiplicities, all rational of self-intersection -2
except the one-component types), and ``recognize_fiber`` matches an
arbitrary configuration against the catalog, returning the type name or
None.

Every model satisfies F^2 = 0, K.F = 0 and p_a(F) = 1; the recognizer
re-derives those identities for whatever it matches as a consistency
guard.  The recognizer builds the models and their isomorphism-invariant
signatures once, on its first call, and matches every later input against
those same objects.
"""

from __future__ import annotations

import functools

from .config import CurveConfiguration, Edge, Node, divisor_pa

MAX_IN = 12
MAX_ISTAR = 8


def _nodes(pairs):
    return tuple(Node(nid, self_int=-2, mult=m) for nid, m in pairs)


FIBER_NAMES = (
    ["smooth", "II", "III", "IV", "IV*", "III*", "II*"]
    + [f"I{n}" for n in range(1, MAX_IN + 1)]
    + [f"I{b}*" for b in range(0, MAX_ISTAR + 1)]
)


def fiber_family(name: str) -> tuple[str, int]:
    """Read a Kodaira type name as (family, index).

    "I<n>" reads as ("I", n) and "I<b>*" as ("I*", b); every other type is
    its own family with index 0.  A name outside ``FIBER_NAMES`` raises
    KeyError.

    TESTS::

        >>> fiber_family("I6"), fiber_family("I0*"), fiber_family("IV*")
        (('I', 6), ('I*', 0), ('IV*', 0))
    """
    if name not in FIBER_NAMES:
        raise KeyError(f"unknown fiber type {name!r}")
    if name.startswith("I") and name[1].isdigit():
        if name.endswith("*"):
            return "I*", int(name[1:-1])
        return "I", int(name[1:])
    return name, 0


def kodaira_fiber(name: str) -> CurveConfiguration:
    """Model configuration for a Kodaira fiber type.

    Names: "smooth", "I1".."I12", "I0*".."I8*", "II", "III", "IV",
    "IV*", "III*", "II*".

    TESTS::

        >>> f = kodaira_fiber("I5")
        >>> len(f.nodes), sum(e.count for e in f.edges)
        (5, 5)
        >>> kodaira_fiber("II*").nodes[5].mult
        6
    """
    family, index = fiber_family(name)
    if family == "smooth":
        return CurveConfiguration((Node("C", self_int=0, genus=1),))
    if family == "II":
        return CurveConfiguration((Node("C", self_int=0, genus=1, sing="cusp"),))
    if family == "III":
        return CurveConfiguration(
            (Node("A", -2), Node("B", -2)), (Edge("A", "B", tangency=2),)
        )
    if family == "IV":
        return CurveConfiguration(
            (Node("A", -2), Node("B", -2), Node("C", -2)),
            (Edge("A", "B"), Edge("B", "C"), Edge("A", "C")),
            triple_points=(("A", "B", "C"),),
        )
    if family == "I*":
        b = index
        # chain of b+1 multiplicity-2 components with two leaves at each end
        chain = [(f"C{i}", 2) for i in range(b + 1)]
        leaves = [("L1", 1), ("L2", 1), ("L3", 1), ("L4", 1)]
        nodes = _nodes(chain + leaves)
        edges = [Edge(f"C{i}", f"C{i+1}") for i in range(b)]
        edges += [
            Edge("L1", "C0"),
            Edge("L2", "C0"),
            Edge("L3", f"C{b}"),
            Edge("L4", f"C{b}"),
        ]
        return CurveConfiguration(nodes, tuple(edges))
    if family == "I":
        n = index
        if n == 1:
            return CurveConfiguration((Node("C", self_int=0, genus=1, sing="node"),))
        if n == 2:
            return CurveConfiguration(
                (Node("A", -2), Node("B", -2)), (Edge("A", "B", count=2),)
            )
        nodes = _nodes((f"C{i}", 1) for i in range(n))
        edges = tuple(Edge(f"C{i}", f"C{(i+1) % n}") for i in range(n))
        return CurveConfiguration(nodes, edges)
    if family == "IV*":
        nodes = _nodes(
            [("Z", 3), ("A1", 2), ("A2", 1), ("B1", 2), ("B2", 1), ("C1", 2), ("C2", 1)]
        )
        edges = (
            Edge("Z", "A1"), Edge("A1", "A2"),
            Edge("Z", "B1"), Edge("B1", "B2"),
            Edge("Z", "C1"), Edge("C1", "C2"),
        )
        return CurveConfiguration(nodes, edges)
    if family == "III*":
        mults = [1, 2, 3, 4, 3, 2, 1]
        nodes = _nodes([(f"C{i}", m) for i, m in enumerate(mults)] + [("T", 2)])
        edges = tuple(Edge(f"C{i}", f"C{i+1}") for i in range(6)) + (Edge("T", "C3"),)
        return CurveConfiguration(nodes, edges)
    mults = [1, 2, 3, 4, 5, 6, 4, 2]  # II*
    nodes = _nodes([(f"C{i}", m) for i, m in enumerate(mults)] + [("T", 3)])
    edges = tuple(Edge(f"C{i}", f"C{i+1}") for i in range(7)) + (Edge("T", "C5"),)
    return CurveConfiguration(nodes, edges)


def fiber_euler_number(name: str) -> int:
    """Topological Euler number of the fiber."""
    family, index = fiber_family(name)
    if family == "I":
        return index
    if family == "I*":
        return index + 6
    return {"smooth": 0, "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}[family]


def _signature(cfg: CurveConfiguration):
    """Isomorphism-invariant signature: sorted node data, and the sorted
    ``adjacency`` entries (pairing, distinct points), one per adjacent pair,
    so an intersection written as several edge records reads as one."""
    node_sig = sorted(
        (n.self_int, n.genus, n.mult, n.sing or "", sum(points for _, points in near.values()))
        for n, near in zip(cfg.nodes, cfg.adjacency)
    )
    edge_sig = sorted(entry for i, near in enumerate(cfg.adjacency) for j, entry in near.items() if j > i)
    return (tuple(node_sig), tuple(edge_sig), len(cfg.triple_points))


def _isomorphic(a: CurveConfiguration, b: CurveConfiguration) -> bool:
    """Backtracking isomorphism of weighted multigraphs with node labels,
    for two configurations of equal ``_signature``.  Mapped pairs must agree
    on their ``adjacency`` entry: the pairing and the distinct points."""
    na = len(a.nodes)

    def compatible(i, j):
        n, m = a.nodes[i], b.nodes[j]
        return (n.self_int, n.genus, n.mult, n.sing) == (m.self_int, m.genus, m.mult, m.sing)

    mapping = [-1] * na
    used = [False] * na

    def extend(i: int) -> bool:
        if i == na:
            ta = {tuple(sorted(a._index[x] for x in t)) for t in a.triple_points}
            tb = {
                tuple(sorted(mapping.index(b._index[x]) for x in t))
                for t in b.triple_points
            }
            return ta == tb
        for j in range(na):
            if used[j] or not compatible(i, j):
                continue
            if any(a.adjacency[i].get(h) != b.adjacency[j].get(mapping[h]) for h in range(i)):
                continue
            mapping[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    found = extend(0)
    # extend refers to itself through its closure cell: break that cycle so
    # both configurations are freed now, not at the next cyclic collection
    extend = None
    return found


@functools.cache
def _models() -> tuple[tuple[str, CurveConfiguration, tuple], ...]:
    """Every catalog model with its signature, built on first use and shared
    afterwards."""
    models = ((name, kodaira_fiber(name)) for name in FIBER_NAMES)
    return tuple((name, model, _signature(model)) for name, model in models)


def recognize_fiber(cfg: CurveConfiguration) -> str | None:
    """Match a configuration against the Kodaira catalog.

    Returns the type name, or None when no model matches.  A successful
    match additionally asserts F^2 = 0, K.F = 0 and p_a(F) = 1 on the
    candidate itself.

    TESTS::

        >>> recognize_fiber(kodaira_fiber("IV*"))
        'IV*'
        >>> chain = CurveConfiguration((Node("A", -2), Node("B", -2)), (Edge("A", "B"),))
        >>> recognize_fiber(chain) is None
        True
    """
    signature = _signature(cfg)
    for name, model, model_signature in _models():
        if signature == model_signature and _isomorphic(cfg, model):
            mults = cfg.subset_vector(None)
            f_sq = cfg.pairing(mults, mults)
            k_f = sum(m * kd for m, kd in zip(mults, cfg.canonical_degrees()))
            assert f_sq == 0 and k_f == 0, "matched fiber must satisfy F^2 = K.F = 0"
            assert divisor_pa(cfg) == 1, "matched fiber must have arithmetic genus 1"
            return name
    return None
