"""Blow-up sequences with infinitely near centers and transform calculus.

A sequence of point blow-ups over P2 or a Hirzebruch surface is recorded
as an ordered list of centers; a center either lies on the base surface
(parent None) or is infinitely near an earlier center (parent = that
center's id).  The resulting lattice has one orthogonal (-1)-vector per
center; that basis vector is the TOTAL transform class of the center's
exceptional curve, so the proper transform of a curve with multiplicity
m_p at each successive center p is

    lift(base class) - sum_p m_p e_p,

and the irreducible exceptional curve over p has class
e_p - sum(e_q : q an immediate child of p).

Multiplicities are data, not computed: the author states where a curve
passes and how singular it is there; the engine checks consistency
(child multiplicity never exceeds the parent's) and does the lattice
bookkeeping exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .config import CurveConfiguration, Edge, Node
from .lattice import (
    Base,
    DivisorClass,
    IntersectionLattice,
    LatticeMismatch,
    make_lattice,
    pair,
)


@dataclass(frozen=True)
class Center:
    id: str
    parent: str | None = None
    on_curves: tuple[str, ...] = ()


@dataclass(frozen=True)
class BlowUpSequence:
    base: Base
    centers: tuple[Center, ...]
    _lattice: IntersectionLattice = field(init=False, repr=False, compare=False)
    _base_lattice: IntersectionLattice = field(init=False, repr=False, compare=False)
    # center id -> its index, curve label -> indices of the centers declared
    # on that curve, and center id -> lattice indices of its immediate children
    _position: dict = field(init=False, repr=False, compare=False)
    _declared: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position: dict[str, int] = {}
        declared: dict[str, list[int]] = {}
        children: dict[str, list[int]] = {}
        base_lattice = make_lattice(self.base, 0)
        head = base_lattice.rank
        for i, c in enumerate(self.centers):
            if c.id in position:
                raise ValueError(f"duplicate center id {c.id!r}")
            if c.id in base_lattice.basis_labels:
                raise ValueError(f"center id {c.id!r} names a basis vector of the base {self.base}")
            if c.parent is not None and c.parent not in position:
                raise ValueError(
                    f"center {c.id!r}: parent {c.parent!r} must be an earlier center"
                )
            position[c.id] = i
            for label in c.on_curves:
                declared.setdefault(label, []).append(i)
            if c.parent is not None:
                children.setdefault(c.parent, []).append(head + i)
        lat = make_lattice(self.base, len(self.centers), tuple(c.id for c in self.centers))
        object.__setattr__(self, "_lattice", lat)
        object.__setattr__(self, "_base_lattice", base_lattice)
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_declared", declared)
        object.__setattr__(self, "_children", children)

    @property
    def lattice(self) -> IntersectionLattice:
        return self._lattice

    @property
    def base_lattice(self) -> IntersectionLattice:
        return self._base_lattice

    def k_squared(self) -> int:
        """Canonical self-intersection after all blow-ups.

        TESTS::

            >>> from .lattice import P2
            >>> seq = BlowUpSequence(P2(), tuple(Center(f"p{i}") for i in range(10)))
            >>> seq.k_squared()
            -1
            >>> BlowUpSequence(P2(), ()).k_squared()
            9
        """
        return self._lattice.k_squared

    def center(self, cid: str) -> Center:
        if cid not in self._position:
            raise KeyError(f"unknown center {cid!r}")
        return self.centers[self._position[cid]]

    def exceptional(self, cid: str) -> DivisorClass:
        """Total transform class of the exceptional curve over a center."""
        return self._basis_minus(cid, ())

    def exceptional_proper(self, cid: str) -> DivisorClass:
        """Class of the irreducible exceptional curve over a center: its
        total class minus those of its immediate children.

        TESTS::

            >>> from .lattice import P2
            >>> seq = BlowUpSequence(P2(), (Center("p"), Center("q", parent="p")))
            >>> str(seq.exceptional_proper("p"))
            'p-q'
        """
        return self._basis_minus(cid, self._children.get(cid, ()))

    def _basis_minus(self, cid: str, minus) -> DivisorClass:
        """The center's basis vector minus those at the lattice indices ``minus``."""
        self.center(cid)  # KeyError for an unknown center
        index = self._base_lattice.rank + self._position[cid]
        return _class_of(self, [(index, 1), *((i, -1) for i in minus)])

    def lift(self, base_class: DivisorClass) -> DivisorClass:
        """Pull a base-lattice class back with zero exceptional coefficients."""
        return _class_of(self, _lifted(self, base_class))


@dataclass(frozen=True)
class CurveAssignment:
    label: str
    base_class: DivisorClass
    mults: dict


def make_assignment(seq: BlowUpSequence, label: str, base_class: DivisorClass, mults=None) -> CurveAssignment:
    """Validated curve assignment for a sequence.

    Checks that every multiplicity names a known center, that a center
    infinitely near another never carries a larger multiplicity than its
    parent, and that centers declared to lie on this curve have
    multiplicity >= 1.

    Only centers with a multiplicity or declared on the curve can fail a
    check, so only those are visited, in sequence order: the cost is linear
    in the assignment, not in the sequence.
    """
    mults = {k: int(v) for k, v in (mults or {}).items()}
    position = seq._position
    for cid, m in mults.items():
        if cid not in position:
            raise ValueError(f"curve {label!r}: unknown center {cid!r}")
        if m < 0:
            raise ValueError(f"curve {label!r}: negative multiplicity at {cid!r}")
    visit = {position[cid] for cid in mults}.union(seq._declared.get(label, ()))
    for c in map(seq.centers.__getitem__, sorted(visit)):
        m_here = mults.get(c.id, 0)
        if c.parent is not None and m_here > mults.get(c.parent, 0):
            raise ValueError(
                f"curve {label!r}: multiplicity {m_here} at {c.id!r} exceeds "
                f"parent {c.parent!r}'s multiplicity"
            )
        if label in c.on_curves and m_here < 1:
            raise ValueError(
                f"curve {label!r}: center {c.id!r} is declared on this curve "
                "but the multiplicity there is 0"
            )
    if base_class.lattice != seq.base_lattice:
        raise LatticeMismatch(f"curve {label!r}: base class lives in the wrong lattice")
    return CurveAssignment(label, base_class, mults)


def _lifted(seq: BlowUpSequence, base_class: DivisorClass):
    if base_class.lattice != seq.base_lattice:
        raise LatticeMismatch("class does not live in this sequence's base lattice")
    return enumerate(base_class.coeffs)


def _proper(seq: BlowUpSequence, c: CurveAssignment):
    head, position = seq.base_lattice.rank, seq._position
    return [*_lifted(seq, c.base_class), *((head + position[cid], -m) for cid, m in c.mults.items())]


def _class_of(seq: BlowUpSequence, entries) -> DivisorClass:
    coeffs = [0] * seq.lattice.rank
    for i, v in entries:
        coeffs[i] += v
    return DivisorClass(seq.lattice, tuple(coeffs))


def total_transform(seq: BlowUpSequence, c: CurveAssignment) -> DivisorClass:
    """Pullback of the curve's base class: exceptional coefficients all zero."""
    return seq.lift(c.base_class)


def proper_transform(seq: BlowUpSequence, c: CurveAssignment) -> DivisorClass:
    """lift(base class) minus multiplicity times each center's class.

    TESTS::

        >>> from .lattice import P2
        >>> seq = BlowUpSequence(P2(), tuple(Center(f"p{i}") for i in range(1, 11)))
        >>> deg6 = seq.base_lattice.make_class((6,))
        >>> c = make_assignment(seq, "C", deg6, {f"p{i}": 2 for i in range(1, 11)})
        >>> proper_transform(seq, c).self_intersection()
        -4
    """
    return _class_of(seq, _proper(seq, c))


def configuration_from_classes(entries) -> CurveConfiguration:
    """Build a dual-graph configuration from named divisor classes.

    ``entries`` is a list of (id, DivisorClass, genus, mult) tuples.
    Self-intersections and pairwise intersection numbers come from the
    lattice; a positive pairing p between two ids becomes an edge with
    count p and tangency 1.
    """
    nodes, classes = [], []
    for nid, cls, genus, mult in entries:
        nodes.append(Node(nid, self_int=cls.self_intersection(), genus=genus, mult=mult))
        classes.append(cls)
    edges = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        a, b, p = nodes[i].id, nodes[j].id, pair(classes[i], classes[j])
        if p < 0:
            raise ValueError(f"classes {a},{b} pair negatively ({p}); not distinct curves")
        if p:
            edges.append(Edge(a, b, count=p))
    return CurveConfiguration(tuple(nodes), tuple(edges))
