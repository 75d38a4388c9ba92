"""Graded-ideal descriptors and the largest-ideal report.

A graded ideal of the path algebra is named by a pair (H, S): a hereditary
saturated vertex set H together with a set S of breaking vertices of H.
Containment of ideals is decided on the descriptor data.  The headline
report collects, for one graph, the generating vertex sets of the largest
semisimple, locally noetherian, purely infinite and exchange ideals, a
density certificate for the four-set union, and the decomposition of the
purely infinite part into simple and non-simple-indecomposable classes.
"""

from __future__ import annotations

from collections import namedtuple

from .classify import _classify_masks, classify
from .closures import breaking_vertices, density_witnesses, hs_closure
from .errors import GraphValidationError, InvariantViolation
from .graph import Graph, condense, per_graph, to_text


class GradedIdealDescriptor(namedtuple("GradedIdealDescriptor", "graph H S")):
    __slots__ = ()


def ideal_descriptor(g: Graph, X, S=()) -> GradedIdealDescriptor:
    """Canonical descriptor of the graded ideal generated by X and {v^H: v ∈ S}."""
    closure = hs_closure(g, X)
    allowed = set(breaking_vertices(g, closure).members)
    S = tuple(sorted(set(S)))
    stray = [v for v in S if v not in allowed]
    if stray:
        raise GraphValidationError(
            f"'{stray[0]}' is not a breaking vertex of the closure"
        )
    return GradedIdealDescriptor(g, closure.members, S)


def descriptor_leq(a: GradedIdealDescriptor, b: GradedIdealDescriptor) -> bool:
    """Ideal containment: a.H inside b.H and each a-breaking vertex absorbed by b."""
    if a.graph != b.graph:
        raise GraphValidationError("descriptors belong to different graphs")
    bh = set(b.H)
    if not set(a.H) <= bh:
        return False
    bs = set(b.S)
    return all(v in bs or v in bh for v in a.S)


def is_purely_infinite_ideal(g: Graph, d: GradedIdealDescriptor) -> bool:
    """True iff the ideal sits inside the largest purely infinite one.

    Breaking-vertex generators never qualify, so S must be empty.
    """
    if d.S:
        return False
    return set(d.H) <= set(classify(g).p_ppi)


PEC_LABEL = "PurelyInfiniteSimple"
PPRIME_LABEL = "PurelyInfiniteNonSimpleIndecomposable"


class CycleClass(
    namedtuple("CycleClass", "kind member_sccs class_vertices tree label")
):
    """One summand of the purely infinite part; ``kind`` is "Pec" or "Pprime"."""

    __slots__ = ()


@per_graph
def pi_decomposition(g: Graph) -> tuple[CycleClass, ...]:
    """Split the purely infinite part into direct summands (memoized).

    Each non-trivial terminal SCC inside P_pec is one simple class.  The
    non-trivial SCCs inside P′ are grouped by symmetrized reachability,
    closed transitively: two SCCs land together when a chain of
    one-way-connected SCCs joins them.  Working per SCC is sound because
    all cycles within one SCC are mutually connected.  The classes' trees
    must be pairwise disjoint; an overlap raises ``InvariantViolation``.
    """
    masks = _classify_masks(g)
    pec, prime = masks.p_pec, masks.p_prime
    cond = condense(g)
    reach = g.reach_masks()
    # (kind, member SCCs, vertex mask, tree mask) per class
    found: list[tuple[str, tuple[int, ...], int, int]] = []

    pec_cover = 0
    for i, mask in enumerate(cond.masks):
        if cond.internal[i] and not cond.dag[i] and not mask & ~pec:
            found.append(("Pec", (i,), mask, reach[i]))
            pec_cover |= mask
    if pec_cover != pec:
        raise InvariantViolation(
            "P_pec is not covered by its terminal cycle classes", to_text(g)
        )

    # (member SCCs, vertex mask, tree mask) per P′ class; each SCC merges
    # the classes it reaches or that reach it
    groups: list[tuple[tuple[int, ...], int, int]] = []
    for i, mask in enumerate(cond.masks):
        if not cond.internal[i] or mask & ~prime:
            continue
        sccs, tree = (i,), reach[i]
        for other in [o for o in groups if o[2] & mask or tree & o[1]]:
            groups.remove(other)
            sccs = tuple(sorted(other[0] + sccs))
            mask, tree = mask | other[1], tree | other[2]
        groups.append((sccs, mask, tree))
    # component ids follow the smallest member vertex, so sorting by member
    # SCCs orders the classes by their vertices
    found += [("Pprime", *group) for group in sorted(groups)]

    classes = []
    seen = 0
    for kind, sccs, mask, tree in found:
        if tree & seen:
            raise InvariantViolation(
                f"cycle-class trees overlap at '{g.set_of(tree & seen)[0]}'",
                to_text(g),
            )
        seen |= tree
        label = PEC_LABEL if kind == "Pec" else PPRIME_LABEL
        classes.append(CycleClass(kind, sccs, g.set_of(mask), g.set_of(tree), label))
    return tuple(classes)


class LargestIdealsReport(
    namedtuple(
        "LargestIdealsReport",
        "semisimple_gens loc_noetherian_gens loc_noetherian_no_min_idem_gens"
        " purely_infinite_gens exchange_gens dense_gens dense dense_witnesses"
        " pi_classes exchange_breaking notes",
    )
):
    __slots__ = ()


_FINITE_FRAGMENT_NOTE = (
    "infinite-emitter reachability read on the finite fragment: a truncation "
    "of a larger graph may classify vertices differently"
)


def largest_ideals_report(g: Graph) -> LargestIdealsReport:
    cls, masks = classify(g), _classify_masks(g)
    union = masks.p_l | masks.p_c | masks.p_ec | masks.p_binf
    witnesses = density_witnesses(g, union)
    dense = None not in witnesses
    if g.vertices and not dense:
        raise InvariantViolation(
            "four-set union failed the density check", to_text(g)
        )

    notes = []
    if cls.p_binf:
        notes.append(_FINITE_FRAGMENT_NOTE)
    for v, count in cls.exchange_breaking:
        if count == 0:
            notes.append(
                f"breaking vertex '{v}' emits no edges outside the closure; "
                "it participates with an empty finite sum"
            )

    return LargestIdealsReport(
        semisimple_gens=cls.p_l,
        loc_noetherian_gens=g.set_of(masks.p_l | masks.p_c),
        loc_noetherian_no_min_idem_gens=cls.p_c,
        purely_infinite_gens=cls.p_ppi,
        exchange_gens=cls.p_ex,
        dense_gens=g.set_of(union),
        dense=dense,
        dense_witnesses=dict(zip(g.vertices, witnesses)),
        pi_classes=pi_decomposition(g),
        exchange_breaking=cls.exchange_breaking,
        notes=tuple(notes),
    )
