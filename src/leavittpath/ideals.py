"""Graded-ideal descriptors and the largest-ideal report.

A graded ideal of the path algebra is named by a pair (H, S): a hereditary
saturated vertex set H together with a set S of breaking vertices of H.
Containment of ideals is decided on the descriptor data.  The headline
report collects, for one graph, the generating vertex sets of the largest
semisimple, locally noetherian, purely infinite and exchange ideals, a
density certificate for the four-set union, and the decomposition of the
purely infinite part into simple and non-simple-indecomposable classes.
"""

from . import _kernel
from .classify import _classify_masks, classify
from .closures import check_breaking, density_witnesses, hs_closure
from .errors import GraphValidationError, InvariantViolation
from .graph import Graph, _record, condense, per_graph


class GradedIdealDescriptor(_record("GradedIdealDescriptor", "graph H S")):
    __slots__ = ()


def ideal_descriptor(g: Graph, X, S=()) -> GradedIdealDescriptor:
    """Canonical descriptor of the graded ideal generated by X and {v^H: v ∈ S}."""
    S = tuple(sorted(set(S)))
    closure = hs_closure(g, X)
    check_breaking(g, closure, S)
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


PEC_LABEL = "PurelyInfiniteSimple"
PPRIME_LABEL = "PurelyInfiniteNonSimpleIndecomposable"


class CycleClass(
    _record("CycleClass", "kind member_sccs class_vertices tree label")
):
    """One summand of the purely infinite part; ``kind`` is "Pec" or "Pprime"."""

    __slots__ = ()


@per_graph
def pi_decomposition(g: Graph) -> tuple[CycleClass, ...]:
    """Split the purely infinite part into direct summands (memoized).

    Each non-trivial terminal SCC inside P_pec is one simple class, its own
    tree.  The non-trivial SCCs inside P′ (the seeds) are grouped by
    symmetrized reachability, closed transitively.  These classes are the
    weak components of U = T(seeds), and each component is its class's
    tree (docs/design-notes.md, "Cycle classes"), so the trees are disjoint
    by construction.  A P_pec vertex outside every simple class, or in U,
    raises ``InvariantViolation``.
    """
    masks = _classify_masks(g)
    pec, prime = masks.p_pec, masks.p_prime
    cond = condense(g)
    classes, pec_cover = [], 0
    for i, mask in enumerate(cond.masks):
        if cond.internal[i] and not cond.dag[i] and not mask & ~pec:
            vs = g.set_of(mask)  # a terminal SCC is its own tree
            classes.append(CycleClass("Pec", (i,), vs, vs, PEC_LABEL))
            pec_cover |= mask
    if pec_cover != pec:
        raise InvariantViolation(
            "P_pec is not covered by its terminal cycle classes", g
        )

    seeds = [i for i, m in enumerate(cond.masks) if cond.internal[i] and not m & ~prime]
    if not seeds:
        return tuple(classes)
    # walk U = T(seeds), seeds first, linking each DAG edge both ways
    u, links = list(seeds), [[] for _ in seeds]
    at = {c: j for j, c in enumerate(seeds)}
    for j, c in enumerate(u):
        for d in cond.dag[c]:
            if d not in at:
                at[d] = len(u)
                u.append(d)
                links.append([])
            links[j].append(at[d])
            links[at[d]].append(j)
    component = _kernel.scc_labels(links)[0]
    trees = [0] * len(u)
    for c, label in zip(u, component):
        trees[label] |= cond.masks[c]
    members: dict[int, list[int]] = {}  # in order of the smallest seed
    for c, label in zip(seeds, component):
        members.setdefault(label, []).append(c)
    covered = sum(trees)  # the trees are disjoint
    if covered & pec:
        raise InvariantViolation(
            f"cycle-class trees overlap at '{g.set_of(covered & pec)[0]}'", g
        )
    classes += [
        CycleClass(
            "Pprime", tuple(sccs), g.set_of(sum(cond.masks[c] for c in sccs)),
            g.set_of(trees[label]), PPRIME_LABEL,
        )
        for label, sccs in members.items()
    ]
    return tuple(classes)


class LargestIdealsReport(
    _record(
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
        raise InvariantViolation("four-set union failed the density check", g)

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
        notes=(_FINITE_FRAGMENT_NOTE,) if cls.p_binf else (),
    )
