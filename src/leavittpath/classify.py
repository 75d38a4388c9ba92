"""Vertex-set classifiers.

Closed-simple-path classes (``csp_class``), and one ``classify(g)`` whose
fields are the line points (P_l), cycles without exits (P_c), extreme
cycles (P_ec), P_b∞, properly infinite vertices (P_pi), P_ppi, the
P_ec′ / P_pec / P′ split, Conditions (K)/(L), P_(K), and P_ex.

A closed simple path based at v is a closed path that visits v exactly once
as a base (internal vertices may repeat).  csp_class reports |CSP(v)| as
Zero, One, or TwoPlus; exact counts above 2 are never needed.  The class is
constant on each strongly connected component, so it is decided once per
SCC of the graph's cached condensation, in O(n + m).  P_c and P_ec are the
terminal SCCs of class One and TwoPlus.
"""

from . import _kernel
from .closures import breaking_capable_mask, breaking_counts, hs_closure
from .errors import InvariantViolation
from .graph import INFINITE_EMITTER, SINK, Graph, _record, condense, per_graph

CSP_ZERO = "Zero"
CSP_ONE = "One"
CSP_TWO_PLUS = "TwoPlus"


@per_graph
def _scc_csp_classes(g: Graph) -> tuple[str, ...]:
    """CSP class of each SCC of condense(g), by component id (memoized).

    Every closed path based at v stays inside v's SCC.  A trivial SCC has
    none (Zero).  A non-trivial SCC whose internal edge instances number
    exactly its vertices, with no ω, is one bare cycle (One).  Otherwise
    some internal edge e lies off a cycle C through v, and the shortest
    path v -> s(e), then e, then the shortest path r(e) -> v, is a second
    closed simple path (TwoPlus).
    """
    cond = condense(g)
    return tuple(
        CSP_ZERO if not k else CSP_ONE if k == m.bit_count() else CSP_TWO_PLUS
        for k, m in zip(cond.internal, cond.masks)
    )


def _class_mask(g: Graph, csp: str, terminal: bool = False) -> int:
    """The vertices of CSP class ``csp``; with ``terminal``, those in
    terminal SCCs only."""
    cond = condense(g)
    mask = 0
    for c, cls in enumerate(_scc_csp_classes(g)):
        if cls == csp and not (terminal and cond.dag[c]):
            mask |= cond.masks[c]
    return mask


def csp_class(g: Graph, v: str) -> str:
    """Classify the number of closed simple paths based at v (0 / 1 / >= 2)."""
    return _scc_csp_classes(g)[condense(g).scc_of[g.index(v)]]


def csp_classes(g: Graph) -> dict:
    """csp_class for every vertex."""
    classes = _scc_csp_classes(g)
    return dict(zip(g.vertices, map(classes.__getitem__, condense(g).scc_of)))


def properly_infinite_mask(g: Graph) -> int:
    """Properly infinite vertices: v lies in the closure of its TwoPlus tree.

    W_v = {w in T(v) : csp_class(w) = TwoPlus}; v is properly infinite iff
    v ∈ hs_closure(W_v), with no closure run: v lies in the saturation of
    the hereditary set H = T(W_v) exactly when every sink, infinite
    emitter and cycle vertex of T(v) lies in H (docs/design-notes.md,
    "Hereditary saturated closures").  Every TwoPlus vertex of T(v) is in
    H, so only the One-class cycle vertices are tested.  T(v) is constant
    on an SCC, so the test runs once per SCC, and H of an SCC is the union
    of the trees of the TwoPlus SCCs it reaches: one pass over the DAG.
    """
    cond = condense(g)
    reach = g.reach_masks()
    held = cond.reach_union([
        tree if cls == CSP_TWO_PLUS else 0
        for tree, cls in zip(reach, _scc_csp_classes(g))
    ])
    bad = g.kind_mask(SINK) | g.kind_mask(INFINITE_EMITTER) | _class_mask(g, CSP_ONE)
    found = 0
    for m, tree, h in zip(cond.masks, reach, held):
        if not tree & bad & ~h:
            found |= m
    return found


def properly_infinite(g: Graph) -> tuple[str, ...]:
    """Properly infinite vertices: ``properly_infinite_mask`` named."""
    return g.set_of(properly_infinite_mask(g))


class Classification(
    _record(
        "Classification",
        "p_l p_c p_ec p_binf p_pi p_ppi p_ec_prime p_pec p_prime p_K p_ex"
        " condition_K condition_L exchange_breaking",
    )
):
    """All classifier outputs for one graph.

    Each ``p_*`` field is a sorted tuple of vertex ids; ``condition_K`` and
    ``condition_L`` are booleans; ``exchange_breaking`` is B_{P_(K)}, a
    (vertex, number of its edges leaving P_(K)) pair per member.  The
    private ``_classify_masks`` holds the same record on the integer view:
    vertex masks, and vertex indices in ``exchange_breaking``.
    """

    __slots__ = ()


@per_graph
def _classify_masks(g: Graph) -> Classification:
    """Every classifier set as one pipeline of masks, certified.

    docs/design-notes.md ("Vertex classifiers") gives the reading of each
    set and why these four checks are all the certification needs.  Each
    raises ``InvariantViolation`` on ``g``.
    """
    full = (1 << len(g.vertices)) - 1
    one = _class_mask(g, CSP_ONE)
    two = _class_mask(g, CSP_TWO_PLUS)
    p_c = _class_mask(g, CSP_ONE, terminal=True)
    p_ec = _class_mask(g, CSP_TWO_PLUS, terminal=True)
    p_l = full & ~g.reaching(g.bifurcations | one | two)
    p_binf = g.reaching(g.kind_mask(INFINITE_EMITTER))
    p_pi = properly_infinite_mask(g)
    # capability is read on the members of T(v): asking for breaking vertices
    # of T(v) itself would evict extreme cycles an outside emitter pours into
    p_ppi = full & ~g.reaching(~p_pi | breaking_capable_mask(g))
    seen = g.tree_mask(p_ppi & ~p_ec)
    p_ec_prime, p_pec = p_ec & seen, p_ec & ~seen
    p_prime = p_ppi & ~p_pec
    p_K = full & ~g.reaching(one)
    breaking = breaking_counts(g, p_K)
    p_ex = p_K | _kernel.members_mask([i for i, _ in breaking])
    cond_K = not one
    # a cycle without exits is a non-trivial SCC with no bifurcation
    cond = condense(g)
    cond_L = all(not k or m & g.bifurcations for k, m in zip(cond.internal, cond.masks))

    if p_ec & ~p_ppi:
        raise InvariantViolation("P_ec is not contained in P_ppi", g)
    # a set is hereditary and saturated exactly when it is its own closure
    for name, mask in (("P_ppi", p_ppi), ("P_(K)", p_K)):
        members = g.set_of(mask)
        if hs_closure(g, members).members != members:
            raise InvariantViolation(
                f"{name} = {list(members)} is not hereditary+saturated", g
            )
    if p_l & p_c or p_l & p_ec or p_c & p_ec:
        raise InvariantViolation("P_l, P_c and P_ec are not pairwise disjoint", g)
    if cond_L != (not p_c):
        raise InvariantViolation("Condition (L) disagrees with P_c", g)
    if cond_K != (p_K == full):
        raise InvariantViolation("Condition (K) disagrees with P_(K)", g)

    return Classification(
        p_l, p_c, p_ec, p_binf, p_pi, p_ppi, p_ec_prime, p_pec, p_prime, p_K,
        p_ex, condition_K=cond_K, condition_L=cond_L, exchange_breaking=breaking,
    )


@per_graph
def classify(g: Graph) -> Classification:
    """Every classifier set of ``_classify_masks`` named, certified on the
    masks first."""
    *masks, cond_K, cond_L, breaking = _classify_masks(g)
    name = g.vertices.__getitem__
    return Classification(
        *map(g.set_of, masks),
        condition_K=cond_K,
        condition_L=cond_L,
        exchange_breaking=tuple((name(i), count) for i, count in breaking),
    )
