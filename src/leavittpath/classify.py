"""Vertex-set classifiers.

Closed-simple-path classes, line points (P_l), cycles without exits (P_c),
extreme cycles (P_ec), P_b∞, properly infinite vertices (P_pi), P_ppi, the
P_ec′ / P_pec / P′ split, Conditions (K)/(L), P_(K), and P_ex.

A closed simple path based at v is a closed path that visits v exactly once
as a base (internal vertices may repeat).  csp_class reports |CSP(v)| as
Zero, One, or TwoPlus; exact counts above 2 are never needed.  The class is
constant on each strongly connected component, so it is decided once per
SCC of the graph's cached condensation, in O(n + m).  P_c and P_ec are the
terminal SCCs of class One and TwoPlus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closures import (
    breaking_capable,
    breaking_vertices,
    hs_closure,
    is_hereditary,
    is_saturated,
)
from .errors import InvariantViolation
from .graph import INFINITE_EMITTER, OMEGA, Graph, condense, per_graph, to_text

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
    internal = [0] * len(cond.sccs)
    for b in g.bundles:
        c = cond.scc_of[b.source]
        if c == cond.scc_of[b.target]:
            internal[c] += math.inf if b.mult is OMEGA else b.mult
    return tuple(
        CSP_ZERO if cond.trivial[i]
        else CSP_ONE if internal[i] == len(scc)
        else CSP_TWO_PLUS
        for i, scc in enumerate(cond.sccs)
    )


def _class_mask(g: Graph, csp: str, terminal: bool = False) -> int:
    """The vertices of CSP class ``csp``; with ``terminal``, those in
    terminal SCCs only."""
    cond = condense(g)
    mask = 0
    for c, cls in enumerate(_scc_csp_classes(g)):
        if cls == csp and (cond.terminal[c] or not terminal):
            mask |= cond.masks[c]
    return mask


def csp_class(g: Graph, v: str) -> str:
    """Classify the number of closed simple paths based at v (0 / 1 / >= 2)."""
    g.check_vertices((v,))
    return _scc_csp_classes(g)[condense(g).scc_of[v]]


def csp_classes(g: Graph) -> dict:
    """csp_class for every vertex."""
    scc_of = condense(g).scc_of
    classes = _scc_csp_classes(g)
    return {v: classes[scc_of[v]] for v in g.vertices}


def line_points(g: Graph) -> tuple[str, ...]:
    """Vertices whose tree contains no bifurcation and no cycle (P_l)."""
    on_cycle = ~_class_mask(g, CSP_ZERO)
    return g.set_of(~g.reaching(g.bifurcations | on_cycle))


def cycles_without_exits(g: Graph) -> tuple[str, ...]:
    """Vertices on cycles without exits (P_c): terminal SCCs of class One."""
    return g.set_of(_class_mask(g, CSP_ONE, terminal=True))


def extreme_cycles(g: Graph) -> tuple[str, ...]:
    """Vertices of extreme cycles (P_ec): terminal SCCs of class TwoPlus.

    A terminal SCC's out-edges all stay inside it, so every departing path
    returns, and TwoPlus means its cycles have exits.  The equivalence with
    the path-return definition is oracle-tested rather than assumed.
    """
    return g.set_of(_class_mask(g, CSP_TWO_PLUS, terminal=True))


def b_infinity(g: Graph) -> tuple[str, ...]:
    """Vertices whose tree contains an infinite emitter (P_b∞).

    With finitely many vertices the "infinitely many bifurcations" clause of
    the general definition cannot fire, so reaching an ω-bundle source is the
    whole criterion.
    """
    return g.set_of(g.reaching(g.kind_mask(INFINITE_EMITTER)))


@per_graph
def properly_infinite(g: Graph) -> tuple[str, ...]:
    """Properly infinite vertices: v lies in the closure of its TwoPlus tree.

    W_v = {w in T(v) : csp_class(w) = TwoPlus}; v is properly infinite iff
    v ∈ hs_closure(W_v).  Using the single maximal witness set is equivalent
    to the existential over finite subsets because the closure operator is
    monotone.
    """
    two_mask = _class_mask(g, CSP_TWO_PLUS)
    closures: dict[int, set] = {}
    result = []
    for v, reach in zip(g.vertices, g.reach_masks()):
        wmask = reach & two_mask
        if wmask not in closures:
            closures[wmask] = set(hs_closure(g, g.set_of(wmask)).members)
        if v in closures[wmask]:
            result.append(v)
    return tuple(result)


@per_graph
def p_ppi(g: Graph) -> tuple[str, ...]:
    """Vertices with a properly infinite, breaking-vertex-free tree (P_ppi).

    "Breaking-vertex-free" reads on the members of the tree: no vertex of
    T(v) may be a breaking vertex of any hereditary set.  (Testing whether
    the tree itself has breaking vertices outside it would wrongly evict
    extreme cycles that an external emitter pours into, and the P_ec ⊆ P_ppi
    containment would fail.)
    """
    bad = ~g.mask_of(properly_infinite(g)) | g.mask_of(breaking_capable(g))
    out = g.set_of(~g.reaching(bad))
    if not is_hereditary(g, out) or not is_saturated(g, out):
        raise InvariantViolation(
            f"P_ppi = {list(out)} is not hereditary+saturated",
            graph_text=to_text(g),
        )
    return out


def split_ppi(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The (P_ec′, P_pec, P′) split of P_ppi.

    P_ec′ = extreme-cycle vertices reachable from some vertex of
    P_ppi ∖ P_ec; P_pec = P_ec ∖ P_ec′; P′ = P_ppi ∖ P_pec.
    """
    ec = _class_mask(g, CSP_TWO_PLUS, terminal=True)
    ppi = g.mask_of(p_ppi(g))
    seen = g.tree_mask(ppi & ~ec)
    pec = ec & ~seen
    return g.set_of(ec & seen), g.set_of(pec), g.set_of(ppi & ~pec)


def condition_K(g: Graph) -> bool:
    """No vertex is the base of exactly one closed simple path."""
    return not _class_mask(g, CSP_ONE)


def condition_L(g: Graph) -> bool:
    """Every cycle has an exit."""
    return not cycles_without_exits(g)


def p_K(g: Graph) -> tuple[str, ...]:
    """Vertices whose whole tree is free of One-class vertices (P_(K))."""
    return g.set_of(~g.reaching(_class_mask(g, CSP_ONE)))


def p_ex(g: Graph) -> tuple[str, ...]:
    """Generators of the largest exchange ideal: P_(K) ∪ B_{P_(K)}."""
    core = p_K(g)
    return g.set_of(g.mask_of(core + breaking_vertices(g, core).members))


@dataclass(frozen=True)
class Classification:
    """All classifier outputs for one graph."""

    p_l: tuple[str, ...]
    p_c: tuple[str, ...]
    p_ec: tuple[str, ...]
    p_binf: tuple[str, ...]
    p_pi: tuple[str, ...]
    p_ppi: tuple[str, ...]
    p_ec_prime: tuple[str, ...]
    p_pec: tuple[str, ...]
    p_prime: tuple[str, ...]
    p_K: tuple[str, ...]
    p_ex: tuple[str, ...]
    condition_K: bool
    condition_L: bool


@per_graph
def classify(g: Graph) -> Classification:
    """Run every classifier and cross-check the structural invariants."""
    ec_prime, pec, prime = split_ppi(g)
    result = Classification(
        p_l=line_points(g),
        p_c=cycles_without_exits(g),
        p_ec=extreme_cycles(g),
        p_binf=b_infinity(g),
        p_pi=properly_infinite(g),
        p_ppi=p_ppi(g),
        p_ec_prime=ec_prime,
        p_pec=pec,
        p_prime=prime,
        p_K=p_K(g),
        p_ex=p_ex(g),
        condition_K=condition_K(g),
        condition_L=condition_L(g),
    )
    _check_classification(g, result)
    return result


def _check_classification(g: Graph, c: Classification) -> None:
    def fail(detail: str):
        raise InvariantViolation(detail, graph_text=to_text(g))

    pec, prime, ppi = set(c.p_pec), set(c.p_prime), set(c.p_ppi)
    if pec | prime != ppi or pec & prime:
        fail("P_pec and P' do not partition P_ppi")
    if not set(c.p_ec) <= set(c.p_pi):
        fail("P_ec is not contained in P_pi")
    if set(c.p_ec_prime) | pec != set(c.p_ec) or set(c.p_ec_prime) & pec:
        fail("P_ec' and P_pec do not partition P_ec")
    for a, b, name in (
        (c.p_l, c.p_c, "P_l/P_c"),
        (c.p_l, c.p_ec, "P_l/P_ec"),
        (c.p_c, c.p_ec, "P_c/P_ec"),
    ):
        if set(a) & set(b):
            fail(f"{name} are not disjoint")
    if c.condition_L != (not c.p_c):
        fail("Condition (L) disagrees with P_c")
    if c.condition_K != (set(c.p_K) == set(g.vertices)):
        fail("Condition (K) disagrees with P_(K)")
    if not is_hereditary(g, c.p_K) or not is_saturated(g, c.p_K):
        fail("P_(K) is not hereditary+saturated")
