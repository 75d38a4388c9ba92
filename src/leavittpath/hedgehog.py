"""Generalized hedgehog graphs.

Given a hereditary set H and a subset S of its breaking vertices, the
hedgehog graph has vertices H ∪ S ∪ F₁ ∪ F₂ where the F-sets are paths of
the original graph, each contributing a single bar-edge to its range:

* F₁(H,S): paths e₁…e_n with r(e_n) ∈ H, s(e_n) ∉ H ∪ S, and interior
  ranges r(e_i) ∉ H for i < n;
* F₂(H,S): paths e₁…e_n (n ≥ 1) with r(e_n) ∈ S and interior ranges
  r(e_i) ∉ S for i < n (interiors are automatically outside H).

Edges: every bundle sourced in H, every bundle from S into H (ω-bundles of
S-members always land in H, so they survive), plus one bar-edge per F-path
from its path-vertex to r(path).

A path is a sequence of edge *instances*; a finite bundle of multiplicity k
contributes k parallel instances, so multiplicities multiply the number of
F-paths and any admissible ω position makes an F-set infinite outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closures import breaking_vertices, is_hereditary
from .errors import GraphValidationError
from .graph import OMEGA, EdgeBundle, Graph, condense


@dataclass(frozen=True)
class HedgehogGraph:
    """Result of the hedgehog construction plus finiteness metadata."""

    base: Graph
    H: tuple[str, ...]
    S: tuple[str, ...]
    finite: bool
    truncated_at: int | None
    path_vertex_table: dict


def path_vertex_name(instances) -> str:
    return "p:" + ".".join(instances)


def _validate(g: Graph, H, S) -> tuple[set, set]:
    hset = set(H)
    if not is_hereditary(g, hset):
        raise GraphValidationError("H is not hereditary")
    sset = set(S)
    allowed = set(breaking_vertices(g, hset).members)
    bad = sset - allowed
    if bad:
        raise GraphValidationError(
            f"invalid S: {sorted(bad)} are not breaking vertices of H"
        )
    return hset, sset


def _route_bundles(g: Graph, hset: set, sset: set):
    """(mid, final) bundle lists for the two F-sets.

    Mid bundles extend a path without finishing it; final bundles are the
    admissible last edges.  Sources are outside H throughout (paths may
    start, and F₁ paths may pass through, S-members).
    """
    f1_final = [
        b
        for b in g.bundles
        if b.target in hset and b.source not in hset and b.source not in sset
    ]
    f1_mid = [
        b for b in g.bundles if b.source not in hset and b.target not in hset
    ]
    f2_final = [
        b for b in g.bundles if b.target in sset and b.source not in hset
    ]
    f2_mid = [
        b
        for b in g.bundles
        if b.source not in hset
        and b.target not in hset
        and b.target not in sset
    ]
    return (f1_mid, f1_final), (f2_mid, f2_final)


def _can_finish(g: Graph, mid, final) -> set:
    """Vertices from which some admissible final edge is reachable via mids."""
    route = Graph(g.vertices, mid)
    goal = route.mask_of({b.source for b in final})
    return {
        v for v, reach in zip(route.vertices, route.reach_masks()) if reach & goal
    }


def _f_set_is_finite(g: Graph, mid, final) -> bool:
    if any(b.mult is OMEGA for b in final):
        return False
    usable = _can_finish(g, mid, final)
    # A mid bundle into a usable vertex starts at a usable vertex too.
    route = [b for b in mid if b.target in usable]
    if any(b.mult is OMEGA for b in route):
        return False
    # A cycle among usable route vertices pumps arbitrarily long paths.
    return all(condense(Graph(usable, route)).trivial)


def hedgehog_is_finite(g: Graph, H, S) -> bool:
    """Can the full hedgehog be materialized (finitely many F-paths)?"""
    hset, sset = _validate(g, H, S)
    (f1_mid, f1_final), (f2_mid, f2_final) = _route_bundles(g, hset, sset)
    return _f_set_is_finite(g, f1_mid, f1_final) and _f_set_is_finite(
        g, f2_mid, f2_final
    )


def _enumerate_paths(g: Graph, mid, final, depth_limit) -> list[tuple[str, ...]]:
    """All admissible F-paths as instance-id tuples (ω-free, depth-capped).

    Deterministic order: starts sorted, bundles by id, instances by index.
    """
    mid = [b for b in mid if b.mult is not OMEGA]
    final = [b for b in final if b.mult is not OMEGA]
    usable = _can_finish(g, mid, final)
    mid_from: dict[str, list[EdgeBundle]] = {}
    for b in sorted(mid, key=lambda b: b.id):
        if b.source in usable and b.target in usable:
            mid_from.setdefault(b.source, []).append(b)
    final_from: dict[str, list[EdgeBundle]] = {}
    for b in sorted(final, key=lambda b: b.id):
        final_from.setdefault(b.source, []).append(b)
    out: list[tuple[str, ...]] = []

    def visit(u: str, prefix: list[str]):
        """Emit ``prefix`` plus each final instance leaving u; return the
        (instance, target) mid steps that extend ``prefix`` from u."""
        if depth_limit is not None and len(prefix) >= depth_limit:
            return iter(())
        for b in final_from.get(u, ()):
            for inst in b.instances:
                out.append((*prefix, inst))
        return iter(
            [(inst, b.target) for b in mid_from.get(u, ()) for inst in b.instances]
        )

    # Depth-first with an explicit stack, so long paths need no recursion;
    # stack[k] holds the remaining steps after prefix[:k].
    for u in sorted(usable):
        prefix: list[str] = []
        stack = [visit(u, prefix)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if prefix:
                    prefix.pop()
                continue
            inst, target = step
            prefix.append(inst)
            stack.append(visit(target, prefix))
    return out


def build_hedgehog(g: Graph, H, S, depth_limit: int = 6) -> HedgehogGraph:
    """Construct the hedgehog graph, exactly when finite, truncated otherwise.

    When the F-path sets are infinite, all ω-free F-paths of length up to
    ``depth_limit`` are materialized and ``truncated_at`` records the cap.
    """
    if depth_limit < 1:
        raise GraphValidationError("depth_limit must be >= 1")
    hset, sset = _validate(g, H, S)
    (f1_mid, f1_final), (f2_mid, f2_final) = _route_bundles(g, hset, sset)
    finite = _f_set_is_finite(g, f1_mid, f1_final) and _f_set_is_finite(
        g, f2_mid, f2_final
    )
    cap = None if finite else depth_limit
    paths = _enumerate_paths(g, f1_mid, f1_final, cap) + _enumerate_paths(
        g, f2_mid, f2_final, cap
    )
    table = {path_vertex_name(p): p for p in paths}
    vertices = sorted(hset | sset | set(table))
    bundles = [b for b in g.bundles if b.source in hset]
    bundles += [
        b for b in g.bundles if b.source in sset and b.target in hset
    ]
    for name, p in sorted(table.items()):
        last_bundle = g.bundle(p[-1].split("[", 1)[0])
        bundles.append(
            EdgeBundle("bar:" + name[2:], name, last_bundle.target, 1)
        )
    return HedgehogGraph(
        base=Graph(vertices, bundles),
        H=tuple(sorted(hset)),
        S=tuple(sorted(sset)),
        finite=finite,
        truncated_at=None if finite else depth_limit,
        path_vertex_table=table,
    )
