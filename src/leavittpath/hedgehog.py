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
Each F-set is listed shortest first, by the walk that counts it, and
``path_vertex_table`` keeps that order, F₁ before F₂; the bar edges are
sorted by name.
"""

from .closures import check_breaking
from .errors import GraphValidationError
from .graph import OMEGA, EdgeBundle, Graph, _record, condense


# The F-paths are listed one by one; a hedgehog whose paths hold more edges
# than this in all is refused before any is listed.
MAX_PATH_EDGES = 1_000_000


class HedgehogGraph(
    _record(
        "HedgehogGraph", "base H S finite truncated_at path_vertex_table"
    )
):
    """Result of the hedgehog construction plus finiteness metadata."""

    __slots__ = ()


def path_vertex_name(instances) -> str:
    return "p:" + ".".join(instances)


def _route_bundles(g: Graph, hset: set, sset: set):
    """(mid, final) bundle lists for the two F-sets.

    Mid bundles extend a path without finishing it; final bundles are the
    admissible last edges.  Sources are outside H throughout (paths may
    start, and F₁ paths may pass through, S-members).
    """
    outside = [b for b in g.bundles if b.source not in hset]
    f1_mid = [b for b in outside if b.target not in hset]
    f1_final = [b for b in outside if b.target in hset and b.source not in sset]
    f2_mid = [b for b in f1_mid if b.target not in sset]
    f2_final = [b for b in outside if b.target in sset]
    return (f1_mid, f1_final), (f2_mid, f2_final)


def _route_table(g: Graph, mid, final):
    """(finite, mid bundles by target, final bundles by source).

    Usable vertices reach a final bundle along ω-free mids; the lists leave
    ω out and keep the bundle-id order.  The F-set is infinite when a final,
    or a mid into a usable vertex, has multiplicity ω (a route through ω has
    a last ω-bundle, and it lands on a usable vertex), or when usable
    vertices lie on a cycle.
    """
    free_mid = [b for b in mid if b.mult is not OMEGA]
    free_final = [b for b in final if b.mult is not OMEGA]
    route = Graph(g.vertices, free_mid)
    usable_mask = route.reaching(route.mask_of(b.source for b in free_final))
    usable = set(route.set_of(usable_mask))
    mid_into: dict[str, list[EdgeBundle]] = {}
    for b in free_mid:
        mid_into.setdefault(b.target, []).append(b)
    final_from: dict[str, list[EdgeBundle]] = {}
    for b in free_final:
        final_from.setdefault(b.source, []).append(b)
    cond = condense(route)
    finite = (
        len(free_final) == len(final)
        and not any(b.mult is OMEGA and b.target in usable for b in mid)
        and not any(
            mask & usable_mask and k for mask, k in zip(cond.masks, cond.internal)
        )
    )
    return finite, mid_into, final_from


def _count_paths(route, depth_limit) -> tuple[int, int]:
    """Number and total length of the F-paths ``_list_paths`` lists.

    ``level`` counts the paths of length k by start vertex.  A path's suffix
    is a path, so once no path has length k none is longer; until then each
    k adds k edges or more, so counting soon passes MAX_PATH_EDGES and stops
    there (the totals are then lower bounds).
    """
    _, mid_into, final_from = route
    level = {v: sum(b.mult for b in bs) for v, bs in final_from.items()}
    paths = edges = k = 0
    while level and edges <= MAX_PATH_EDGES and k != depth_limit:
        k += 1
        count = sum(level.values())
        paths, edges = paths + count, edges + k * count
        below: dict[str, int] = {}
        for t, n in level.items():
            for b in mid_into.get(t, ()):
                below[b.source] = below.get(b.source, 0) + b.mult * n
        level = below
    return paths, edges


def _list_paths(route, depth_limit) -> list[tuple[tuple[str, ...], str]]:
    """The F-paths ``_count_paths`` counts, as (instance-id tuple, range)
    pairs, shortest first: ``level`` holds the paths of length k by start
    vertex, and each mid instance into a start prefixes every one of them.
    """
    _, mid_into, final_from = route
    level = {
        v: [((i,), b.target) for b in bs for i in b.instances]
        for v, bs in final_from.items()
    }
    out = []
    k = 0
    while level and k != depth_limit:
        k += 1
        below: dict[str, list] = {}
        for t, paths in level.items():
            out += paths
            for b in mid_into.get(t, ()):
                longer = below.setdefault(b.source, [])
                for i in b.instances:
                    longer += [((i,) + p, r) for p, r in paths]
        level = below
    return out


def build_hedgehog(g: Graph, H, S, depth_limit: int = 6) -> HedgehogGraph:
    """Construct the hedgehog graph, exactly when finite, truncated otherwise.

    When the F-path sets are infinite, all ω-free F-paths of length up to
    ``depth_limit`` are materialized and ``truncated_at`` records the cap.
    Two F-paths, or an F-path and a vertex of H ∪ S, that would get one
    vertex name are refused.
    """
    if depth_limit < 1:
        raise GraphValidationError("depth_limit must be >= 1")
    hset, sset = set(H), set(S)
    check_breaking(g, hset, sset)
    routes = [
        _route_table(g, mid, final) for mid, final in _route_bundles(g, hset, sset)
    ]
    finite = all(route[0] for route in routes)
    cap = None if finite else depth_limit
    counts = [_count_paths(route, cap) for route in routes]
    edges = sum(e for _, e in counts)
    if edges > MAX_PATH_EDGES:
        raise GraphValidationError(
            f"the hedgehog has at least {sum(n for n, _ in counts)} F-paths "
            f"with at least {edges} edges in all; at most {MAX_PATH_EDGES} "
            "edges are listed"
        )
    found = [path for route in routes for path in _list_paths(route, cap)]
    paths = {path_vertex_name(p): (p, target) for p, target in found}
    taken = hset | sset
    if len(paths) < len(found) or not taken.isdisjoint(paths):
        # the first name taken twice; set.add returns None
        names = (path_vertex_name(p) for p, _ in found)
        name = next(n for n in names if n in taken or taken.add(n))
        raise GraphValidationError(f"two hedgehog vertices share the name '{name}'")
    table = {name: p for name, (p, _) in paths.items()}
    vertices = sorted(taken.union(table))
    bundles = [b for b in g.bundles if b.source in hset]
    bundles += [
        b for b in g.bundles if b.source in sset and b.target in hset
    ]
    for name, (_, target) in sorted(paths.items()):
        bundles.append(EdgeBundle("bar:" + name[2:], name, target, 1))
    return HedgehogGraph(
        base=Graph(vertices, bundles),
        H=tuple(sorted(hset)),
        S=tuple(sorted(sset)),
        finite=finite,
        truncated_at=None if finite else depth_limit,
        path_vertex_table=table,
    )
