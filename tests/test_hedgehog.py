import itertools
import random

import pytest

from leavittpath import (
    EdgeBundle,
    Graph,
    GraphValidationError,
    breaking_vertices,
    build_hedgehog,
    parse_graph,
    to_dot,
    to_text,
)
from leavittpath.oracles import hereditary_sets
from leavittpath.random_graphs import _graph_from_code

from conftest import fixture_graph, omega_sweep_codes


def test_finite_hedgehog_line():
    g = fixture_graph("line3")
    hh = build_hedgehog(g, ("v3",), ())
    assert hh.finite
    assert hh.truncated_at is None
    # F-paths into {v3}: e2 and e1.e2
    assert sorted(hh.path_vertex_table) == ["p:e1.e2", "p:e2"]
    assert set(hh.base.vertices) == {"v3", "p:e1.e2", "p:e2"}
    bar = {b.id: b for b in hh.base.bundles}
    assert bar["bar:e2"].source == "p:e2"
    assert bar["bar:e2"].target == "v3"
    assert bar["bar:e1.e2"].source == "p:e1.e2"


def test_path_instances_multiply():
    g = parse_graph("vertices a b\nedge e a b x2\nedge l b b\n")
    hh = build_hedgehog(g, ("b",), ())
    assert hh.finite
    assert sorted(hh.path_vertex_table) == ["p:e[1]", "p:e[2]"]
    # H's internal structure is carried over
    assert any(b.id == "l" for b in hh.base.bundles)


def test_hedgehog_of_a_hedgehog_reads_bracketed_bar_edges():
    # the base's bar edges are named bar:e[1] and bar:e[2]: each path's range
    # comes with the path, not from its last id cut at "["
    g = parse_graph("vertices u h\nedge e u h x2\nedge l h h x2\n")
    base = build_hedgehog(g, ("h",), ()).base
    hh = build_hedgehog(base, ("h",), ())
    assert hh.finite
    assert hh.path_vertex_table == {
        "p:bar:e[1]": ("bar:e[1]",),
        "p:bar:e[2]": ("bar:e[2]",),
    }
    bar = {b.id: b for b in hh.base.bundles}
    assert sorted(bar) == ["bar:bar:e[1]", "bar:bar:e[2]", "l"]
    assert bar["bar:bar:e[1]"].source == "p:bar:e[1]"
    assert bar["bar:bar:e[1]"].target == "h"


def test_infinite_hedgehog_is_truncated():
    g = fixture_graph("chain3sink")
    hh = build_hedgehog(g, ("v2", "v3"), (), depth_limit=3)
    assert not hh.finite
    assert hh.truncated_at == 3
    assert all(len(p) <= 3 for p in hh.path_vertex_table.values())
    # the loop at v1 pumps f1-paths forever
    assert "p:f1" in hh.path_vertex_table
    assert "p:a1.f1" in hh.path_vertex_table


def test_hedgehog_finiteness_predicate():
    assert build_hedgehog(fixture_graph("line4"), ("v4",), ()).finite
    g = fixture_graph("chain3sink")
    assert not build_hedgehog(g, ("v2", "v3"), (), depth_limit=1).finite


def test_route_through_two_cycle_is_infinite():
    # a <-> b pumps F1 paths a.b.a...g into H = {h}
    g = parse_graph(
        "vertices a b h\nedge e a b\nedge f b a\nedge g a h\nedge l h h\n"
    )
    assert not build_hedgehog(g, ("h",), (), depth_limit=1).finite


def test_diamond_route_is_finite():
    # two routes s -> a|b -> t meet again at t without closing a cycle
    g = parse_graph(
        "vertices s a b t h\n"
        "edge e1 s a\nedge e2 s b\nedge e3 a t\nedge e4 b t\nedge f t h\n"
    )
    hh = build_hedgehog(g, ("h",), ())
    assert hh.finite
    assert sorted(hh.path_vertex_table) == [
        "p:e1.e3.f", "p:e2.e4.f", "p:e3.f", "p:e4.f", "p:f",
    ]


def test_omega_final_edge_makes_f_infinite():
    g = fixture_graph("omega-h")
    hh = build_hedgehog(g, ("h",), (), depth_limit=2)
    assert not hh.finite


def test_omega_mid_edge_makes_f_infinite():
    # infinitely many edges a -> b, each continuing with f into H = {h}
    g = parse_graph(
        "vertices a b h\nbundle m a b omega\nedge f b h\nedge l h h\n"
    )
    hh = build_hedgehog(g, ("h",), ())
    assert not hh.finite
    assert sorted(hh.path_vertex_table) == ["p:f"]


def test_breaking_vertex_in_s_keeps_omega_bundle():
    g = fixture_graph("omega-h")
    hh = build_hedgehog(g, ("h", "x"), ("u",))
    # u's omega bundle lands in H so it survives into the hedgehog
    assert hh.finite  # 0 outside edges for u, no other routes
    m = [b for b in hh.base.bundles if b.id == "m"]
    assert len(m) == 1 and m[0].is_omega
    assert "u" in hh.base.vertices


def test_f2_paths_end_in_s():
    # w -> u with u breaking for H = {h}: F2 paths end at u itself
    g = parse_graph(
        "vertices w u h x\n"
        "edge d w u\n"
        "bundle m u h omega\nedge f u x\n"
        "edge h1 h h\nedge h2 h h\n"
    )
    hh = build_hedgehog(g, ("h",), ("u",))
    assert "p:d" in hh.path_vertex_table
    bar = {b.id: b for b in hh.base.bundles}
    assert bar["bar:d"].target == "u"


def test_hedgehog_validation():
    g = fixture_graph("chain3sink")
    with pytest.raises(GraphValidationError):
        build_hedgehog(g, ("v1",), ())  # not hereditary
    with pytest.raises(GraphValidationError):
        build_hedgehog(g, ("v3",), ("v1",))  # v1 is not a breaking vertex
    with pytest.raises(GraphValidationError):
        build_hedgehog(g, ("v3",), (), depth_limit=0)


def test_two_f_paths_sharing_a_name_are_refused():
    # the one-edge path x.y and the two-edge path x then y are both p:x.y
    g = Graph(["a", "b", "c"], [
        EdgeBundle("x.y", "a", "c"), EdgeBundle("x", "a", "b"),
        EdgeBundle("y", "b", "c"), EdgeBundle("l", "c", "c", 2),
    ])
    with pytest.raises(GraphValidationError, match=r"share the name 'p:x\.y'"):
        build_hedgehog(g, ("c",), ())


def test_a_path_vertex_named_as_a_vertex_of_h_is_refused():
    # the path e would be the vertex p:e, which H already holds
    g = Graph(["p:e", "a"], [EdgeBundle("e", "a", "p:e")])
    with pytest.raises(GraphValidationError, match="share the name 'p:e'"):
        build_hedgehog(g, ("p:e",), ())


def test_hedgehog_dot_export_quotes_path_vertices():
    g = fixture_graph("line3")
    hh = build_hedgehog(g, ("v3",), ())
    dot = to_dot(hh.base)
    assert '"p:e1.e2"' in dot


def test_long_chain_paths_need_no_recursion():
    # one F1 path from each chain vertex into H = {h}; longer than the
    # interpreter's default recursion limit
    n = 1100
    text = f"vertices h {' '.join(f'v{i}' for i in range(n))}\n" + "".join(
        f"edge e{i} v{i} {f'v{i + 1}' if i + 1 < n else 'h'}\n" for i in range(n)
    )
    hh = build_hedgehog(parse_graph(text), ("h",), ())
    assert hh.finite
    assert len(hh.path_vertex_table) == n
    assert max(map(len, hh.path_vertex_table.values())) == n


@pytest.mark.parametrize(
    "text, H, count",
    [
        # 10^12 parallel edges into H = {b}
        ("vertices a b\nedge e a b x1000000000000\nedge l b b x2\n", "b",
         10**12),
        # 3000 * 3000 two-edge paths a -> b -> c, plus 3000 from b
        ("vertices a b c\nedge e a b x3000\nedge f b c x3000\nedge l c c x2\n",
         "c", 9003000),
    ],
)
def test_oversized_hedgehog_is_refused_before_listing(text, H, count):
    g = parse_graph(text)
    with pytest.raises(GraphValidationError, match=f"at least {count} F-paths"):
        build_hedgehog(g, (H,), ())


def test_deep_truncation_is_refused():
    # the loop at a gives one F1 path of each length
    g = parse_graph("vertices a h\nedge l a a\nedge f a h\nedge m h h\n")
    hh = build_hedgehog(g, ("h",), (), depth_limit=1000)
    assert len(hh.path_vertex_table) == 1000
    with pytest.raises(GraphValidationError, match="at most 1000000 edges"):
        build_hedgehog(g, ("h",), (), depth_limit=10**9)


def _instance_paths(g, length):
    """Every edge-instance path of 1 to ``length`` edges, as a tuple of
    (instance, source, range) steps; an ω-bundle is one instance, None."""
    steps = [
        (inst, b.source, b.target)
        for b in g.bundles
        for inst in ((None,) if b.is_omega else b.instances)
    ]
    level = [(step,) for step in steps]
    out = list(level)
    for _ in range(length - 1):
        level = [p + (s,) for p in level for s in steps if s[1] == p[-1][2]]
        out += level
    return out


def _is_f_path(path, H, S):
    """F₁ or F₂ membership, as the module docstring defines them."""
    *inner, last = [r for _, _, r in path]
    if last in H:
        return path[-1][1] not in H | S and H.isdisjoint(inner)
    return last in S and S.isdisjoint(inner)


def test_f_paths_match_their_definition():
    depth = 3
    codes = list(omega_sweep_codes())
    sample = [c for c in codes if c[0] < 3]
    sample += random.Random(26).sample([c for c in codes if c[0] == 3], 150)
    for n, code in sample:
        g = _graph_from_code(n, code)
        # a path longer than n repeats a vertex, and its suffix of n + 1
        # edges is an F-path as well
        every = _instance_paths(g, max(depth, n + 1))
        for H in hereditary_sets(g):
            B = breaking_vertices(g, H).members
            for S in itertools.chain.from_iterable(
                itertools.combinations(B, k) for k in range(len(B) + 1)
            ):
                f = [
                    (tuple(i for i, _, _ in p), p[-1][2])
                    for p in every
                    if _is_f_path(p, H, set(S))
                ]
                finite = all(len(ids) <= n and None not in ids for ids, _ in f)
                listed = {
                    ".".join(ids): (ids, r)
                    for ids, r in f
                    if None not in ids and (finite or len(ids) <= depth)
                }
                hh = build_hedgehog(g, H, S, depth)
                where = (to_text(g), sorted(H), S)
                assert hh.finite == finite, where
                assert hh.truncated_at == (None if finite else depth), where
                assert hh.path_vertex_table == {
                    "p:" + name: ids for name, (ids, _) in listed.items()
                }, where
                assert {
                    b.id: (b.source, b.target)
                    for b in hh.base.bundles
                    if b.id.startswith("bar:")
                } == {
                    "bar:" + name: ("p:" + name, r)
                    for name, (_, r) in listed.items()
                }, where
