import random

import pytest

from leavittpath import (
    GraphValidationError,
    breaking_capable,
    breaking_vertices,
    build_hedgehog,
    csp_class,
    density_check,
    hs_closure,
    ideal_descriptor,
    parse_graph,
    saturate_once,
    to_text,
    v_H_element,
)

from leavittpath import cli
from leavittpath.random_graphs import random_graphs

from conftest import fixture_graph, fixture_path


def test_hereditary_and_saturated_predicates():
    # a set is hereditary when it is its own tree, and hereditary and
    # saturated when it is its own closure
    g = fixture_graph("chain3sink")
    held = g.mask_of(("v2", "v3"))
    assert g.tree_mask(held) == held
    assert g.tree_mask(g.mask_of(("v1",))) != g.mask_of(("v1",))
    assert hs_closure(g, ("v2", "v3")).members == ("v2", "v3")
    # v1's targets v1,v2,v4 — {v2,v3,v4} misses v1 only because v1->v1
    assert hs_closure(g, ("v2", "v3", "v4")).members == ("v2", "v3", "v4")


def test_closure_of_empty_and_full():
    g = fixture_graph("six")
    assert hs_closure(g, ()).members == ()
    assert hs_closure(g, g.vertices).members == g.vertices


def test_closure_tree_step():
    g = fixture_graph("chain3sink")
    r = hs_closure(g, ("v1",))
    assert r.members == ("v1", "v2", "v3", "v4")
    assert r.is_hereditary and r.is_saturated


def test_closure_saturation_step():
    # v emits only to h; saturation pulls v in once h is there
    g = parse_graph("vertices v h\nedge e v h\nedge l h h\n")
    r = hs_closure(g, ("h",))
    assert r.members == ("h", "v")
    assert r.rounds >= 1


def test_closure_alternates_until_fixpoint():
    # saturating u (-> w1,w2) exposes nothing until both sinks join;
    # tree step after saturation has to re-run
    g = parse_graph(
        "vertices a b c d\n"
        "edge e1 a b\nedge e2 b c\nedge e3 c d\n"
    )
    r = hs_closure(g, ("a",))
    assert r.members == ("a", "b", "c", "d")


def test_closure_does_not_saturate_infinite_emitters():
    g = fixture_graph("omega-h")
    # u's omega bundle lands in {h}; u emits f to x as well.
    r = hs_closure(g, ("h", "x"))
    assert r.members == ("h", "x")  # u stays out: infinite emitters never saturate in


def test_saturate_once_only_regular():
    g = fixture_graph("omega-h")
    assert saturate_once(g, ("h", "x")) == ("h", "x")


def test_closure_rejects_unknown_vertex():
    g = fixture_graph("line2")
    with pytest.raises(GraphValidationError):
        hs_closure(g, ("nope",))


def test_breaking_vertices_zero_outside_counts():
    g = fixture_graph("omega-h")
    b = breaking_vertices(g, ("h", "x"))
    assert b.members == ("u",)
    assert b.outside_counts["u"] == 0

    b2 = breaking_vertices(g, ("h",))
    assert b2.members == ("u",)
    assert b2.outside_counts["u"] == 1


def test_breaking_vertices_require_infinitely_into_h():
    g = parse_graph(
        "vertices u h x\nbundle m u x omega\nedge f u h\nedge l h h\n"
    )
    # omega bundle lands outside H -> u is not breaking for H={h}
    assert breaking_vertices(g, ("h",)).members == ()


def test_breaking_vertices_member_of_h_excluded():
    g = fixture_graph("omega-h")
    assert breaking_vertices(g, ("h", "u", "x")).members == ()


def test_breaking_capable():
    assert breaking_capable(fixture_graph("omega-h")) == ("u",)
    assert breaking_capable(fixture_graph("six")) == ()
    # u's omega bundle reaches back to u: no hereditary set can separate them
    g = parse_graph("vertices u w\nbundle m u w omega\nedge e w u\nedge f u w\n")
    assert breaking_capable(g) == ()
    # no finite escape: every finite bundle lands in the omega-target tree
    g2 = parse_graph("vertices u h\nbundle m u h omega\nedge f u h\nedge l h h\n")
    assert breaking_capable(g2) == ()


def test_density_check_witnesses():
    g = fixture_graph("chain3sink")
    r = density_check(g, ("v3", "v4"))
    assert r.dense
    assert r.witnesses["v3"] == ()
    assert r.witnesses["v2"] == ("f2",)
    first = r.witnesses["v1"]
    assert first in (("f1",), ("g",))

    r2 = density_check(g, ("v4",))
    assert not r2.dense  # v2, v3 never reach the sink
    assert r2.witnesses["v2"] is None

    g2 = parse_graph("vertices a b\nedge l a a\nedge m b b\n")
    r3 = density_check(g2, ("a",))
    assert not r3.dense
    assert r3.witnesses["b"] is None


def _distances_to(g, X):
    """Edge distance from each vertex to X, by BFS over ``g.targets`` alone."""
    dist = {}
    for v in g.vertices:
        frontier, seen, d = {v}, {v}, 0
        while frontier and not frontier & set(X):
            frontier = {t for u in frontier for t in g.targets(u)} - seen
            seen |= frontier
            d += 1
        if frontier:
            dist[v] = d
    return dist


def test_density_witnesses_are_shortest_paths_into_x():
    rng = random.Random(1907)
    for g in random_graphs(400, 1907, max_vertices=6):
        X = [v for v in g.vertices if rng.random() < 0.3]
        r = density_check(g, X)
        dist = _distances_to(g, X)
        assert r.dense == (len(dist) == len(g.vertices)), to_text(g)
        assert list(r.witnesses) == list(g.vertices)
        for v, path in r.witnesses.items():
            if v not in dist:
                assert path is None, to_text(g)
                continue
            assert len(path) == dist[v], to_text(g)
            at = v
            for eid in path:
                b = g.bundle(eid)
                assert b.source == at, to_text(g)
                at = b.target
            assert at in X, to_text(g)


def test_density_witness_takes_smallest_first_step():
    # both e1 (v -> p) and e2 (v -> q) are one step nearer t; the smaller
    # first step wins although its suffix e9 is larger than e2's suffix e3
    g = parse_graph(
        "vertices v p q t\nedge e1 v p\nedge e2 v q\n"
        "edge e3 q t\nedge e9 p t\n"
    )
    r = density_check(g, ("t",))
    assert r.witnesses["v"] == ("e1", "e9")
    assert r.witnesses["q"] == ("e3",)


def test_closure_result_is_plain_data():
    g = fixture_graph("six")
    r = hs_closure(g, ("v3",))
    assert to_text(g)  # graph unchanged / still serializable
    assert isinstance(r.members, tuple)


OMEGA_H = fixture_graph("omega-h")  # u breaks H = {h, x}


@pytest.mark.parametrize(
    "call",
    [
        # the tree T(X), the hereditary test T(X) == X, and the saturation
        # test read on the closure
        lambda g: g.set_of(g.tree_mask(g.mask_of(("v1", "nope")))),
        lambda g: g.tree_mask(g.mask_of(("nope",))),
        lambda g: hs_closure(g, ("v3", "nope")),
        lambda g: saturate_once(g, ("nope",)),
        lambda g: breaking_vertices(g, ("nope",)),
        lambda g: density_check(g, ("nope",)),
        lambda g: csp_class(g, "nope"),
        lambda g: ideal_descriptor(g, ("nope",)),
        lambda g: g.index("nope"),
        lambda g: g.kind("nope"),
        lambda g: g.targets("nope"),
        lambda g: g.out_bundles("nope"),
        # an id in S or v, next to an H that u does break
        lambda _: ideal_descriptor(OMEGA_H, ("h",), S=("nope",)),
        lambda _: build_hedgehog(OMEGA_H, ("h", "x"), ("nope",)),
        lambda _: v_H_element(OMEGA_H, "nope", ("h", "x")),
    ],
    ids=[
        "reachable", "is_hereditary", "is_saturated", "saturate_once",
        "breaking_vertices", "density_check", "csp_class", "ideal_descriptor",
        "index", "kind", "targets", "out_bundles", "ideal_descriptor_S",
        "build_hedgehog_S", "v_H_element",
    ],
)
def test_unknown_vertex_id_is_named(call):
    with pytest.raises(GraphValidationError, match="unknown vertex id 'nope'"):
        call(fixture_graph("chain3sink"))


def test_one_refusal_for_s_outside_b_h(capsys):
    # x is a sink, so it breaks no H; the closure of {h} is {h}
    refusal = "not breaking vertices of H: ['x']"
    for call in (
        lambda: ideal_descriptor(OMEGA_H, ("h",), S=("x",)),
        lambda: build_hedgehog(OMEGA_H, ("h",), ("x",)),
        lambda: v_H_element(OMEGA_H, "x", ("h",)),
    ):
        with pytest.raises(GraphValidationError) as exc:
            call()
        assert str(exc.value) == refusal
    assert cli.run(["hedgehog", fixture_path("omega-h"), "--H", "h", "--S", "x"]) == 2
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


@pytest.mark.parametrize(
    "call, refusal",
    [
        (lambda: build_hedgehog(OMEGA_H, ("h",), ("x", "u", "h")),
         "not breaking vertices of H: ['h', 'x']"),
        (lambda: build_hedgehog(OMEGA_H, ("u",), ()), "H is not hereditary"),
        (lambda: v_H_element(OMEGA_H, "u", ("u",)), "H is not hereditary"),
    ],
    ids=["every-stray-sorted", "build_hedgehog-H", "v_H_element-H"],
)
def test_check_breaking_names_what_is_wrong(call, refusal):
    # u breaks {h}, which holds h; {u} is not hereditary, as u reaches h
    with pytest.raises(GraphValidationError) as exc:
        call()
    assert str(exc.value) == refusal
