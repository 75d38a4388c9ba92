"""Sanity checks for the slow reference implementations themselves.

The oracles get cross-checked against the fast paths in bulk elsewhere;
here they are pinned on small cases worked out by hand, so a bug cannot
hide in both routes at once.  The one bulk sweep here is the ω one, which
the exhaustive sweeps elsewhere leave out: ``selftest.check_oracles`` plus
the checks its table lacks (SCCs, trees and reaching sets, breaking-capable
vertices, P_(K), P_ppi, P_ex and the P′ trees).
"""

import itertools
import pickle
import random
import re

import pytest

from leavittpath import (
    OMEGA,
    breaking_capable,
    classify,
    condense,
    hs_closure,
    parse_graph,
    pi_decomposition,
    properly_infinite,
    saturate_once,
    to_text,
)
from leavittpath.errors import InvariantViolation
from leavittpath.oracles import (
    b_infinity_oracle,
    breaking_capable_oracle,
    csp_class_oracle,
    cycles_without_exits_oracle,
    extreme_cycles_oracle,
    hereditary_saturated_sets,
    hs_closure_oracle,
    line_points_oracle,
    p_ex_oracle,
    p_K_oracle,
    p_ppi_oracle,
    pprime_classes_oracle,
    properly_infinite_subsets_oracle,
    reach_sets,
    simple_cycles,
    sccs_oracle,
)
from leavittpath.random_graphs import _graph_from_code, random_graphs
from leavittpath.selftest import check_oracles

from conftest import fixture_graph, omega_sweep_codes


def test_simple_cycles_enumeration():
    g = parse_graph(
        "vertices a b\nedge l a a\nedge e a b\nedge f b a\nedge m b b\n"
    )
    cycles = {frozenset(c) for c in simple_cycles(g)}
    assert cycles == {frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}


def test_csp_oracle_by_hand():
    g = fixture_graph("twoloop-oneloop")
    assert csp_class_oracle(g, "w") == "One"
    assert csp_class_oracle(g, "v") == "TwoPlus"
    g2 = fixture_graph("line3")
    assert csp_class_oracle(g2, "v1") == "Zero"


def test_csp_oracle_omega_counts_two():
    g = parse_graph("vertices v\nbundle m v v omega\n")
    assert csp_class_oracle(g, "v") == "TwoPlus"


def test_hs_closure_oracle_by_hand():
    g = fixture_graph("chain3sink")
    assert hs_closure_oracle(g, {"v1"}) == {"v1", "v2", "v3", "v4"}
    assert hs_closure_oracle(g, {"v3"}) == {"v3"}
    g2 = parse_graph("vertices v h\nedge e v h\nedge l h h\n")
    assert hs_closure_oracle(g2, {"h"}) == {"h", "v"}


def test_extreme_oracle_by_hand():
    assert extreme_cycles_oracle(fixture_graph("six")) == ("v3", "w1")
    assert extreme_cycles_oracle(fixture_graph("twoloop-oneloop")) == ()


def test_line_points_and_pc_oracles():
    g = fixture_graph("chain3sink")
    assert line_points_oracle(g) == ("v4",)
    assert cycles_without_exits_oracle(fixture_graph("six")) == ("w2",)


def test_b_infinity_oracle():
    assert b_infinity_oracle(fixture_graph("omega-h")) == ("u",)
    assert b_infinity_oracle(fixture_graph("six")) == ()


def test_properly_infinite_oracle_by_hand():
    assert properly_infinite_subsets_oracle(fixture_graph("chain3sink")) == (
        "v1",
        "v2",
        "v3",
    )
    cases = [
        # not a local recursion over the DAG: t is not properly infinite,
        # yet v is, since v saturates into T({w}) = {w, t}
        (
            "vertices t v w\nedge a v w\nedge b v t\nedge c w t\n"
            "edge l w w x2\n",
            ("v", "w"),
        ),
        # ... but without w -> t, the sink t lies outside T({w}) = {w}
        ("vertices t v w\nedge a v w\nedge b v t\nedge l w w x2\n", ("w",)),
        # the tree of v ends in an ω-emitter u outside T({w}) = {w}
        (
            "vertices u v w\nedge a v w\nedge b v u\nbundle m u w omega\n"
            "edge l w w x2\n",
            ("w",),
        ),
        # ... and with u regular instead, u and v saturate in
        (
            "vertices u v w\nedge a v w\nedge b v u\nedge m u w\n"
            "edge l w w x2\n",
            ("u", "v", "w"),
        ),
        # the tree of v ends in a One-cycle c outside T({w}) = {w}
        (
            "vertices c v w\nedge a v w\nedge b v c\nedge k c c\n"
            "edge l w w x2\n",
            ("w",),
        ),
        # an ω-loop is TwoPlus and pulls its regular predecessor in
        ("vertices u v\nedge a u v\nbundle m v v omega\n", ("u", "v")),
    ]
    for text, expected in cases:
        g = parse_graph(text)
        assert properly_infinite_subsets_oracle(g) == expected, text
        assert properly_infinite(g) == expected, text


def test_sccs_oracle():
    g = fixture_graph("fork")
    sccs = sccs_oracle(g)
    assert frozenset({"v1"}) in sccs and frozenset({"v2"}) in sccs
    assert len(sccs) == 4


def test_pprime_classes_oracle_six():
    g = fixture_graph("six")
    classes = pprime_classes_oracle(g, {"v2", "v3", "v4"})
    assert classes == (frozenset({"v2", "v3", "v4"}),)


def test_pprime_classes_oracle_disjoint():
    g = parse_graph(
        "vertices a b\nedge a1 a a\nedge a2 a a\nedge b1 b b\nedge b2 b b\n"
    )
    classes = pprime_classes_oracle(g, {"a", "b"})
    assert sorted(classes, key=min) == [frozenset({"a"}), frozenset({"b"})]


def test_hereditary_saturated_sets_small():
    g = fixture_graph("twoloop-oneloop")
    sets = hereditary_saturated_sets(g)
    assert set(sets) == {
        frozenset(),
        frozenset({"w"}),
        frozenset({"v", "w"}),
    }


def test_breaking_capable_oracle_by_hand():
    # u breaks {h} (its ω-target) and escapes to x
    assert breaking_capable_oracle(fixture_graph("omega-h")) == ("u",)
    # no escape: every edge of u lands in the tree of its ω-target
    g = parse_graph("vertices u h\nbundle m u h omega\nedge f u h\n")
    assert breaking_capable_oracle(g) == ()


def test_hereditary_saturated_sets_size_guard():
    g = parse_graph(
        "vertices " + " ".join(f"v{i}" for i in range(16)) + "\n"
    )
    with pytest.raises(ValueError):
        hereditary_saturated_sets(g)


def test_memoized_oracle_answers_are_read_only():
    g = fixture_graph("six")
    reach, cycles = reach_sets(g), simple_cycles(g)
    before = dict(reach)
    v = g.vertices[0]
    for mutate in (
        lambda: reach.__setitem__(v, frozenset()),
        lambda: reach.__delitem__(v),
        lambda: reach.update({v: frozenset()}),
        lambda: reach.setdefault("new", frozenset()),
        lambda: reach.pop(v),
        lambda: reach.popitem(),
        lambda: reach.clear(),
    ):
        with pytest.raises(TypeError):
            mutate()
    alias = reach
    with pytest.raises(TypeError):
        alias |= {v: frozenset()}
    assert isinstance(cycles, tuple)
    assert all(isinstance(c, tuple) for c in cycles)
    assert all(isinstance(s, frozenset) for s in reach.values())
    assert reach_sets(g) is reach and reach == before
    assert simple_cycles(g) is cycles


def test_oracles_do_not_read_the_integer_view():
    # drop f1 (v1 -> v2) from v1's rows of the integer view before any
    # analysis reads them: the oracles, built from the bundle list, still
    # see the edge, so the cross-check names the fault
    g = fixture_graph("chain3")
    i = g.index("v1")
    k = [b.id for b in g.out_table[i]].index("f1")
    out, succ = list(g._out), list(g._succ)
    out[i] = out[i][:k] + out[i][k + 1:]
    succ[i] = succ[i][:k] + succ[i][k + 1:]
    g._out, g._succ = tuple(out), tuple(succ)
    assert not g._memo
    with pytest.raises(InvariantViolation,
                       match=re.escape("hs_closure({v1}): fast ('v1',) != oracle")):
        check_oracles(g)


def test_memoized_oracles_match_a_fresh_computation():
    for g in random_graphs(150, 2718, max_vertices=6):
        check_oracles(g)
        fresh = parse_graph(to_text(g))
        assert fresh == g and not fresh._memo
        assert reach_sets(g) is reach_sets(g)
        assert reach_sets(g) == reach_sets(fresh), to_text(g)
        assert simple_cycles(g) == simple_cycles(fresh), to_text(g)
        assert [csp_class_oracle(g, v) for v in g.vertices] == [
            csp_class_oracle(fresh, v) for v in g.vertices
        ], to_text(g)


def test_graph_pickles_with_its_oracle_memo():
    g = fixture_graph("six")
    check_oracles(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._memo == g._memo
    assert type(reach_sets(copy)) is type(reach_sets(g))
    with pytest.raises(TypeError):
        reach_sets(copy)[g.vertices[0]] = frozenset()
    assert copy._memo.keys() == g._memo.keys()  # answered from the memo


def _check_tree_and_reaching(g, reach, masks):
    """g.tree_mask and g.reaching against the sets read off reach_sets."""
    for mask in masks:
        xs = set(g.set_of(mask))
        tree = set().union(*(reach[x] for x in xs))
        assert g.set_of(g.tree_mask(mask)) == tuple(sorted(tree)), to_text(g)
        assert g.set_of(g.reaching(mask)) == tuple(
            v for v in g.vertices if reach[v] & xs
        ), to_text(g)


def test_tree_mask_and_reaching_match_reach_sets():
    rng = random.Random(8)
    for g in random_graphs(300, 1905, max_vertices=8):
        n = len(g.vertices)
        singles = [1 << i for i in range(n)]
        randoms = [rng.getrandbits(n) for _ in range(8)]
        _check_tree_and_reaching(g, reach_sets(g), singles + randoms)


def test_csp_and_cycle_sets_match_oracles_with_omega():
    for n, code in omega_sweep_codes():
        g = _graph_from_code(n, code)
        check_oracles(g)
        reach = reach_sets(g)
        # every subset of the at most 3 vertices, single vertices included
        _check_tree_and_reaching(g, reach, range(1 << n))
        sccs = tuple(frozenset(g.set_of(m)) for m in condense(g).masks)
        assert sccs == sccs_oracle(g), to_text(g)
        c = classify(g)
        assert breaking_capable(g) == breaking_capable_oracle(g), to_text(g)
        assert c.p_K == p_K_oracle(g), to_text(g)
        assert c.p_ppi == p_ppi_oracle(g), to_text(g)
        assert c.p_ex == p_ex_oracle(g), to_text(g)
        # each P′ class's tree is T(class vertices)
        for cl in pi_decomposition(g):
            if cl.kind == "Pprime":
                tree = set().union(*(reach[v] for v in cl.class_vertices))
                assert cl.tree == tuple(sorted(tree)), to_text(g)


def _saturate_once_by_definition(g, X):
    """X plus every vertex outside X with edges, none ω, all landing in X."""
    out = set(X)
    emitted = {v: [] for v in g.vertices}
    for b in g.bundles:
        emitted[b.source].append(b)
    for v in g.vertices:
        bundles = emitted[v]
        if (
            v not in X
            and bundles
            and all(b.mult is not OMEGA and b.target in X for b in bundles)
        ):
            out.add(v)
    return tuple(sorted(out))


def test_saturation_matches_definitions_with_omega():
    for n, code in omega_sweep_codes():
        g = _graph_from_code(n, code)
        subsets = [
            frozenset(c)
            for k in range(n + 1)
            for c in itertools.combinations(g.vertices, k)
        ]
        passing = {
            X for X in subsets if hs_closure(g, X).members == tuple(sorted(X))
        }
        assert passing == set(hereditary_saturated_sets(g)), to_text(g)
        for X in subsets:
            assert saturate_once(g, X) == _saturate_once_by_definition(g, X), (
                to_text(g)
            )


def _closure_by_definition(g, X):
    """(members, rounds) of X's closure: every vertex X reaches, then the
    simultaneous step above until it adds nothing, counting the passes
    that grew the set."""
    held, todo = set(X), list(X)
    while todo:
        u = todo.pop()
        for t in (b.target for b in g.bundles if b.source == u):
            if t not in held:
                held.add(t)
                todo.append(t)
    rounds = 0
    while True:
        grown = set(_saturate_once_by_definition(g, held))
        if grown == held:
            return tuple(sorted(held)), rounds
        held, rounds = grown, rounds + 1


def _chain_into_sink(k):
    """k regular vertices c000 → c001 → … → z, z a sink."""
    names = [f"c{i:03}" for i in range(k)] + ["z"]
    edges = "".join(
        f"edge e{i} {a} {b}\n" for i, (a, b) in enumerate(zip(names, names[1:]))
    )
    return parse_graph(f"vertices {' '.join(names)}\n{edges}")


def _fan_into_sink(k):
    """k regular vertices f000 … each with one edge into the sink z."""
    names = [f"f{i:03}" for i in range(k)]
    edges = "".join(f"edge e{i} {a} z\n" for i, a in enumerate(names))
    return parse_graph(f"vertices {' '.join(names)} z\n{edges}")


def _mostly_regular_graph(rng, n):
    """n vertices; a tenth are sinks, the rest emit one to three bundles to
    uniform targets, one bundle in twenty ω."""
    lines = ["vertices " + " ".join(f"v{i:02}" for i in range(n))]
    for i in range(n):
        for _ in range(0 if rng.random() < 0.1 else rng.randint(1, 3)):
            kind = "bundle" if rng.random() < 0.05 else "edge"
            mult = " omega" if kind == "bundle" else rng.choice(("", " x2"))
            lines.append(
                f"{kind} e{len(lines)} v{i:02} v{rng.randrange(n):02}{mult}"
            )
    return parse_graph("\n".join(lines) + "\n")


def test_saturation_matches_definitions_past_a_few_candidates():
    # the ω sweep above has at most 3 vertices; these graphs have up to 60,
    # and the mostly regular ones, the chain and the fan leave more than
    # the few regular vertices outside the set that the step tests by
    # shifting the mask, so it reads the mask's digits as a string
    rng = random.Random(40)
    graphs = [*random_graphs(300, 40, max_vertices=40)]
    graphs += [_mostly_regular_graph(rng, rng.randint(30, 60)) for _ in range(100)]
    cases = [
        (g, [v for v in g.vertices if rng.random() < p])
        for g in graphs
        for p in (0.0, 0.1, 0.5, 0.9)
    ]
    chain, fan = _chain_into_sink(200), _fan_into_sink(100)
    cases += [(chain, ["z"]), (chain, ["c100"]), (chain, []), (fan, ["z"])]
    for g, X in cases:
        assert saturate_once(g, X) == _saturate_once_by_definition(g, X), (
            to_text(g), X
        )
        closed = hs_closure(g, X)
        members, rounds = _closure_by_definition(g, X)
        assert set(closed.members) == hs_closure_oracle(g, X), (to_text(g), X)
        assert (closed.members, closed.rounds) == (members, rounds), (
            to_text(g), X
        )
    assert hs_closure(fan, ["z"]).rounds == 1
    assert hs_closure(chain, ["z"]).rounds == 200


def _summand_graphs():
    """The ω sweep, plus random graphs: no ω code has two P′ classes."""
    for n, code in omega_sweep_codes():
        yield _graph_from_code(n, code)
    yield from random_graphs(1500, 7, max_vertices=6)


def test_summands_are_a_direct_sum_of_indecomposables():
    # K_i is the closure of class i's vertices.  The K_i are disjoint and
    # close up to the closure of P_ppi, so their ideals sum directly to the
    # largest purely infinite ideal; no P′ K_i is the union of two disjoint
    # non-empty hereditary saturated sets, so its ideal is indecomposable.
    # P_ppi lies in P_(K), so every ideal inside it is graded, and holds no
    # breaking-capable vertex, so each of those is I(H) for an H above.
    for g in _summand_graphs():
        ppi = set(p_ppi_oracle(g))
        assert ppi <= set(p_K_oracle(g)), to_text(g)
        assert not ppi & set(breaking_capable_oracle(g)), to_text(g)
        classes = pi_decomposition(g)
        if not classes:
            continue
        ks = [hs_closure_oracle(g, cl.class_vertices) for cl in classes]
        for a, b in itertools.combinations(ks, 2):
            assert not a & b, to_text(g)
        assert hs_closure_oracle(g, set().union(*ks)) == hs_closure_oracle(
            g, ppi
        ), to_text(g)
        hs_sets = set(hereditary_saturated_sets(g))
        for cl, k in zip(classes, ks):
            if cl.kind == "Pprime":
                assert not any(
                    h and h < k and k - h in hs_sets for h in hs_sets
                ), to_text(g)
