import pytest

from leavittpath import (
    GraphValidationError,
    classify,
    descriptor_leq,
    ideal_descriptor,
    largest_ideals_report,
    parse_graph,
    pi_decomposition,
)
from leavittpath.ideals import PEC_LABEL, PPRIME_LABEL

from conftest import fixture_graph


def test_descriptor_closes_generating_set():
    g = fixture_graph("chain3sink")
    d = ideal_descriptor(g, ("v1",))
    assert d.H == ("v1", "v2", "v3", "v4")
    assert d.S == ()


def test_descriptor_rejects_non_breaking_s():
    g = fixture_graph("omega-h")
    d = ideal_descriptor(g, ("h",), S=("u",))
    assert d.S == ("u",)
    with pytest.raises(GraphValidationError):
        ideal_descriptor(g, ("h",), S=("x",))


def test_descriptor_leq_lattice():
    g = fixture_graph("chain3sink")
    small = ideal_descriptor(g, ("v3",))
    big = ideal_descriptor(g, ("v2",))
    assert big.H == ("v2", "v3")
    assert descriptor_leq(small, big)
    assert not descriptor_leq(big, small)
    assert descriptor_leq(small, small)


def test_descriptor_leq_breaking_vertex_absorption():
    g = fixture_graph("omega-h")
    with_s = ideal_descriptor(g, ("h",), S=("u",))
    without_s = ideal_descriptor(g, ("h",))
    everything = ideal_descriptor(g, ("u",))  # closes to all three vertices
    assert descriptor_leq(without_s, with_s)
    assert not descriptor_leq(with_s, without_s)
    # u itself inside H absorbs the v^H generator
    assert descriptor_leq(with_s, everything)


def test_descriptor_leq_rejects_mixed_graphs():
    a = ideal_descriptor(fixture_graph("line2"), ("v2",))
    b = ideal_descriptor(fixture_graph("line3"), ("v3",))
    with pytest.raises(GraphValidationError):
        descriptor_leq(a, b)


def test_is_purely_infinite_ideal():
    # an ideal is purely infinite when it lies inside I(P_ppi)
    g = fixture_graph("chain3sink")
    ppi = ideal_descriptor(g, classify(g).p_ppi)
    assert descriptor_leq(ideal_descriptor(g, ("v2", "v3")), ppi)
    assert descriptor_leq(ideal_descriptor(g, ("v3",)), ppi)
    assert descriptor_leq(ideal_descriptor(g, ()), ppi)
    assert not descriptor_leq(ideal_descriptor(g, ("v1",)), ppi)
    assert not descriptor_leq(ideal_descriptor(g, ("v4",)), ppi)

    go = fixture_graph("omega-h")
    assert not descriptor_leq(
        ideal_descriptor(go, ("h",), S=("u",)),
        ideal_descriptor(go, classify(go).p_ppi),
    )


def test_pi_decomposition_six():
    g = fixture_graph("six")
    classes = pi_decomposition(g)
    assert [(c.kind, c.class_vertices) for c in classes] == [
        ("Pec", ("w1",)),
        ("Pprime", ("v2", "v3", "v4")),
    ]
    assert classes[0].label == PEC_LABEL
    assert classes[0].tree == ("w1",)
    assert classes[1].label == PPRIME_LABEL
    assert classes[1].tree == ("v2", "v3", "v4")


def test_pi_decomposition_fork_excludes_trivial_scc():
    g = fixture_graph("fork")
    classes = pi_decomposition(g)
    assert len(classes) == 1
    (c,) = classes
    assert c.kind == "Pprime"
    assert c.class_vertices == ("v1", "v3", "v4")  # v2 is a trivial SCC
    assert c.tree == ("v1", "v2", "v3", "v4")  # but it sits inside the tree


def test_pi_decomposition_unrelated_classes_stay_apart():
    g = parse_graph(
        "vertices a b\nedge a1 a a\nedge a2 a a\nedge b1 b b\nedge b2 b b\n"
    )
    classes = pi_decomposition(g)
    assert [(c.kind, c.class_vertices) for c in classes] == [
        ("Pec", ("a",)),
        ("Pec", ("b",)),
    ]


def test_pi_decomposition_absorbs_dominated_extreme_cycle():
    # b's cycle is extreme, but a (properly infinite, not extreme) sits
    # above it, so b lands in a's non-simple class instead of its own
    g = parse_graph(
        "vertices a b\nedge a1 a a\nedge a2 a a\nedge f a b\n"
        "edge b1 b b\nedge b2 b b\n"
    )
    classes = pi_decomposition(g)
    assert [(c.kind, c.class_vertices) for c in classes] == [
        ("Pprime", ("a", "b"))
    ]
    assert classes[0].tree == ("a", "b")


def test_pi_decomposition_joins_loops_through_a_shared_descendant():
    # a and b reach neither other; their common doubled-loop descendant c
    # chains them into one class
    g = parse_graph(
        "vertices a b c\nedge a1 a a x2\nedge b1 b b x2\nedge c1 c c x2\n"
        "edge f a c\nedge h b c\n"
    )
    classes = pi_decomposition(g)
    assert [(c.kind, c.member_sccs, c.class_vertices, c.tree) for c in classes] == [
        ("Pprime", (0, 1, 2), ("a", "b", "c"), ("a", "b", "c"))
    ]


def test_pi_decomposition_keeps_a_trivial_vertex_above_two_loops_out():
    # u lies on no cycle: it puts a and b in P′ but joins no classes, and
    # no class tree holds it
    g = parse_graph(
        "vertices u a b\nedge a1 a a x2\nedge b1 b b x2\nedge f u a\nedge h u b\n"
    )
    classes = pi_decomposition(g)
    assert "u" in classify(g).p_prime
    assert [(c.kind, c.class_vertices, c.tree) for c in classes] == [
        ("Pprime", ("a",), ("a",)),
        ("Pprime", ("b",), ("b",)),
    ]


def _pairs_text(k):
    """k doubled loops a_i, each with an edge into its own doubled loop b_i."""
    lines = [f"vertices {' '.join(f'a{i} b{i}' for i in range(k))}"]
    for i in range(k):
        lines += [f"edge l{i} a{i} a{i} x2", f"edge m{i} b{i} b{i} x2",
                  f"edge f{i} a{i} b{i}"]
    return "\n".join(lines) + "\n"


def _fan_text(k):
    """k sources into one hub, which feeds k doubled loops."""
    lines = [f"vertices h {' '.join(f's{i} c{i}' for i in range(k))}"]
    for i in range(k):
        lines += [f"edge f{i} s{i} h", f"edge g{i} h c{i}", f"edge l{i} c{i} c{i} x2"]
    return "\n".join(lines) + "\n"


def test_pi_decomposition_pairs_and_fan_give_one_class_per_pair_or_loop():
    k = 200
    pairs = pi_decomposition(parse_graph(_pairs_text(k)))
    assert len(pairs) == k
    assert {(c.kind, c.class_vertices, c.tree) for c in pairs} == {
        ("Pprime", (f"a{i}", f"b{i}"), (f"a{i}", f"b{i}")) for i in range(k)
    }
    fan = pi_decomposition(parse_graph(_fan_text(k)))
    assert len(fan) == k
    assert {(c.kind, c.class_vertices, c.tree) for c in fan} == {
        ("Pprime", (f"c{i}",), (f"c{i}",)) for i in range(k)
    }


def test_report_six():
    g = fixture_graph("six")
    r = largest_ideals_report(g)
    assert r.semisimple_gens == ()
    assert r.loc_noetherian_gens == ("w2",)
    assert r.loc_noetherian_no_min_idem_gens == ("w2",)
    assert r.purely_infinite_gens == ("v2", "v3", "v4", "w1")
    assert r.exchange_gens == ("v2", "v3", "v4", "w1")
    assert r.dense_gens == ("v3", "w1", "w2")
    assert r.dense
    assert r.dense_witnesses["v3"] == ()
    assert r.dense_witnesses["v1"]  # some edge toward the generating set
    assert r.exchange_breaking == ()
    assert r.notes == ()


def test_report_line():
    g = fixture_graph("line4")
    r = largest_ideals_report(g)
    assert r.semisimple_gens == ("v1", "v2", "v3", "v4")
    assert r.purely_infinite_gens == ()
    assert r.pi_classes == ()
    assert r.dense


def test_report_omega_notes():
    g = fixture_graph("omega-h")
    r = largest_ideals_report(g)
    assert r.purely_infinite_gens == ("h",)
    assert r.exchange_gens == ("h", "u", "x")
    assert any("finite fragment" in n for n in r.notes)
    assert [c.kind for c in r.pi_classes] == ["Pec"]


def test_report_empty_graph():
    g = parse_graph("")
    r = largest_ideals_report(g)
    assert r.dense
    assert r.pi_classes == ()
