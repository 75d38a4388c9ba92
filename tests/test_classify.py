"""Classifier outputs on the canonical fixtures, frozen by hand.

Each expected tuple below was worked out on paper from the definitions
(trees, closed simple paths, exits and returns), not copied from the
implementation.
"""

import importlib
import re

import pytest

from leavittpath import (
    EdgeBundle,
    Graph,
    InvariantViolation,
    classify,
    cli,
    csp_class,
    csp_classes,
    parse_graph,
    to_text,
)
from leavittpath.random_graphs import _graph_from_code

from conftest import fixture_graph, omega_sweep_codes


def test_csp_classes_chain3sink():
    g = fixture_graph("chain3sink")
    assert csp_classes(g) == {
        "v1": "TwoPlus",
        "v2": "TwoPlus",
        "v3": "TwoPlus",
        "v4": "Zero",
    }


def test_csp_one_requires_unique_closed_path():
    g = fixture_graph("twoloop-oneloop")
    assert csp_class(g, "w") == "One"
    assert csp_class(g, "v") == "TwoPlus"


def test_csp_two_distinct_cycles_through_vertex():
    # v sits on two different closed simple paths of length 2
    g = parse_graph(
        "vertices v a b\nedge e1 v a\nedge e2 a v\nedge e3 v b\nedge e4 b v\n"
    )
    assert csp_class(g, "v") == "TwoPlus"
    assert csp_class(g, "a") == "TwoPlus"  # a reaches v's second cycle


def test_csp_single_long_cycle():
    g = parse_graph("vertices a b c\nedge e1 a b\nedge e2 b c\nedge e3 c a\n")
    assert csp_classes(g) == {"a": "One", "b": "One", "c": "One"}


def test_csp_multiplicity_counts():
    g = parse_graph("vertices v\nedge e v v x2\n")
    assert csp_class(g, "v") == "TwoPlus"
    g2 = parse_graph("vertices v w\nbundle m v w omega\nedge e w v\n")
    assert csp_class(g2, "v") == "TwoPlus"


def _cycle(n, chord=False):
    vs = [f"c{i}" for i in range(n)]
    bundles = [EdgeBundle(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    if chord:
        bundles.append(EdgeBundle("chord", vs[0], vs[n // 2]))
    return Graph(vs, bundles)


def test_csp_long_simple_cycle():
    g = _cycle(1500)
    assert set(csp_classes(g).values()) == {"One"}
    assert classify(g).p_c == g.vertices
    assert classify(g).p_ec == ()


def test_csp_long_cycle_with_chord():
    # the chord is an exit of the cycle and closes a second simple path
    g = _cycle(1500, chord=True)
    assert set(csp_classes(g).values()) == {"TwoPlus"}
    assert classify(g).p_ec == g.vertices
    assert classify(g).p_c == ()


def test_cli_classify_long_cycle(tmp_path, capsys):
    path = tmp_path / "cycle300.lpa"
    path.write_text(to_text(_cycle(300)))
    assert cli.run(["classify", str(path)]) == 0
    assert capsys.readouterr().err == ""


CLASSIFY_EXPECTED = {
    # name: (p_l, p_c, p_ec, p_binf, p_pi, p_ppi, ec_prime, pec, prime, p_K, cK, cL)
    "chain3": (
        (), (), ("v3",), (),
        ("v1", "v2", "v3"), ("v1", "v2", "v3"),
        ("v3",), (), ("v1", "v2", "v3"),
        ("v1", "v2", "v3"), True, True,
    ),
    "chain3sink": (
        ("v4",), (), ("v3",), (),
        ("v1", "v2", "v3"), ("v2", "v3"),
        ("v3",), (), ("v2", "v3"),
        ("v1", "v2", "v3", "v4"), True, True,
    ),
    "six": (
        (), ("w2",), ("v3", "w1"), (),
        ("v2", "v3", "v4", "w1"), ("v2", "v3", "v4", "w1"),
        ("v3",), ("w1",), ("v2", "v3", "v4"),
        ("v2", "v3", "v4", "w1"), False, False,
    ),
    "fork": (
        (), (), ("v3",), (),
        ("v1", "v2", "v3", "v4"), ("v1", "v2", "v3", "v4"),
        ("v3",), (), ("v1", "v2", "v3", "v4"),
        ("v1", "v2", "v3", "v4"), True, True,
    ),
    "twoloop-oneloop": (
        (), ("w",), (), (),
        ("v",), (),
        (), (), (),
        (), False, False,
    ),
    "line2": (
        ("v1", "v2"), (), (), (),
        (), (),
        (), (), (),
        ("v1", "v2"), True, True,
    ),
    "line4": (
        ("v1", "v2", "v3", "v4"), (), (), (),
        (), (),
        (), (), (),
        ("v1", "v2", "v3", "v4"), True, True,
    ),
    "omega-h": (
        ("x",), (), ("h",), ("u",),
        ("h",), ("h",),
        (), ("h",), (),
        ("h", "u", "x"), True, True,
    ),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_EXPECTED))
def test_classify_fixture(name):
    g = fixture_graph(name)
    c = classify(g)
    pl, pc, pec_, pbinf, ppi_, pppi, ecp, pec, prime, pk, ck, cl = (
        CLASSIFY_EXPECTED[name]
    )
    assert c.p_l == pl
    assert c.p_c == pc
    assert c.p_ec == pec_
    assert c.p_binf == pbinf
    assert c.p_pi == ppi_
    assert c.p_ppi == pppi
    assert c.p_ec_prime == ecp
    assert c.p_pec == pec
    assert c.p_prime == prime
    assert c.p_K == pk
    assert c.condition_K == ck
    assert c.condition_L == cl


def test_p_ex_adds_breaking_vertices():
    # u's omega bundle lands inside P_(K) and f escapes it, but the closure
    # of P_(K) already holds every vertex here, so nothing breaks
    g = fixture_graph("omega-h")
    c = classify(g)
    assert c.p_ex == ("h", "u", "x")

    # force a graph whose P_(K) excludes a one-cycle but keeps the emitter out
    g2 = parse_graph(
        "vertices u h w\n"
        "bundle m u h omega\n"
        "edge f u w\n"
        "edge h1 h h\nedge h2 h h\n"
        "edge c w w\n"
    )
    # w carries the unique cycle: CSP(w) = One, so P_(K) = {h}
    assert classify(g2).p_K == ("h",)
    c2 = classify(g2)
    assert c2.p_ex == ("h", "u")  # u breaks {h}: omega into it, one escape


def test_exchange_breaking_vertices_have_edges_outside_p_k():
    # u outside P_(K) reaches a One vertex; were every edge of u in P_(K),
    # that vertex would be u, whose cycle edge stays in u's SCC outside P_(K)
    met = 0
    for n, code in omega_sweep_codes():
        g = _graph_from_code(n, code)
        breaking = classify(g).exchange_breaking
        assert all(count >= 1 for _, count in breaking), to_text(g)
        met += bool(breaking)
    assert met


def test_p_ppi_requires_tree_inside_p_pi():
    g = fixture_graph("chain3sink")
    assert classify(g).p_ppi == ("v2", "v3")  # v1 sees the sink v4


def test_p_ppi_excludes_trees_with_breaking_capable_vertices():
    # y -> u (capable emitter); the cycle at y is properly infinite but its
    # tree contains u, so y is not purely infinite
    g = parse_graph(
        "vertices y u h x\n"
        "edge y1 y y\nedge y2 y y\nedge d y u\n"
        "bundle m u h omega\nedge f u x\n"
        "edge h1 h h\nedge h2 h h\n"
    )
    c = classify(g)
    assert "h" in c.p_ppi
    assert "y" not in c.p_ppi
    assert "u" not in c.p_ppi


def test_conditions_on_fixtures():
    assert classify(fixture_graph("chain3")).condition_L
    assert not classify(fixture_graph("six")).condition_L  # w2's loop has no exit
    assert classify(fixture_graph("fork")).condition_K
    assert not classify(fixture_graph("twoloop-oneloop")).condition_K


def test_classification_cached_per_graph():
    g = fixture_graph("six")
    assert classify(g) is classify(g)


# (graph, classify's mask collaborator to break, its broken value, the message)
BROKEN_CERTIFICATIONS = {
    # the doubled loop at a is an extreme cycle that P_pi, and so P_ppi, loses
    "p_ec_outside_p_pi": (
        "vertices a\nedge l a a x2\n",
        "properly_infinite_mask", 0, "P_ec is not contained in P_ppi",
    ),
    # marking v (index 1) capable evicts it from P_ppi = {a}, though v is
    # regular and emits only into a
    "p_ppi_unsaturated": (
        "vertices a v\nedge e v a\nedge l a a x2\n",
        "breaking_capable_mask", 0b10,
        "P_ppi = ['a'] is not hereditary+saturated",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CERTIFICATIONS))
def test_broken_classifier_input_is_certified(case, monkeypatch, tmp_path, capsys):
    text, name, value, message = BROKEN_CERTIFICATIONS[case]
    # the package's classify() function shadows the submodule's name
    module = importlib.import_module("leavittpath.classify")
    monkeypatch.setattr(module, name, lambda g: value)
    g = parse_graph(text)
    with pytest.raises(InvariantViolation, match=re.escape(message)) as ei:
        classify(g)
    assert ei.value.graph is g

    path = tmp_path / "broken.lpa"
    path.write_text(text)
    assert cli.run(["classify", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"invariant violation: {message}" in err
    assert f"--- reproducer graph ---\n{text}" in err
