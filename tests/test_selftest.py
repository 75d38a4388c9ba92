"""The maximality probe of ``lpa selftest``: one certified closure per
distinct P_ppi ∪ T(v), the same verdicts and messages as one per vertex."""

import pickle

import pytest

from leavittpath import _kernel, classify, parse_graph, selftest
from leavittpath.errors import InvariantViolation
from leavittpath.selftest import check_maximality


def _count_closures(monkeypatch):
    seeds = []
    closure_mask = selftest.closure_mask

    def counting(g, seed):
        seeds.append(seed)
        return closure_mask(g, seed)

    monkeypatch.setattr(selftest, "closure_mask", counting)
    return seeds


def test_vertices_of_one_tree_share_one_closure(monkeypatch):
    # a and b form a cycle without exits, outside P_ppi = {}; c reaches it
    g = parse_graph("vertices a b c\nedge e a b\nedge f b a\nedge k c a\n")
    assert classify(g).p_ppi == ()
    seeds = _count_closures(monkeypatch)
    check_maximality(g)
    # one closure for {a, b} (first seeded by a), one for c's larger tree
    assert seeds == [0b001, 0b100]


def test_failing_vertices_sharing_a_closure_name_the_smaller(monkeypatch):
    # a ⇄ b with doubled edges is one TwoPlus SCC above x's doubled loop, so
    # P_ppi is every vertex; with P_ppi shrunk to {x}, a and b both fail on
    # the one closure {a, b, x}
    g = parse_graph(
        "vertices a b x\nedge p a b x2\nedge q b a x2\nedge r b x\n"
        "edge l x x x2\n"
    )
    assert classify(g).p_ppi == ("a", "b", "x")
    smaller = selftest._classify_masks(g)._replace(p_ppi=g.mask_of(("x",)))
    monkeypatch.setattr(selftest, "_classify_masks", lambda g: smaller)
    seeds = _count_closures(monkeypatch)
    message = "closure of P_ppi plus 'a' is still"
    with pytest.raises(InvariantViolation, match=message) as err:
        check_maximality(g)
    assert err.value.graph is g
    assert seeds == [0b101]


def test_uncertified_closure_raises_with_the_reproducer(monkeypatch):
    # v and w emit only into the sink s: the closure of {s} saturates to
    # every vertex, and the first probe, s, is left unsaturated
    g = parse_graph("vertices s v w\nedge e v s\nedge f w s\n")
    classify(g)  # classify's own certifications run unpatched
    monkeypatch.setattr(
        _kernel, "saturation_fixpoint", lambda mask, regular: (mask, 0)
    )
    with pytest.raises(InvariantViolation) as err:
        check_maximality(g)
    assert err.value.detail == (
        "closure of ['s'] is not hereditary+saturated: ('s',)"
    )
    assert err.value.graph is g
    copy = pickle.loads(pickle.dumps(err.value))
    assert (copy.detail, copy.graph) == (err.value.detail, g)


def test_an_oracle_disagreement_names_the_check(monkeypatch):
    g = parse_graph("vertices a\nedge l a a x2\n")
    monkeypatch.setattr(selftest, "b_infinity_oracle", lambda g: ("a",))
    with pytest.raises(InvariantViolation) as err:
        selftest.check_oracles(g)
    assert err.value.detail == "b_infinity: fast () != oracle ('a',)"
    assert err.value.graph is g
