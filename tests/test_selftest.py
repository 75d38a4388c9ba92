"""The maximality probe of ``lpa selftest``: one certified closure per
distinct P_ppi ∪ T(v), the same verdicts and messages as one per vertex."""

import pytest

from leavittpath import _kernel, classify, parse_graph, selftest, to_text
from leavittpath.errors import InvariantViolation
from leavittpath.selftest import _Mismatch, check_maximality


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
    with pytest.raises(_Mismatch, match="closure of P_ppi plus 'a' is still"):
        check_maximality(g)
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
    assert err.value.graph_text == to_text(g)
