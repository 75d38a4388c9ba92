from fractions import Fraction

import pytest

from leavittpath import (
    AlgebraElement,
    ExpressionError,
    GraphValidationError,
    build_hedgehog,
    format_element,
    graded_components,
    parse_element,
    parse_graph,
    v_H_element,
)

from leavittpath.terms import _instance_table, element_payload

from conftest import fixture_graph


def E(g, tok):
    return AlgebraElement.edge(g, tok)


def G(g, tok):
    return AlgebraElement.ghost_edge(g, tok)


def V(g, v):
    return AlgebraElement.vertex(g, v)


def test_vertices_are_orthogonal_idempotents():
    g = fixture_graph("line3")
    assert V(g, "v1") * V(g, "v1") == V(g, "v1")
    assert (V(g, "v1") * V(g, "v2")).is_zero()


def test_edge_endpoint_absorption():
    g = fixture_graph("line3")
    e = E(g, "e1")
    assert V(g, "v1") * e == e
    assert e * V(g, "v2") == e
    assert (e * V(g, "v1")).is_zero()
    assert (V(g, "v2") * e).is_zero()


def test_ck1_cancellation():
    g = fixture_graph("chain3")
    assert G(g, "a1") * E(g, "a1") == V(g, "v1")
    assert (G(g, "a1") * E(g, "a2")).is_zero()
    assert (G(g, "a1") * E(g, "f1")).is_zero()


def test_ck2_rewrites_to_vertex_for_single_edge():
    g = fixture_graph("line2")
    assert E(g, "e1") * G(g, "e1") == V(g, "v1")


def test_ck2_rewrite_expands_special_edge_pattern():
    g = fixture_graph("chain3")
    # v2's outgoing instances are b1, b2, f2; the special edge is b1
    lhs = E(g, "b1") * G(g, "b1")
    rhs = (
        V(g, "v2")
        - E(g, "b2") * G(g, "b2")
        - E(g, "f2") * G(g, "f2")
    )
    assert lhs == rhs
    # non-special products stay as they are
    assert format_element(E(g, "b2") * G(g, "b2")) == "1 · b2 (b2)*"


def test_no_ck2_at_infinite_emitters():
    g = fixture_graph("omega-h")
    x = E(g, "f") * G(g, "f")
    assert format_element(x) == "1 · f (f)*"  # u is not regular, no rewrite


def test_star_involution():
    g = fixture_graph("chain3")
    a = E(g, "b1") * E(g, "b2") + 2 * E(g, "f2")
    b = E(g, "b2") - G(g, "b1")
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


def test_scalar_arithmetic():
    g = fixture_graph("line2")
    v = V(g, "v1")
    assert 2 * v - v == v
    assert (v - v).is_zero()
    half = v.scale(Fraction(1, 2))
    assert half + half == v
    assert format_element(half) == "1/2 · v1"


def test_multiplication_distributes():
    g = fixture_graph("chain3")
    a, b, c = E(g, "b1"), E(g, "b2"), G(g, "f1")
    assert (a + b) * c == a * c + b * c


def test_junction_leftover_real_side():
    g = fixture_graph("line3")
    # e1 (e1 e2)* ... (e1 e2)* e1 is zero, but (e2)* against e2 e?? exercise
    # α β* · γ δ*: β = e2, γ = e2 e?? keep simple: (e1 e2) (e2)* * e2 = e1 e2
    left = E(g, "e1") * E(g, "e2") * G(g, "e2")
    assert left * E(g, "e2") == E(g, "e1") * E(g, "e2")


def test_parse_simple_expressions():
    g = fixture_graph("line2")
    assert parse_element(g, "e1* e1") == V(g, "v2")
    assert parse_element(g, "v1 + v2") == V(g, "v1") + V(g, "v2")
    assert parse_element(g, "2 e1 - e1") == E(g, "e1")
    assert parse_element(g, "(e1 + e1)*") == G(g, "e1") + G(g, "e1")
    assert parse_element(g, "3/2 v1") == V(g, "v1").scale(Fraction(3, 2))
    assert parse_element(g, "-v1 + v1").is_zero()


def test_parse_instance_indexing():
    g = parse_graph("vertices v\nedge e v v x2\n")
    assert parse_element(g, "e[1]* e[2]").is_zero()
    assert parse_element(g, "e[1]* e[1]") == V(g, "v")


def test_edges_of_a_hedgehog_base_are_addressable():
    # a multiplicity-1 bundle whose id holds brackets is named by its id
    g = parse_graph("vertices u h\nedge e u h x2\nedge l h h x2\n")
    base = build_hedgehog(g, ("h",), ()).base
    bar = E(base, "bar:e[1]")
    assert G(base, "bar:e[1]") * bar == V(base, "h")
    assert bar * G(base, "bar:e[1]") == V(base, "p:e[1]")
    assert (G(base, "bar:e[2]") * bar).is_zero()
    assert E(base, "l[2]") == AlgebraElement.edge(base, "l[2]")
    with pytest.raises(GraphValidationError, match="unknown bundle id 'bar:e'"):
        E(base, "bar:e[3]")


def test_parse_errors():
    g = fixture_graph("line2")
    with pytest.raises(ExpressionError):
        parse_element(g, "")
    with pytest.raises(ExpressionError):
        parse_element(g, "nosuch")
    with pytest.raises(ExpressionError):
        parse_element(g, "v1 +")
    with pytest.raises(ExpressionError):
        parse_element(g, "(v1")
    with pytest.raises(ExpressionError):
        parse_element(g, "v1 @ v2")


def test_parse_rejects_bare_scalars():
    g = fixture_graph("line2")
    for expr in ("2", "2 - 2", "1/2", "2 + v1"):
        with pytest.raises(ExpressionError, match="scalar"):
            parse_element(g, expr)


def test_parse_rejects_omega_instances():
    g = fixture_graph("omega-h")
    with pytest.raises(ExpressionError):
        parse_element(g, "m[1]")


def test_format_zero():
    g = fixture_graph("line2")
    assert format_element(V(g, "v1") - V(g, "v1")) == "0"


def test_graded_components():
    g = fixture_graph("chain3")
    x = E(g, "b1") + V(g, "v2") + G(g, "b2") + E(g, "b1") * E(g, "b2")
    parts = graded_components(x)
    assert sorted(parts) == [-1, 0, 1, 2]
    assert parts[0] == V(g, "v2")
    assert parts[-1] == G(g, "b2")
    assert sum(parts.values(), AlgebraElement.zero(g)) == x


def test_v_h_element_subtracts_outside_edges():
    g = fixture_graph("omega-h")
    vh = v_H_element(g, "u", ("h",))
    assert vh == V(g, "u") - E(g, "f") * G(g, "f")
    assert vh * vh == vh  # idempotent

    vh_full = v_H_element(g, "u", ("h", "x"))
    assert vh_full == V(g, "u")


def test_v_h_element_validates():
    g = fixture_graph("omega-h")
    with pytest.raises(GraphValidationError):
        v_H_element(g, "x", ("h",))  # x is not breaking for {h}
    with pytest.raises(GraphValidationError):
        v_H_element(g, "u", ("x",))  # omega bundle escapes {x}


def test_elements_of_different_graphs_do_not_mix():
    a = V(fixture_graph("line2"), "v1")
    b = V(fixture_graph("line3"), "v1")
    with pytest.raises(GraphValidationError):
        _ = a + b


def test_element_hash_never_hashes_the_graph(monkeypatch):
    text = "vertices v w\nedge e v w\nedge f v v\n"
    g, h = parse_graph(text), parse_graph(text)
    assert g is not h
    a = parse_element(g, "2 f f* + e")
    b = parse_element(h, "e + 2 f f*")

    def refuse(self):
        raise AssertionError("Graph.__hash__ called")

    monkeypatch.setattr(type(g), "__hash__", refuse)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, V(g, "w")}) == 2


# -- exact coefficients: ints first, Fractions only on real denominators ------


def _coeffs(a):
    return [c for _, c in sorted(a.terms.items())]


def test_fraction_products_landing_on_integers_are_ints():
    g = fixture_graph("line2")
    v = V(g, "v1")
    x = v.scale(Fraction(1, 2)) * v.scale(2)
    assert x == v
    assert format_element(x) == "1 · v1"
    assert [type(c) for c in _coeffs(x)] == [int]
    assert parse_element(g, "(1/2 v1)(2 v1)") == v


def test_fraction_sums_landing_on_integers_render_like_ints():
    g = fixture_graph("line2")
    half = parse_element(g, "1/2 v1")
    assert [type(c) for c in _coeffs(half)] == [Fraction]
    whole = half + half
    assert format_element(whole) == format_element(V(g, "v1"))
    assert [type(c) for c in _coeffs(whole)] == [int]
    assert format_element(parse_element(g, "1/2 v1 + 1/2 v1")) == "1 · v1"


def test_fraction_one_and_int_one_build_the_same_element():
    g = fixture_graph("chain3")
    mono = E(g, "b2").star().terms.popitem()[0]
    a = AlgebraElement(g, {mono: Fraction(1)})
    b = AlgebraElement(g, {mono: 1})
    assert a == b
    assert hash(a) == hash(b)
    assert [type(c) for c in _coeffs(a)] == [int]
    assert AlgebraElement(g, {mono: Fraction(3, 1)}) == b.scale(3)


def test_element_payload_coefficient_strings():
    g = fixture_graph("line2")
    x = parse_element(g, "3 v1 - 3/2 e1 + 4/2 v2 - 2 e1*")
    coeffs = {
        (tuple(t["real"]), tuple(t["ghost"]), t["anchor"]): t["coeff"]
        for t in element_payload(x)
    }
    assert coeffs == {
        ((), (), "v1"): "3",
        ((), (), "v2"): "2",
        (("e1",), (), "v2"): "-3/2",
        ((), ("e1",), "v2"): "-2",
    }
    assert element_payload(V(g, "v1").scale(Fraction(6, 3))) == element_payload(
        V(g, "v1").scale(2)
    )


def test_scale_accepts_what_fraction_accepts():
    g = fixture_graph("line2")
    v = V(g, "v1")
    assert v.scale("3/2") == v.scale(Fraction(3, 2))
    assert format_element(v.scale("3/2")) == "3/2 · v1"
    assert v.scale("4/2") == 2 * v
    assert v.scale(0.5) == v.scale(Fraction(1, 2))
    assert v.scale("0").is_zero()


def test_instance_table_expands_only_vertices_rewritten_at():
    # γ(b) = f is rewritten; a's bundle is looked up instance by instance
    g = parse_graph("vertices a b c\nedge e a b x1000000\nedge f b c\n")
    x = parse_element(g, "e[2] f f* e[2]*")
    assert format_element(x) == "1 · e[2] (e[2])*"
    table = _instance_table(g)
    assert "b" in table and "a" not in table
    assert table["e[2]"] == ("a", "b", False)
    assert table["f"] == ("b", "c", True)
