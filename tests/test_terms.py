import random
import re
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

from leavittpath.random_graphs import random_graphs
from leavittpath.terms import (
    Monomial,
    _instance_table,
    _normalize_monomial,
    _tokenize,
    element_payload,
)

from conftest import FIXTURE_NAMES, fixture_graph


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


# The tokenizer as it was written with a regex: the reference the scanner
# in terms._tokenize is held against.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\[[0-9]+\])?)"
    r"|(?P<sym>[()*+-]))"
)


def _regex_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExpressionError(f"unexpected character '{stripped[0]}'", col)
        pos = m.end()
        if m.group("number"):
            tokens.append(("number", m.group("number"), m.start("number") + 1))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident") + 1))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym") + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ExpressionError as exc:
        return str(exc), exc.column


# ASCII digits and letters are tokens, and Unicode digits and letters are
# not; the whitespace includes the Unicode kinds \s matches
EXPRESSION_ALPHABET = (
    "0123456789/" "aeZ_x9" "[]" "()*+-" " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"
    "\u0663\u00b2\uff11\u00e9\u00df" "#.@!^,;"
)


def test_tokenizer_matches_the_regex_tokenizer():
    # \s is str.isspace on every code point, so the scanner's whitespace
    # test is the regex's
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    rng = random.Random(20190524)
    texts = ["", " ", "e[", "e[]", "e[2]]", "1/", "1/2/3", "x1[07]y", "\u3000e1"]
    for _ in range(20000):
        n = rng.randrange(1, 12)
        texts.append("".join(rng.choice(EXPRESSION_ALPHABET) for _ in range(n)))
    for text in texts:
        assert _tokens_or_error(_tokenize, text) == (
            _tokens_or_error(_regex_tokenize, text)
        ), repr(text)


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

    # H is read once, so an iterator serves as well as a tuple
    assert v_H_element(g, "u", iter(("h", "x"))) == V(g, "u")


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
    with pytest.raises(GraphValidationError, match="different graphs"):
        _ = a * b
    # two equal graph objects are one graph
    c = V(fixture_graph("line2"), "v1")
    assert a * c == a


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


# -- the fused product against the unfused route ------------------------------
#
# The reference below is the product as the engine computed it before the
# junction and the CK2 test were fused into one loop: each pair of
# monomials is resolved on its own, and every result is handed to the full
# rewrite, `_normalize_monomial`.  The junction is kept here as a copy,
# since the engine no longer has it on its own; it is slow and kept only
# as an oracle.


def _reference_junction(table, m1, m2):
    """(α₁β₁*)(α₂β₂*): β₁ against α₂, matched from the start, or None."""
    real1, b, anchor1 = m1
    a, ghost2, anchor2 = m2
    lb, la = len(b), len(a)
    if lb > la:
        if b[:la] != a:
            return None
        delta = b[la:]
        if not la and anchor2 != table[delta[0]][0]:
            return None
        return Monomial(real1, ghost2 + delta, anchor1)
    if la > lb:
        if a[:lb] != b:
            return None
        delta = a[lb:]
        if not lb and anchor1 != table[delta[0]][0]:
            return None
        return Monomial(real1 + delta, ghost2, anchor2)
    if b != a or (not la and anchor1 != anchor2):
        return None
    return Monomial(real1, ghost2, anchor2)


def _reference_product(g, x_terms, y_terms, seen=None):
    """The terms of x·y; ``seen`` counts rewrites and cancelled terms."""
    table = _instance_table(g)
    acc = {}
    for m1, c1 in x_terms.items():
        for m2, c2 in y_terms.items():
            prod = _reference_junction(table, m1, m2)
            if prod is None:
                continue
            if seen is not None and prod.real and prod.ghost and (
                prod.real[-1] == prod.ghost[-1] and table[prod.real[-1]][2]
            ):
                seen["ck2"] += 1
            _normalize_monomial(table, prod, c1 * c2, acc)
    if seen is not None:
        seen["cancelled"] += sum(1 for c in acc.values() if not c)
    return {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in acc.items()
        if c
    }


_SCALARS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2))


def _generators(g):
    """Vertices, addressable edges and their ghosts, as terms dicts."""
    gens = [{Monomial((), (), v): 1} for v in g.vertices]
    for b in g.bundles:
        if not b.is_omega:
            for inst in b.instances:
                gens.append({Monomial((inst,), (), b.target): 1})
                gens.append({Monomial((), (inst,), b.target): 1})
    return gens


def _random_element(rng, g, gens):
    """A short sum of scaled words in the generators, multiplied out by the
    reference and normalised by the public constructor: a normal form that
    the fused product did not build.  One summand in three is repeated with
    the opposite sign, so that sums cancel."""
    acc = {}
    for _ in range(rng.choice((1, 1, 2, 3))):
        word = gens[rng.randrange(len(gens))]
        for _ in range(rng.randint(0, 4)):
            longer = _reference_product(g, word, gens[rng.randrange(len(gens))])
            word = longer or word  # a factor that kills the word is skipped
        k = rng.choice(_SCALARS)
        for sign in (1, -1) if rng.random() < 1 / 3 else (1,):
            for m, c in word.items():
                acc[m] = acc.get(m, 0) + sign * k * c
    return AlgebraElement(g, acc)


def _product_graphs():
    graphs = [fixture_graph(name) for name in FIXTURE_NAMES]
    graphs += random_graphs(60, 2024, max_vertices=6)
    return [g for g in graphs if _generators(g)]


def _flipped(terms):
    return {Monomial(m.ghost, m.real, m.anchor): c for m, c in terms.items()}


def _typed(terms):
    return {m: (c, type(c)) for m, c in terms.items()}


def test_product_matches_the_unfused_reference():
    rng = random.Random(17)
    seen = {"ck2": 0, "cancelled": 0, "single": 0, "fraction": 0, "zero": 0,
            "zero_operand": 0, "omega": 0}
    for g in _product_graphs():
        gens = _generators(g)
        seen["omega"] += any(b.is_omega for b in g.bundles)
        for _ in range(60):
            x, y = _random_element(rng, g, gens), _random_element(rng, g, gens)
            if rng.random() < 0.5:  # x·x* meets every junction and rewrites
                y += AlgebraElement(g, _flipped(x.terms))
            expected = _reference_product(g, x.terms, y.terms, seen)
            assert _typed((x * y).terms) == _typed(expected), (x, y)
            seen["single"] += len(x.terms) == 1 == len(y.terms) == len(expected)
            seen["fraction"] += any(type(c) is not int for c in (*x.terms.values(),
                                                                 *y.terms.values()))
            seen["zero"] += not expected
            seen["zero_operand"] += not x.terms or not y.terms
    # the sample holds every case the fused loop treats apart
    assert min(seen.values()) > 0, seen


def test_products_whose_terms_cancel():
    g = fixture_graph("chain3")
    b2b2 = E(g, "b2") * G(g, "b2")  # b2 is not γ(v2), so b2 b2* is normal
    x = E(g, "f1") - E(g, "f1") * b2b2
    assert (x * b2b2).is_zero()
    assert _reference_product(g, x.terms, b2b2.terms) == {}
    y = E(g, "f1") + E(g, "f1") * b2b2.scale(Fraction(-1, 2))
    assert _typed((y * b2b2.scale(2)).terms) == {
        Monomial(("f1", "b2"), ("b2",), "v2"): (1, int)
    }


def test_single_term_products_demote_integral_fractions():
    g = fixture_graph("chain3")
    x = AlgebraElement(g, {Monomial(("f1",), (), "v2"): Fraction(2, 3)})
    y = AlgebraElement(g, {Monomial(("b2",), (), "v2"): Fraction(3, 2)})
    assert _typed((x * y).terms) == {Monomial(("f1", "b2"), (), "v2"): (1, int)}
    # and a single-term product that CK2 rewrites into several terms
    z = AlgebraElement(g, {Monomial((), ("b1",), "v2"): Fraction(3, 2)})
    b1 = AlgebraElement(g, {Monomial(("b1",), (), "v2"): Fraction(2, 3)})
    assert _typed((b1 * z).terms) == _typed(
        _reference_product(g, b1.terms, z.terms)
    )
    assert b1 * z == V(g, "v2") - E(g, "b2") * G(g, "b2") - E(g, "f2") * G(g, "f2")


def test_scale_by_an_int_demotes_fractions_it_makes_whole():
    g = fixture_graph("line2")
    half = V(g, "v1").scale(Fraction(1, 2)) + E(g, "e1").scale(Fraction(1, 3))
    assert _typed(half.scale(6).terms) == {
        Monomial((), (), "v1"): (3, int),
        Monomial(("e1",), (), "v2"): (2, int),
    }
    assert _typed(half.scale(2).terms) == {
        Monomial((), (), "v1"): (1, int),
        Monomial(("e1",), (), "v2"): (Fraction(2, 3), Fraction),
    }
    assert half.scale(0).is_zero() and half.scale(Fraction(0)).is_zero()


# -- sums, products and scalings by 0 or 1 ------------------------------------


def test_identities_give_an_operand_and_leave_the_operands_alone():
    rng = random.Random(31)
    elsewhere = parse_graph("vertices elsewhere\n")
    zero_h, w = AlgebraElement.zero(elsewhere), V(elsewhere, "elsewhere")
    for g in _product_graphs():
        gens = _generators(g)
        zero = AlgebraElement.zero(g)
        for _ in range(20):
            x = _random_element(rng, g, gens)
            before = _typed(x.terms)
            for same in (x + zero, zero + x, x - zero,
                         x.scale(1), x.scale(Fraction(1)), x.scale("1")):
                assert _typed(same.terms) == before, x
            assert zero - x == -x
            assert (x * zero).is_zero() and (zero * x).is_zero()
            # a zero of another graph is refused like any other element
            for other in (zero_h, w):
                for op in (lambda a, b: a + b, lambda a, b: a * b):
                    for a, b in ((x, other), (other, x), (zero, other)):
                        with pytest.raises(GraphValidationError):
                            op(a, b)
            assert _typed(x.terms) == before and zero.terms == {}
    assert zero_h.terms == {} and w.terms == {Monomial((), (), "elsewhere"): 1}


def test_a_zero_operand_never_reads_the_instance_table():
    g = fixture_graph("chain3")  # parsed afresh, so its memo is empty
    zero, v = AlgebraElement.zero(g), V(g, "v2")
    assert (zero * v).is_zero() and (v * zero).is_zero()
    assert f"{_instance_table.__module__}.{_instance_table.__qualname__}" not in g._memo
    assert _instance_table(g) == {}


# -- the involution keeps normal form; the public constructor normalises ------


def test_star_is_the_normalised_flip_and_an_involution():
    rng = random.Random(5)
    omega = 0
    for g in _product_graphs():
        gens = _generators(g)
        omega += any(b.is_omega for b in g.bundles)
        for _ in range(10):
            x = _random_element(rng, g, gens)
            flipped = AlgebraElement(g, _flipped(x.terms))
            assert _typed(x.star().terms) == _typed(flipped.terms)
            assert x.star().star() == x
    assert omega > 0


def test_public_constructor_rewrites_by_ck2():
    g = fixture_graph("chain3")
    gamma = Monomial(("b1",), ("b1",), "v2")  # b1 is γ(v2), v2 is regular
    expected = V(g, "v2") - E(g, "b2") * G(g, "b2") - E(g, "f2") * G(g, "f2")
    assert AlgebraElement(g, {gamma: 1}) == expected
    assert AlgebraElement(g, {gamma: Fraction(4, 2)}) == expected.scale(2)
    assert _typed(AlgebraElement(g, {gamma: Fraction(4, 2)}).terms) == _typed(
        expected.scale(2).terms
    )
    # nested: f1 b1 b1* f1* rewrites at v2, then f1 f1* stays (a1 is γ(v1))
    nested = Monomial(("f1", "b1"), ("f1", "b1"), "v2")
    assert AlgebraElement(g, {nested: 1}) == E(g, "f1") * expected * G(g, "f1")


@pytest.mark.parametrize("name, mono, fault", [
    ("chain3", Monomial(("zz",), (), "v1"), "unknown bundle id 'zz'"),
    ("chain3", Monomial(("a1", "b1"), (), "v2"), "'b1' does not leave 'v1'"),
    ("chain3", Monomial((), ("f1", "a1"), "v1"), "'a1' does not leave 'v2'"),
    ("chain3", Monomial(("b1",), (), "nope"), "anchor 'nope' is not a vertex"),
    ("chain3", Monomial((), (), "qq"), "anchor 'qq' is not a vertex"),
    ("chain3", Monomial(("v1",), (), "v1"), "unknown bundle id 'v1'"),
    ("chain3", Monomial(("a1",), ("a1",), "v2"), "path ends at 'v1', not at the anchor"),
    ("chain3", Monomial(("b1[1]",), ("b1",), "v2"), "'b1[1]' is written 'b1'"),
    ("omega-h", Monomial(("m",), (), "h"), "'m' refers to omega bundle 'm'"),
    ("omega-h", Monomial(("f",), ("m[1]",), "x"), "'m[1]' refers to omega bundle 'm'"),
], ids=("unknown-edge", "real-path-breaks", "ghost-path-breaks", "unknown-anchor",
        "unknown-vertex", "vertex-in-path", "path-misses-anchor", "uncanonical-id",
        "omega-member", "omega-member-indexed"))
def test_public_constructor_refuses_what_is_no_path_pair(name, mono, fault):
    g = fixture_graph(name)
    with pytest.raises(GraphValidationError, match=re.escape(f"{mono!r}: {fault}")):
        AlgebraElement(g, {mono: 1})


def test_public_constructor_keeps_plain_triples_as_monomials():
    g = fixture_graph("chain3")
    plain = AlgebraElement(g, {(("f1",), (), "v2"): 1})
    assert plain == E(g, "f1") and hash(plain) == hash(E(g, "f1"))
    assert [type(m) for m in plain.terms] == [Monomial]
    assert format_element(plain) == "1 · f1"
    assert str(plain) == "AlgebraElement(1 · f1)"
    for key in ((("f1",), "v2"), "v2"):
        with pytest.raises(GraphValidationError,
                           match=re.escape(f"monomial key {key!r} is not a triple")):
            AlgebraElement(g, {key: 1})
