"""Desk-scale symbolic arithmetic in the path algebra of a graph.

Elements are rational linear combinations of monomials α·β* where α and β
are paths (sequences of edge instances) with a common range vertex.  The
defining relations are applied eagerly:

* (V)   vw = δ_vw v            — vertices are orthogonal idempotents;
* (E1)  s(e)e = e r(e) = e     — edges absorb their endpoints;
* (E2)  r(e)e* = e* s(e) = e*  — ghost edges likewise;
* (CK1) e* e' = δ_ee' r(e)     — ghost-against-real cancellation;
* (CK2) v = Σ_{s(e)=v} e e*    — at Regular v, oriented as a rewrite.

The CK2 rewrite fires when a monomial's real and ghost paths both end in
the *special edge* of their common source: γ(v) is the smallest edge
instance leaving v (bundle id lexicographic, index numeric).  Then

    α′γγ*β′*  →  α′vβ′*  −  Σ_{f ∈ s⁻¹(v), f ≠ γ} α′ff*β′*

which terminates (the first term is shorter, the siblings end in a
non-special pair) and yields the canonical spanning basis.  Coefficients
are exact: ints, and Fractions only where a denominator is left.
"""

import sys

from .closures import check_breaking
from .errors import ExpressionError, GraphValidationError
from .graph import OMEGA, Graph, _record, instance_id, parse_instance, per_graph


def _exact(k):
    """k as a coefficient: an int when integral, else a Fraction.  Accepts
    whatever ``Fraction()`` accepts."""
    if type(k) is not int:
        from fractions import Fraction  # loaded by the first non-int coefficient

        k = Fraction(k)
        if k.denominator == 1:
            return k.numerator
    return k


def _is_scalar(k) -> bool:
    """k is an int or a Fraction; a Fraction exists only once fractions is
    loaded, so an int scalar never loads it."""
    if isinstance(k, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(k, fractions.Fraction)


def _settled(acc: dict) -> dict:
    """acc without its zero terms, integral Fractions demoted to int."""
    return {m: c if type(c) is int else _exact(c) for m, c in acc.items() if c}


class Monomial(_record("Monomial", "real ghost anchor")):
    """α β* with r(α) = r(β) = anchor; both paths stored unstarred."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.real) - len(self.ghost)

    def sort_key(self):
        return (len(self.real) + len(self.ghost), self.real, self.ghost, self.anchor)

    def render(self) -> str:
        parts = []
        if self.real:
            parts.append(" ".join(self.real))
        if self.ghost:
            parts.append("(" + " ".join(self.ghost) + ")*")
        if not parts:
            parts.append(self.anchor)
        return " ".join(parts)


class _InstanceTable(dict):
    """What the engine asks of a graph, each key filled on first use.

    An edge-instance id maps to (source, target, special), where special
    says the instance is γ(source) at a Regular source.  A vertex id maps
    to the (instance, target) pairs leaving it, in canonical order.  Vertex
    and bundle ids never coincide, and an indexed instance id is no vertex
    id, so one dict holds both.  Filling lazily matters: a vertex the
    engine never rewrites at may carry a bundle too big to expand.
    """

    __slots__ = ("graph",)

    def __init__(self, g: Graph):
        super().__init__()
        self.graph = g

    def __missing__(self, key: str):
        g = self.graph
        if g.has_vertex(key):
            value = tuple(
                (inst, b.target) for b in g.out_bundles(key) for inst in b.instances
            )
        else:
            b, _ = parse_instance(g, key)
            src = b.source
            value = (
                src,
                b.target,
                g.is_regular(src) and key == instance_id(g.out_bundles(src)[0], 1),
            )
        self[key] = value
        return value


@per_graph
def _instance_table(g: Graph) -> _InstanceTable:
    return _InstanceTable(g)


def _check_path_pair(g: Graph, m: Monomial) -> None:
    """Raise unless m's paths are paths of g, named by canonical instance
    ids, that end at its anchor, a vertex of g."""
    real, ghost, anchor = m
    if not g.has_vertex(anchor):
        raise GraphValidationError(f"{m!r}: anchor '{anchor}' is not a vertex")
    for path in (real, ghost):
        at = None
        for inst in path:
            try:  # refuses vertex ids, unknown bundles and ω members
                b, idx = parse_instance(g, inst)
            except GraphValidationError as exc:
                raise GraphValidationError(f"{m!r}: {exc}") from None
            if instance_id(b, idx) != inst:
                raise GraphValidationError(
                    f"{m!r}: '{inst}' is written '{instance_id(b, idx)}'"
                )
            if at is not None and b.source != at:
                raise GraphValidationError(f"{m!r}: '{inst}' does not leave '{at}'")
            at = b.target
        if at is not None and at != anchor:
            raise GraphValidationError(f"{m!r}: path ends at '{at}', not at the anchor")


def _normalize_monomial(table: _InstanceTable, m: Monomial, c, acc: dict) -> None:
    """CK2-rewrite m into normal-form terms, accumulating into acc."""
    work = [(m, c)]
    while work:
        mono, c = work.pop()
        real, ghost, _ = mono
        if real and ghost and real[-1] == ghost[-1]:
            gamma = real[-1]
            v, _, special = table[gamma]
            if special:
                head_real, head_ghost = real[:-1], ghost[:-1]
                work.append((Monomial(head_real, head_ghost, v), c))
                for f, anchor in table[v]:
                    if f != gamma:
                        work.append(
                            (Monomial(head_real + (f,), head_ghost + (f,), anchor), -c)
                        )
                continue
        acc[mono] = acc.get(mono, 0) + c


class AlgebraElement:
    """Immutable normal-form linear combination of monomials.

    Coefficients are ints, and Fractions only where a denominator is left.
    """

    __slots__ = ("graph", "_terms")

    def __init__(self, graph: Graph, terms=None):
        self.graph = graph
        table = _instance_table(graph)
        acc: dict = {}
        for mono, coeff in dict(terms or {}).items():
            _check_path_pair(graph, mono)
            _normalize_monomial(table, mono, _exact(coeff), acc)
        self._terms = _settled(acc)

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(g: Graph) -> "AlgebraElement":
        return _normal(g, {})

    @staticmethod
    def vertex(g: Graph, v: str) -> "AlgebraElement":
        g.check_vertices((v,))
        return _normal(g, {Monomial((), (), v): 1})

    @staticmethod
    def edge(g: Graph, inst: str) -> "AlgebraElement":
        b, idx = parse_instance(g, inst)
        return _normal(g, {Monomial((instance_id(b, idx),), (), b.target): 1})

    @staticmethod
    def ghost_edge(g: Graph, inst: str) -> "AlgebraElement":
        return AlgebraElement.edge(g, inst).star()

    # -- arithmetic --------------------------------------------------------

    def _require_same_graph(self, other: "AlgebraElement") -> None:
        if self.graph != other.graph:
            raise GraphValidationError("elements belong to different graphs")

    def __add__(self, other):
        if type(other) is not AlgebraElement and not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.graph is not self.graph:
            self._require_same_graph(other)
        if not other._terms:  # elements are immutable, so 0 + x is x itself
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        get = out.get
        for m, c in other._terms.items():
            s = get(m, 0) + c
            if s:
                out[m] = s if type(s) is int else _exact(s)
            else:
                out.pop(m, None)
        return _normal(self.graph, out)

    def __neg__(self):
        return _normal(self.graph, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        if type(k) is not int:
            k = _exact(k)
        if k == 1:
            return self
        if not k:
            return _normal(self.graph, {})
        # ℚ has no zero divisors, so no term vanishes; only a product that
        # is not an int can need demoting
        return _normal(self.graph, {
            m: p if type(p := c * k) is int else _exact(p)
            for m, c in self._terms.items()
        })

    def __mul__(self, other):
        if type(other) is not AlgebraElement:
            if _is_scalar(other):
                return self.scale(other)
            if not isinstance(other, AlgebraElement):
                return NotImplemented
        g = self.graph
        if other.graph is not g:
            self._require_same_graph(other)
        left, right = self._terms, other._terms
        if not left:  # the zero operand is the product, whatever the other
            return self
        if not right:
            return other
        table = _instance_table(g)
        single = len(left) == 1 == len(right)
        new = tuple.__new__  # skips Monomial's Python-level __new__
        acc: dict = {}
        get = acc.get
        # (α₁β₁*)(α₂β₂*): β₁ against α₂, matched from the start.  A leftover
        # suffix keeps one operand's last real/ghost pair, which is normal,
        # so only β₁ = α₂ can leave a pair that CK2 rewrites.
        for (real1, b, anchor1), c1 in left.items():
            lb = len(b)
            for (a, ghost2, anchor2), c2 in right.items():
                la = len(a)
                if lb > la:
                    if b[:la] != a or not la and anchor2 != table[b[0]][0]:
                        continue
                    m = new(Monomial, (real1, ghost2 + b[la:], anchor1))
                elif la > lb:
                    if a[:lb] != b or not lb and anchor1 != table[a[0]][0]:
                        continue
                    m = new(Monomial, (real1 + a[lb:], ghost2, anchor2))
                elif b != a or not la and anchor1 != anchor2:
                    continue
                else:
                    m = new(Monomial, (real1, ghost2, anchor2))
                    if real1 and ghost2 and real1[-1] == ghost2[-1]:
                        if table[real1[-1]][2]:  # γγ* with γ special
                            _normalize_monomial(table, m, c1 * c2, acc)
                            continue
                c = c1 * c2
                if single:  # the one product, and no rewrite
                    return _normal(g, {m: c if type(c) is int else _exact(c)})
                acc[m] = get(m, 0) + c
        return _normal(g, _settled(acc) if acc else acc)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        """The involution: (αβ*)* = βα*, antimultiplicative, ℚ-linear.

        The CK2 trigger (both paths end in one special edge) reads real and
        ghost alike, so the flip of a normal form is a normal form."""
        return _normal(self.graph, {
            Monomial(ghost, real, anchor): c
            for (real, ghost, anchor), c in self._terms.items()
        })

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.graph is other.graph or self.graph == other.graph
        ) and self._terms == other._terms

    def __hash__(self):
        # equal elements have equal terms; hashing the graph would cost O(|E|)
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"AlgebraElement({format_element(self)})"


def _normal(graph: Graph, terms: dict) -> AlgebraElement:
    """An element over ``terms``, already a normal-form dict of nonzero exact
    coefficients, kept without a copy."""
    a = object.__new__(AlgebraElement)
    a.graph = graph
    a._terms = terms
    return a


def graded_components(a: AlgebraElement) -> dict:
    """Split by degree(αβ*) = |α| − |β|; the components sum back to a."""
    split: dict[int, dict] = {}
    for m, c in a._terms.items():
        split.setdefault(m.degree, {})[m] = c
    return {d: _normal(a.graph, terms) for d, terms in sorted(split.items())}


def v_H_element(g: Graph, v: str, H) -> AlgebraElement:
    """v^H = v − Σ ee* over the finitely many edges from v landing outside H."""
    hset = set(H)
    check_breaking(g, hset, (v,))
    terms = {Monomial((), (), v): 1}
    for b in g.out_bundles(v):
        if b.mult is OMEGA or b.target in hset:
            continue
        for inst in b.instances:
            terms[Monomial((inst,), (inst,), b.target)] = -1
    # v emits infinitely many edges, so no CK2 rewrite applies at v
    return _normal(g, terms)


# -- rendering ---------------------------------------------------------------


def sorted_terms(a: AlgebraElement):
    return sorted(a._terms.items(), key=lambda item: item[0].sort_key())


def format_element(a: AlgebraElement) -> str:
    if a.is_zero():
        return "0"
    return "\n".join(
        f"{c} · {m.render()}" for m, c in sorted_terms(a)
    )


def element_payload(a: AlgebraElement) -> list:
    """JSON-ready term list in canonical order."""
    return [
        {
            "coeff": str(c),
            "real": list(m.real),
            "ghost": list(m.ghost),
            "anchor": m.anchor,
        }
        for m, c in sorted_terms(a)
    ]


# -- expression parsing ------------------------------------------------------

_DIGITS = frozenset("0123456789")
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ID_REST = _ID_START | _DIGITS


def _skip(text: str, pos: int, chars) -> int:
    """The first position from ``pos`` on whose character is not in ``chars``."""
    n = len(text)
    while pos < n and text[pos] in chars:
        pos += 1
    return pos


def _tokenize(text: str):
    """(kind, text, column) per token, then an ``end`` token.

    A number is ``[0-9]+(/[0-9]+)?``, an ident ``[A-Za-z_][A-Za-z0-9_]*``
    with an optional ``[<digits>]``, a sym one of ``()*+-``, each taken as
    long as it goes; whitespace (``str.isspace``) separates them.
    """
    tokens = []
    n = len(text)
    pos = 0
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            break
        start, ch = pos, text[pos]
        if ch in _DIGITS:
            kind = "number"
            pos = _skip(text, pos, _DIGITS)
            if text.startswith("/", pos) and pos + 1 < n and text[pos + 1] in _DIGITS:
                pos = _skip(text, pos + 1, _DIGITS)
        elif ch in _ID_START:
            kind = "ident"
            pos = _skip(text, pos, _ID_REST)
            if text.startswith("[", pos):
                end = _skip(text, pos + 1, _DIGITS)
                if end > pos + 1 and text.startswith("]", end):
                    pos = end + 1
        elif ch in "()*+-":
            kind = "sym"
            pos += 1
        else:
            raise ExpressionError(f"unexpected character '{ch}'", start + 1)
        tokens.append((kind, text[start:pos], start + 1))
    tokens.append(("end", "", n + 1))
    return tokens


_MAX_NESTING = 100


class _Parser:
    """Recursive descent over: sum of products of starred atoms.

    Parentheses nest at most _MAX_NESTING deep, so the recursion depth stays
    bounded whatever the input.
    """

    def __init__(self, g: Graph, text: str):
        self.g = g
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token '{text}'", col)
        return value

    def expr(self):
        value = self.term(allow_neg=True)
        while True:
            kind, text, col = self.peek()
            if kind == "sym" and text in "+-":
                self.advance()
                rhs = self.term(allow_neg=False)
                value = self._combine_sum(value, rhs, text, col)
            else:
                return value

    def term(self, allow_neg: bool):
        negate = False
        kind, text, _ = self.peek()
        if allow_neg and kind == "sym" and text == "-":
            self.advance()
            negate = True
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind in ("number", "ident") or (kind == "sym" and text == "("):
                value = value * self.factor()
            else:
                break
        return -value if negate else value

    def factor(self):
        value = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text == "*":
                self.advance()
                # a starred scalar is the scalar itself (ℚ is fixed by *)
                if isinstance(value, AlgebraElement):
                    value = value.star()
            else:
                return value

    def atom(self):
        kind, text, col = self.advance()
        if kind == "number":
            num, _, den = text.partition("/")
            try:
                num, den = int(num), int(den or "1")
            except ValueError:  # past int()'s digit limit
                raise ExpressionError("number has too many digits", col) from None
            if den == 0:
                raise ExpressionError("zero denominator", col)
            if num % den == 0:
                return num // den
            from fractions import Fraction

            return Fraction(num, den)
        if kind == "ident":
            return self._resolve(text, col)
        if kind == "sym" and text == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ExpressionError(
                    f"parentheses nested deeper than {_MAX_NESTING}", col
                )
            value = self.expr()
            kind, text, col = self.advance()
            if not (kind == "sym" and text == ")"):
                raise ExpressionError("expected ')'", col)
            self.depth -= 1
            return value
        raise ExpressionError(
            f"unexpected token '{text}'" if text else "unexpected end of expression",
            col,
        )

    def _resolve(self, name: str, col: int) -> AlgebraElement:
        if self.g.has_vertex(name):
            return AlgebraElement.vertex(self.g, name)
        base = name.split("[", 1)[0]
        if self.g.has_bundle(base):
            try:
                return AlgebraElement.edge(self.g, name)
            except GraphValidationError as exc:
                raise ExpressionError(str(exc), col) from None
        raise ExpressionError(f"unknown generator '{name}'", col)

    def _combine_sum(self, lhs, rhs, op: str, col: int):
        if not (isinstance(lhs, AlgebraElement) and isinstance(rhs, AlgebraElement)):
            raise ExpressionError("scalar term without generator", col)
        return lhs + rhs if op == "+" else lhs - rhs


def parse_element(g: Graph, expr: str) -> AlgebraElement:
    """Parse an expression into a normalized element.

    Grammar: rational scalars, vertex ids, edge-instance ids (``e`` or
    ``e[i]``), ``+``, ``-``, parentheses, juxtaposition for products, and a
    postfix ``*`` for the involution.  A bare scalar is rejected: elements
    live in the span of the monomials.
    """
    value = _Parser(g, expr).parse()
    if not isinstance(value, AlgebraElement):
        raise ExpressionError("scalar term without generator")
    return value
