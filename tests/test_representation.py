"""The term engine against a faithful representation of L(E).

For a finite acyclic graph E without ω-bundles, L(E) ≅ ⊕_w M_{n(w)}(K)
over the sinks w, where n(w) counts the paths ending at w (Abrams, Aranda
Pino & Siles Molina, "Finite-dimensional Leavitt path algebras", J. Pure
Appl. Algebra 209 (2007)).  The isomorphism is the action φ on the
K-span of those paths:

    v·p = p if s(p) = v,   e·p = ep,   e*·(ep′) = p′,

each zero when the path does not fit.  A monomial αβ* sends βp′ to αp′.
Matrices here are sparse dicts {(row path, column path): coefficient}.
"""

import itertools
import random
from fractions import Fraction

from leavittpath import EdgeBundle, Graph
from leavittpath.graph import SINK, parse_instance
from leavittpath.terms import AlgebraElement, Monomial

GRAPHS = 60
PAIRS_PER_GRAPH = 40
COEFFS = (1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def random_acyclic_graph(rng: random.Random) -> Graph:
    """n ≤ 5 vertices in a shuffled topological order, multiplicity ≤ 2."""
    n = rng.randint(1, 5)
    order = [f"v{i}" for i in range(1, n + 1)]
    rng.shuffle(order)
    bundles = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            eid = f"e{len(bundles) + 1}"
            bundles.append(EdgeBundle(eid, order[i], order[j], rng.randint(1, 2)))
    return Graph(order, bundles)


def in_bundles(g: Graph) -> dict:
    """vertex -> the bundles landing on it, in bundle-id order."""
    into = {v: [] for v in g.vertices}
    for b in g.bundles:
        into[b.target].append(b)
    return into


def paths_into(g: Graph) -> dict:
    """vertex u -> every path ending at u, as (source, instances)."""
    incoming = in_bundles(g)
    into = {}
    for u in topological_order(g):
        into[u] = [(u, ())]
        for b in incoming[u]:
            for inst in b.instances:
                into[u].extend((src, path + (inst,)) for src, path in into[b.source])
    return into


def topological_order(g: Graph) -> list:
    """Every vertex after all of its predecessors."""
    incoming = in_bundles(g)
    seen, order = set(), []

    def visit(v):
        if v in seen:
            return
        seen.add(v)
        for b in incoming[v]:
            visit(b.source)
        order.append(v)

    for v in g.vertices:
        visit(v)
    return order


def phi_monomial(g: Graph, m: Monomial, basis) -> dict:
    """αβ*: the basis path βp′ goes to αp′; α's source is anchor if α = ()."""
    src = parse_instance(g, m.real[0])[0].source if m.real else m.anchor
    out = {}
    k = len(m.ghost)
    for p in basis:
        start, edges = p
        if m.ghost:
            if edges[:k] != m.ghost:
                continue
        elif start != m.anchor:
            continue
        out[((src, m.real + edges[k:]), p)] = 1
    return out


def phi(x: AlgebraElement, basis) -> dict:
    out = {}
    for m, c in x.terms.items():
        for key, one in phi_monomial(x.graph, m, basis).items():
            out[key] = out.get(key, 0) + c * one
    return {k: c for k, c in out.items() if c}


def mat_mul(a: dict, b: dict) -> dict:
    rows_of_b = {}
    for (i, j), c in b.items():
        rows_of_b.setdefault(i, []).append((j, c))
    out = {}
    for (i, k), c in a.items():
        for j, d in rows_of_b.get(k, ()):
            out[i, j] = out.get((i, j), 0) + c * d
    return {k: c for k, c in out.items() if c}


def mat_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def transpose(a: dict) -> dict:
    return {(j, i): c for (i, j), c in a.items()}


def normal_form_monomials(g: Graph, into: dict) -> list:
    """Every αβ* with r(α) = r(β) that the engine leaves as it is."""
    found = []
    for u in g.vertices:
        for (_, alpha), (_, beta) in itertools.product(into[u], repeat=2):
            m = Monomial(alpha, beta, u)
            if AlgebraElement(g, {m: 1}).terms == {m: 1}:
                found.append(m)
    return found


def random_element(g, rng, monomials, long_ones):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        pool = long_ones if long_ones and rng.random() < 0.7 else monomials
        terms[rng.choice(pool)] = rng.choice(COEFFS)
    return AlgebraElement(g, terms)


def test_term_engine_is_faithful_on_acyclic_graphs():
    rng = random.Random(2007)
    deep = 0
    for _ in range(GRAPHS):
        g = random_acyclic_graph(rng)
        into = paths_into(g)
        sinks = g.set_of(g.kind_mask(SINK))
        basis = [p for w in sinks for p in into[w]]
        monomials = normal_form_monomials(g, into)
        assert len(monomials) == sum(len(into[w]) ** 2 for w in sinks)
        long_ones = [m for m in monomials if len(m.real) >= 2 and len(m.ghost) >= 2]
        deep += bool(long_ones)
        for _ in range(PAIRS_PER_GRAPH):
            x = random_element(g, rng, monomials, long_ones)
            y = random_element(g, rng, monomials, long_ones)
            px, py = phi(x, basis), phi(y, basis)
            pxy = phi(x * y, basis)
            assert pxy == mat_mul(px, py)
            assert (x * y).is_zero() == (not pxy)
            assert phi(x + y, basis) == mat_add(px, py)
            assert phi(x.star(), basis) == transpose(px)
            assert x.is_zero() == (not px)
    assert deep >= GRAPHS // 4  # enough graphs have paths of length 2 to draw from
