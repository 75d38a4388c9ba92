import gc
import hashlib
import math
import random
import tracemalloc

import pytest

from leavittpath import (
    OMEGA,
    EdgeBundle,
    Graph,
    GraphSyntaxError,
    GraphValidationError,
    condense,
    graph_digest,
    parse_graph,
    to_dot,
    to_text,
)
from leavittpath.graph import (
    INFINITE_EMITTER,
    REGULAR,
    SINK,
    instance_id,
    parse_instance,
)
from leavittpath.random_graphs import random_graphs

from conftest import FIXTURE_NAMES, fixture_graph


def test_parse_basic():
    g = parse_graph("vertices a b\nedge e a b\n")
    assert g.vertices == ("a", "b")
    assert len(g.bundles) == 1
    assert g.bundles[0] == EdgeBundle("e", "a", "b", 1)


def test_parse_multiplicity_and_omega():
    g = parse_graph("vertices v w\nedge e v w x3\nbundle m v w omega\n")
    assert g.bundle("e").mult == 3
    assert g.bundle("m").mult is OMEGA
    assert g.bundle("m").is_omega


def test_edge_and_bundle_keywords_interchangeable():
    g1 = parse_graph("vertices v\nedge e v v\n")
    g2 = parse_graph("vertices v\nbundle e v v\n")
    assert g1 == g2


def test_parse_comments_and_blank_lines():
    text = "# a graph\nvertices v w\n\nedge e v w  # trailing\n"
    g = parse_graph(text)
    assert g.vertices == ("v", "w")


def test_parse_errors_carry_position():
    with pytest.raises(GraphSyntaxError) as ei:
        parse_graph("vertices v\nedge e v\n")
    assert ei.value.line == 2

    with pytest.raises(GraphSyntaxError):
        parse_graph("frobnicate v\n")
    with pytest.raises(GraphSyntaxError):
        parse_graph("vertices v\nedge e v v x0\n")


def test_validation_rejects_dangling_and_duplicates():
    with pytest.raises(GraphValidationError):
        Graph(("v",), (EdgeBundle("e", "v", "w"),))
    with pytest.raises(GraphValidationError):
        Graph(("v", "v"), ())
    # ids share one namespace across vertices and bundles
    with pytest.raises(GraphValidationError):
        Graph(("v",), (EdgeBundle("v", "v", "v"),))
    with pytest.raises(GraphValidationError):
        Graph(("v",), (EdgeBundle("e", "v", "v"), EdgeBundle("e", "v", "v")))


def _b(eid, src="v", dst="v", mult=1):
    return EdgeBundle(eid, src, dst, mult)


# (vertices, bundles, message) for every check of Graph(...); the cases with
# several faults pin which check runs first.
VALIDATION_ERRORS = [
    (("v", "v"), (), "duplicate id 'v'"),
    (("v",), (_b("v"),), "duplicate id 'v'"),
    (("v",), (_b("e"), _b("e")), "duplicate id 'e'"),
    (("v", "w"), (_b("e", "v", "x"),), "bundle 'e' has dangling target 'x'"),
    (("v", "w"), (_b("e", "x", "v"),), "bundle 'e' has dangling source 'x'"),
    (("v",), (_b("e", mult=0),), "bundle 'e' has invalid multiplicity 0"),
    (("v",), (_b("e", mult=-1),), "bundle 'e' has invalid multiplicity -1"),
    (("v",), (_b("e", mult=2.5),), "bundle 'e' has invalid multiplicity 2.5"),
    (("v",), (_b("e", mult="2"),), "bundle 'e' has invalid multiplicity '2'"),
    # several faults
    (("a", "b", "b"), (_b("a", "a", "a"),), "duplicate id 'b'"),
    (("v",), (_b("e"), _b("e"), _b("v")), "duplicate id 'e'"),
    (("v",), (_b("e", "v", "x"), _b("e")), "duplicate id 'e'"),
    (("v",), (_b("e", "x", "y"),), "bundle 'e' has dangling source 'x'"),
    (("v",), (_b("e", "x", "v", 0),), "bundle 'e' has dangling source 'x'"),
    (("v",), (_b("e", "v", "y", 0),), "bundle 'e' has dangling target 'y'"),
    (("v",), (_b("z", "v", "x"), _b("a", mult=0)),
     "bundle 'z' has dangling target 'x'"),
    (("v",), (_b("z", mult=0), _b("a", "x", "v")),
     "bundle 'z' has invalid multiplicity 0"),
    (("v", "w"), (_b("m"), _b("z", "w", "x"), _b("a", "y", "v")),
     "bundle 'z' has dangling target 'x'"),
    # True == 1, but a bool is no multiplicity
    (("v",), (_b("e", mult=True),), "bundle 'e' has invalid multiplicity True"),
]


@pytest.mark.parametrize("vertices, bundles, message", VALIDATION_ERRORS)
def test_validation_messages_and_precedence(vertices, bundles, message):
    with pytest.raises(GraphValidationError) as ei:
        Graph(vertices, bundles)
    assert str(ei.value) == message


def test_vertex_kinds():
    g = fixture_graph("omega-h")
    assert g.kind("u") == "InfiniteEmitter"
    assert g.kind("h") == "Regular"
    assert g.kind("x") == "Sink"


def test_roundtrip_canonical_text():
    for name in FIXTURE_NAMES:
        g = fixture_graph(name)
        assert parse_graph(to_text(g)) == g, name


def _view_from_definitions(vertices, bundles):
    """Per vertex, every table of the integer view, worked out from the raw
    vertex and bundle lists alone."""
    vs = sorted(vertices)
    bs = sorted(bundles, key=lambda b: b.id)
    rows = []
    for v in vs:
        out = tuple(b for b in bs if b.source == v)
        targets = tuple(sorted({b.target for b in out}))
        omega = any(b.mult is OMEGA for b in out)
        rows.append((
            v,
            out,
            tuple(vs.index(b.target) for b in out),
            targets,
            INFINITE_EMITTER if omega else REGULAR if out else SINK,
            omega or sum(b.mult for b in out) >= 2,
        ))
    return rows


def test_view_matches_definitions():
    rng = random.Random(8)
    for g in random_graphs(300, seed=81, max_vertices=7):
        assert parse_graph(to_text(g)) == g
        vs, bs = list(g.vertices), list(g.bundles)
        rng.shuffle(vs)
        rng.shuffle(bs)
        h = Graph(vs, bs)
        assert h == g
        rows = _view_from_definitions(vs, bs)
        assert h.vertices == tuple(row[0] for row in rows)
        for i, (v, out, succ, targets, kind, bif) in enumerate(rows):
            assert h.out_bundles(v) == h.out_table[i] == out
            assert h.successors[i] == succ
            assert h.targets(v) == targets
            assert h.kind(v) == kind
            assert h.is_regular(v) is (kind == REGULAR)
            assert h.is_infinite_emitter(v) is (kind == INFINITE_EMITTER)
            for k in (SINK, REGULAR, INFINITE_EMITTER):
                assert (h.kind_mask(k) >> i & 1) == (k == kind)
            assert (h.bifurcations >> i & 1) == bif
        _check_condensation(h)


def _check_condensation(g):
    """condense(g) against reachability worked out from the bundle list."""
    vs = g.vertices
    reach = {}
    for v in vs:
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for b in g.bundles:
                if b.source == u and b.target not in seen:
                    seen.add(b.target)
                    todo.append(b.target)
        reach[v] = seen
    cond = condense(g)
    assert cond._fields == ("scc_of", "masks", "dag", "internal", "order")
    assert sorted(cond.order) == list(range(len(cond.masks)))
    position = {c: k for k, c in enumerate(cond.order)}
    assert all(position[d] < position[c] for c in position for d in cond.dag[c])
    assert len(g.reach_masks()) == len(cond.masks)
    for i, v in enumerate(vs):
        c = cond.scc_of[i]
        scc = set(g.set_of(cond.masks[c]))
        assert scc == {w for w in vs if w in reach[v] and v in reach[w]}
        assert g.set_of(g.reach_masks()[c]) == tuple(sorted(reach[v]))
        loop = any(b.source == b.target == v for b in g.bundles)
        assert (cond.internal[c] == 0) == (len(scc) == 1 and not loop)
        assert cond.internal[c] == sum(
            math.inf if b.mult is OMEGA else b.mult for b in g.bundles
            if b.source in scc and b.target in scc
        )
        assert cond.dag[c] == tuple(sorted({
            cond.scc_of[vs.index(b.target)] for b in g.bundles
            if b.source in scc and b.target not in scc
        }))


def test_graph_memory_is_linear_on_a_fan_in():
    # every vertex has one edge into the last one: a table holding one n-bit
    # target mask per vertex would keep about 53 MB here
    n = 20_000
    text = f"vertices {' '.join(f'v{i:05}' for i in range(n))}\n" + "".join(
        f"edge e{i} v{i:05} v{n - 1:05}\n" for i in range(n)
    )
    tracemalloc.start()
    try:
        g = parse_graph(text)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == n
    assert retained < 20 * 2**20


def test_digest_is_stable_under_reordering():
    a = parse_graph("vertices v w\nedge e v w\nedge f w v\n")
    b = parse_graph("vertices w v\nedge f w v\nedge e v w\n")
    assert graph_digest(a) == graph_digest(b)


def test_digest_is_the_sha256_of_the_canonical_text():
    # graph_digest takes sha256 from CPython's built-in module, not hashlib
    for g in [*map(fixture_graph, FIXTURE_NAMES), *random_graphs(300, seed=19)]:
        text = to_text(g).encode("utf-8")
        assert graph_digest(g) == hashlib.sha256(text).hexdigest()


def test_reachable():
    g = fixture_graph("chain3sink")

    def reachable(X):
        return g.set_of(g.tree_mask(g.mask_of(X)))

    assert reachable(("v2",)) == ("v2", "v3")
    assert reachable(("v1",)) == ("v1", "v2", "v3", "v4")
    assert reachable(()) == ()
    assert g.set_of(~g.mask_of(("v2",))) == ("v1", "v3", "v4")


def test_reach_masks_long_cycle():
    n = 3000
    text = f"vertices {' '.join(f'v{i}' for i in range(n))}\n" + "".join(
        f"edge e{i} v{i} v{(i + 1) % n}\n" for i in range(n)
    )
    g = parse_graph(text)
    assert g.reach_masks() == [(1 << n) - 1]
    assert g.tree_mask(1 << (n - 1)) == (1 << n) - 1


def test_condensation_terminal_and_trivial():
    g = fixture_graph("six")
    cond = condense(g)
    by_min = {g.set_of(m)[0]: i for i, m in enumerate(cond.masks)}
    assert not cond.internal[by_min["v1"]]
    assert cond.internal[by_min["v3"]]
    assert not cond.dag[by_min["v3"]]
    assert cond.dag[by_min["v2"]]
    nt = [c for c, d in enumerate(cond.dag) if not d and cond.internal[c]]
    assert sorted(g.set_of(cond.masks[c])[0] for c in nt) == ["v3", "w1", "w2"]


def test_condensation_self_loop_not_trivial():
    g = parse_graph("vertices v w\nedge e v v\nedge f v w\n")
    cond = condense(g)
    assert cond.internal[cond.scc_of[g.index("v")]] == 1
    assert cond.internal[cond.scc_of[g.index("w")]] == 0


def test_dot_output_shape():
    g = fixture_graph("omega-h")
    dot = to_dot(g)
    assert dot.startswith("digraph G {")
    assert '"u" -> "h" [label="×ω"];' in dot
    assert '"u" -> "x" [label="×1"];' in dot


def test_instance_addressing():
    g = parse_graph("vertices v\nedge e v v x2\nedge f v v\nbundle m v v omega\n")
    assert parse_instance(g, "e[1]")[1] == 1
    assert parse_instance(g, "f") == (g.bundle("f"), 1)
    assert instance_id(g.bundle("e"), 2) == "e[2]"
    assert instance_id(g.bundle("f"), 1) == "f"
    with pytest.raises(GraphValidationError):
        parse_instance(g, "e")  # needs an index
    with pytest.raises(GraphValidationError):
        parse_instance(g, "e[3]")
    with pytest.raises(GraphValidationError):
        parse_instance(g, "m[1]")  # omega members are not addressable


# (text, line, column, message) for every error the parser raises; the
# two-fault lines pin which check runs first.
PARSE_ERRORS = [
    ("vertices a 1b", 1, 12, "invalid id '1b'"),
    ("vertices a edge", 1, 12, "invalid id 'edge'"),
    ("vertices a b a", 1, 14, "duplicate id 'a'"),
    ("vertices a\nedge a a a", 2, 6, "duplicate id 'a'"),
    ("vertices a\nedge e a a\nvertices e", 2, 6, "duplicate id 'e'"),
    ("vertices a\nedge e a a\nedge e a a", 3, 6, "duplicate id 'e'"),
    ("vertices a\nedge e a", 2, 9, "'edge' needs <id> <src> <dst>"),
    ("vertices a\nedge e a   # c", 2, 9, "'edge' needs <id> <src> <dst>"),
    ("vertices a\nbundle", 2, 7, "'bundle' needs <id> <src> <dst>"),
    ("vertices a\nedge e a a y3", 2, 12, "expected 'x<k>' or 'omega', got 'y3'"),
    ("vertices a\nedge e a a x", 2, 12, "expected 'x<k>' or 'omega', got 'x'"),
    ("vertices a\nedge e a a x-1", 2, 12, "expected 'x<k>' or 'omega', got 'x-1'"),
    ("vertices a\nedge e a a Omega", 2, 12,
     "expected 'x<k>' or 'omega', got 'Omega'"),
    ("vertices a\nedge e a a x0", 2, 12, "multiplicity 0"),
    ("vertices a\nedge e a a x00", 2, 12, "multiplicity 0"),
    ("vertices a\nedge e a a x2 z", 2, 15, "unexpected token 'z'"),
    ("vertices a\n\tedge e a a omega x", 2, 19, "unexpected token 'x'"),
    ("frob a", 1, 1, "expected 'vertices', 'edge' or 'bundle', got 'frob'"),
    ("Vertices a", 1, 1,
     "expected 'vertices', 'edge' or 'bundle', got 'Vertices'"),
    ("vertices a\nedge e a b", 2, 10, "dangling endpoint 'b'"),
    ("vertices a\nedge e b a", 2, 8, "dangling endpoint 'b'"),
    ("  vertices\ta  1", 1, 15, "invalid id '1'"),
    # two faults on one line
    ("vertices a\nedge e b c", 2, 8, "dangling endpoint 'b'"),
    ("vertices a\nedge 1e b c", 2, 6, "invalid id '1e'"),
    ("vertices a\nedge 1 2 3 x0", 2, 6, "invalid id '1'"),
    ("vertices a\nedge a a 2", 2, 10, "invalid id '2'"),
    ("vertices a\nedge e a a x0 z", 2, 15, "unexpected token 'z'"),
    ("vertices a\nedge e a a y z", 2, 14, "unexpected token 'z'"),
    ("vertices a\nedge e a b\nvertices e", 2, 10, "dangling endpoint 'b'"),
    ("vertices a\nedge e a a\nedge f a a\nvertices f e", 2, 6, "duplicate id 'e'"),
]


# Faults that only the per-line fast tests can see: a vertex declared on an
# earlier line, a keyword or a non-ASCII id on an edge line.
FAST_TEST_ERRORS = [
    ("vertices a\nvertices b a", 2, 12, "duplicate id 'a'"),
    ("vertices a b\nvertices c\nvertices b", 3, 10, "duplicate id 'b'"),
    ("vertices a\nedge omega a a", 2, 6, "invalid id 'omega'"),
    ("vertices a\nedge e a bundle", 2, 10, "invalid id 'bundle'"),
    ("vertices a\nedge e vertices a x2", 2, 8, "invalid id 'vertices'"),
    ("vertices a\nedge e é a", 2, 8, "invalid id 'é'"),
    ("vertices a b　é", 1, 14, "invalid id 'é'"),
]


@pytest.mark.parametrize("text, line, column, message", FAST_TEST_ERRORS)
def test_parse_errors_behind_fast_tests(text, line, column, message):
    with pytest.raises(GraphSyntaxError) as ei:
        parse_graph(text + "\n")
    assert (ei.value.line, ei.value.column, ei.value.reason) == (
        line, column, message,
    )


def test_non_ascii_spaces_between_valid_ids():
    # a Unicode space fails a line's fast test; the ordered loop finds no fault
    g = parse_graph("vertices a　b\nedge e a b x2\n")
    assert g == parse_graph("vertices a b\nedge e a b x2\n")


@pytest.mark.parametrize("text, line, column, message", PARSE_ERRORS)
def test_parse_error_positions(text, line, column, message):
    with pytest.raises(GraphSyntaxError) as ei:
        parse_graph(text + "\n")
    assert (ei.value.line, ei.value.column, ei.value.reason) == (
        line, column, message,
    )


@pytest.mark.parametrize("text,error", [
    ("vertices a b\nedge e a b x2\n", None),
    ("vertices a\nedge e a b\n", GraphSyntaxError),  # found once Graph fails
    ("vertices a b\nedge e a b x0\n", GraphSyntaxError),  # found by the pass
])
@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_callers_gc_setting(text, error, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_graph(text)
        else:
            with pytest.raises(error):
                parse_graph(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
