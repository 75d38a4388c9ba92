import random

from hypothesis import given, settings
from hypothesis import strategies as st

from leavittpath import (
    EdgeBundle,
    Graph,
    OMEGA,
    classify,
    density_check,
    hs_closure,
    parse_graph,
    to_text,
)
from leavittpath.ideals import largest_ideals_report
from leavittpath.terms import AlgebraElement

MULT_CHOICES = ("none", "none", "none", 1, 1, 2, 3, "omega")


@st.composite
def graphs(draw, max_vertices=5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    bundles = []
    k = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            mult = draw(st.sampled_from(MULT_CHOICES))
            if mult == "none":
                continue
            k += 1
            bundles.append(
                EdgeBundle(
                    f"e{k}",
                    f"v{i}",
                    f"v{j}",
                    OMEGA if mult == "omega" else mult,
                )
            )
    return Graph(vertices, tuple(bundles))


@given(graphs())
def test_text_roundtrip(g):
    assert parse_graph(to_text(g)) == g


@given(graphs(), st.data())
def test_closure_idempotent_and_certified(g, data):
    seed = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
    r = hs_closure(g, seed)
    assert r.is_hereditary and r.is_saturated
    again = hs_closure(g, r.members)
    assert again.members == r.members
    assert again.rounds == 0


@given(graphs(), st.data())
def test_closure_monotone(g, data):
    big = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
    small = [v for i, v in enumerate(big) if i % 2 == 0]
    a = hs_closure(g, small).members
    b = hs_closure(g, big).members
    assert set(a) <= set(b)


@given(graphs())
def test_classify_certifies_itself(g):
    c = classify(g)  # raises InvariantViolation on any broken invariant
    assert set(c.p_ppi) <= set(c.p_pi)


@given(graphs())
def test_density_witness_paths_land_in_the_set(g):
    c = classify(g)
    union = sorted(set(c.p_l) | set(c.p_c) | set(c.p_ec) | set(c.p_binf))
    r = density_check(g, union)
    assert r.dense  # the four-set union is always dense
    members = set(union)
    for v, path in r.witnesses.items():
        assert path is not None
        here = v
        for eid in path:
            b = g.bundle(eid)
            assert b.source == here
            here = b.target
        assert here in members


@given(graphs())
def test_report_is_consistent(g):
    r = largest_ideals_report(g)
    assert set(r.semisimple_gens) <= set(r.loc_noetherian_gens)
    assert set(r.loc_noetherian_no_min_idem_gens) <= set(r.loc_noetherian_gens)
    covered = set()
    for c in r.pi_classes:
        assert set(c.class_vertices) <= set(r.purely_infinite_gens)
        assert not covered & set(c.tree)
        covered |= set(c.tree)


@settings(max_examples=50)
@given(graphs(max_vertices=4), st.integers(0, 2**32 - 1))
def test_star_antihomomorphism(g, seed):
    rng = random.Random(seed)
    gens = [AlgebraElement.vertex(g, v) for v in g.vertices]
    for b in g.bundles:
        if b.is_omega:
            continue
        for tok in b.instances:
            gens.append(AlgebraElement.edge(g, tok))
            gens.append(AlgebraElement.ghost_edge(g, tok))
    a = rng.choice(gens) * rng.choice(gens) + rng.choice(gens)
    b_ = rng.choice(gens) - rng.choice(gens) * rng.choice(gens)
    assert (a * b_).star() == b_.star() * a.star()

