"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with plain ``pytest tests/test_acceptance.py``; the ACCEPTANCE lines
are printed straight to the terminal, bypassing capture, so the verdicts
are visible in any mode.  Criterion 5 is exhaustive up to 3 vertices plus
a large stratified 4-vertex sample.  The full 4-vertex sweep (43M graphs
at about 0.47 ms each, so about 5.6 h) runs the same oracle checks through
``lpa selftest --exhaustive-n4``.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import leavittpath
from leavittpath import (
    breaking_vertices,
    classify,
    density_check,
    descriptor_leq,
    hs_closure,
    ideal_descriptor,
    parse_graph,
    pi_decomposition,
    v_H_element,
)
from leavittpath import cli
from leavittpath.classify import _classify_masks
from leavittpath.random_graphs import enumerate_graphs, random_graphs, sample_graphs
from leavittpath.errors import InvariantViolation
from leavittpath.graph import REGULAR
from leavittpath.selftest import check_maximality, check_oracles
from leavittpath.terms import AlgebraElement, _instance_table

from conftest import FIXTURE_NAMES, fixture_graph, fixture_path


def announce(capsys, num, verdict, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {verdict} — {detail}")


def criterion(capsys, num, detail):
    """Wrap a criterion body so a verdict line always gets printed."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            announce(capsys, num, "FAIL" if exc_type else "PASS", detail)
            return False

    return _Ctx()


@pytest.fixture(scope="module")
def random_pool():
    # >= 1000 graphs, <= 8 vertices, multiplicities <= 3 plus optional omega
    return list(random_graphs(1200, seed=20240819, max_vertices=8))


def test_criterion_1_six_example(capsys):
    with criterion(capsys, 1, "six-fixture classifier sets and classes"):
        g = fixture_graph("six")
        c = classify(g)
        assert c.p_ec == ("v3", "w1")
        assert c.p_ppi == ("v2", "v3", "v4", "w1")
        assert c.p_ec_prime == ("v3",)
        assert c.p_pec == ("w1",)
        assert c.p_prime == ("v2", "v3", "v4")
        prime_classes = [x for x in pi_decomposition(g) if x.kind == "Pprime"]
        assert len(prime_classes) == 1
        assert prime_classes[0].class_vertices == ("v2", "v3", "v4")


def test_criterion_2_fork_example(capsys):
    with criterion(capsys, 2, "fork-fixture classifier sets and classes"):
        g = fixture_graph("fork")
        c = classify(g)
        assert c.p_ec == ("v3",)
        assert c.p_ppi == ("v1", "v2", "v3", "v4")
        assert c.p_pec == ()
        assert c.p_prime == ("v1", "v2", "v3", "v4")
        classes = pi_decomposition(g)
        assert len(classes) == 1
        assert classes[0].kind == "Pprime"
        assert classes[0].class_vertices == ("v1", "v3", "v4")
        assert "v2" not in classes[0].class_vertices


def test_criterion_3_chain3sink_ideals(capsys):
    with criterion(capsys, 3, "chain3sink ideal containment"):
        g = fixture_graph("chain3sink")
        c = classify(g)
        assert c.p_pi == ("v1", "v2", "v3")
        assert c.p_ppi == ("v2", "v3")
        assert hs_closure(g, ("v3",)).members == ("v3",)
        assert hs_closure(g, ("v2", "v3")).members == ("v2", "v3")
        small = ideal_descriptor(g, c.p_ec)
        big = ideal_descriptor(g, ("v2", "v3"))
        assert descriptor_leq(small, big)
        assert not descriptor_leq(big, small)  # strict
        ppi = ideal_descriptor(g, c.p_ppi)  # the largest purely infinite ideal
        assert descriptor_leq(small, ppi)
        assert descriptor_leq(big, ppi)


def test_criterion_4_property_suite(capsys, random_pool):
    with criterion(capsys, 4, f"structural invariants on {len(random_pool)} random graphs"):
        violations = 0
        for g in random_pool:
            try:
                c = classify(g)
                assert set(c.p_ec) <= set(c.p_ppi) <= set(c.p_pi)
                union = set(c.p_l) | set(c.p_c) | set(c.p_ec) | set(c.p_binf)
                d = density_check(g, sorted(union))
                assert d.dense
                assert all(w is not None for w in d.witnesses.values())
                pec, prime, ppi = set(c.p_pec), set(c.p_prime), set(c.p_ppi)
                assert pec | prime == ppi and not pec & prime
                seen = set()
                for cls_ in pi_decomposition(g):
                    assert not seen & set(cls_.tree)
                    seen |= set(cls_.tree)
            except Exception:
                violations += 1
                raise
        assert violations == 0


def test_criterion_5_oracle_equivalences(capsys):
    detail = "oracle equivalences (n<=3 + stratified n=4, 500 random <=7)"
    with criterion(capsys, 5, detail):
        for n in (1, 2, 3):
            for g in enumerate_graphs(n, max_mult=2):
                check_oracles(g)
        for g in sample_graphs(4, 5000, seed=424242):
            check_oracles(g)
        for g in random_graphs(500, seed=99, max_vertices=7):
            check_oracles(g)


def test_criterion_6_maximality_probe(capsys, random_pool):
    with criterion(capsys, 6, "largest-purely-infinite maximality probe"):
        for g in random_pool:
            check_maximality(g)


def test_maximality_probe_rejects_a_smaller_p_ppi(monkeypatch):
    # w and x both carry a doubled loop; P_ppi = {w, x}, but the closure of
    # the extreme cycle alone is {x}: a hereditary saturated set that only
    # the maximality probe tells apart from P_ppi
    g = parse_graph("vertices w x\nedge a w x\nedge l w w x2\nedge k x x x2\n")
    assert classify(g).p_ppi == ("w", "x")
    check_maximality(g)
    smaller = _classify_masks(g)._replace(p_ppi=g.mask_of(("x",)))
    monkeypatch.setattr("leavittpath.selftest._classify_masks", lambda g: smaller)
    with pytest.raises(InvariantViolation, match="closure of P_ppi plus 'w'"):
        check_maximality(g)


def _check_relations(g):
    V = {v: AlgebraElement.vertex(g, v) for v in g.vertices}
    insts = [(t, b) for b in g.bundles if not b.is_omega for t in b.instances]
    E = {t: AlgebraElement.edge(g, t) for t, _ in insts}
    Gh = {t: AlgebraElement.ghost_edge(g, t) for t, _ in insts}
    zero = AlgebraElement.zero(g)
    for a, b_ in itertools.product(g.vertices, repeat=2):
        assert V[a] * V[b_] == (V[a] if a == b_ else zero)
    for t, bb in insts:
        assert V[bb.source] * E[t] == E[t] == E[t] * V[bb.target]
        assert V[bb.target] * Gh[t] == Gh[t] == Gh[t] * V[bb.source]
    for (t1, _), (t2, b2) in itertools.product(insts, repeat=2):
        want = V[b2.target] if t1 == t2 else zero
        assert Gh[t1] * E[t2] == want
    for v in g.set_of(g.kind_mask(REGULAR)):
        acc = zero
        for t, _ in _instance_table(g)[v]:
            acc = acc + E[t] * Gh[t]
        assert acc == V[v]


def test_criterion_7_term_engine(capsys):
    with criterion(capsys, 7, "relations, v^H idempotents, counts, associativity"):
        for g in map(fixture_graph, FIXTURE_NAMES):
            _check_relations(g)

        # (v^H)^2 = v^H for every breaking vertex found in graphs <= 6 vertices
        found = 0
        for g in random_graphs(400, seed=5, max_vertices=6):
            if not any(b.is_omega for b in g.bundles):
                continue
            hs_sets = {hs_closure(g, (v,)).members for v in g.vertices}
            hs_sets.add(())
            for H in hs_sets:
                for v in breaking_vertices(g, H).members:
                    vh = v_H_element(g, v, H)
                    assert vh * vh == vh
                    found += 1
        go = fixture_graph("omega-h")
        vh = v_H_element(go, "u", ("h",))
        assert vh * vh == vh
        found += 1
        assert found >= 20

        # normal-form monomial counts for the line fixtures
        for n, expected in ((2, 4), (3, 9), (4, 16)):
            g = fixture_graph(f"line{n}")
            paths = [((), v) for v in g.vertices]
            for i in range(1, n):
                for j in range(i, n):
                    paths.append(
                        (tuple(f"e{k}" for k in range(i, j + 1)), f"v{j + 1}")
                    )

            def elem(seq, v):
                if not seq:
                    return AlgebraElement.vertex(g, v)
                acc = AlgebraElement.edge(g, seq[0])
                for t in seq[1:]:
                    acc = acc * AlgebraElement.edge(g, t)
                return acc

            monos = set()
            for (pa, ea), (pb, eb) in itertools.product(paths, repeat=2):
                if ea != eb:
                    continue
                x = elem(pa, ea) * elem(pb, eb).star()
                monos.update(m for m, _ in x._terms.items())
            assert len(monos) == expected, (n, len(monos))

        # associativity sampling
        rng = random.Random(20240818)
        pool = []
        for g in map(fixture_graph, FIXTURE_NAMES):
            gens = [AlgebraElement.vertex(g, v) for v in g.vertices]
            for b in g.bundles:
                if b.is_omega:
                    continue
                for tok in b.instances:
                    gens.append(AlgebraElement.edge(g, tok))
                    gens.append(AlgebraElement.ghost_edge(g, tok))
            pool.append((g, gens))

        def rand_elem(g, gens):
            acc = AlgebraElement.zero(g)
            for _ in range(rng.randint(1, 3)):
                term = gens[rng.randrange(len(gens))]
                for _ in range(rng.randint(0, 2)):
                    term = term * gens[rng.randrange(len(gens))]
                acc = acc + term.scale(rng.randint(-3, 3))
            return acc

        failures = 0
        for _ in range(10_000):
            g, gens = pool[rng.randrange(len(pool))]
            a, b, c = (rand_elem(g, gens) for _ in range(3))
            if (a * b) * c != a * (b * c):
                failures += 1
        assert failures == 0


def test_criterion_8_determinism(capsys):
    with criterion(
        capsys, 8, "byte-identical reports matching goldens, fresh processes too"
    ):
        golden_dir = os.path.join(os.path.dirname(__file__), "golden")
        for name in FIXTURE_NAMES:
            with open(
                os.path.join(golden_dir, f"report_{name}.json"),
                encoding="utf-8",
            ) as fh:
                golden = fh.read()
            outputs = set()
            for _ in range(10):
                assert cli.run(["report", fixture_path(name)]) == 0
                outputs.add(capsys.readouterr().out)
            assert outputs == {golden}
            json.loads(golden)  # goldens stay well-formed

        # a fresh process produces the same bytes as ``cli.run`` for every
        # analysis subcommand (each loads its own part of the package):
        # always via ``python -m leavittpath``, which runs the package under
        # test whether or not it is installed, and also via the ``lpa``
        # console script wherever one is installed
        package_root = os.path.dirname(os.path.dirname(leavittpath.__file__))
        pythonpath = (package_root, os.environ.get("PYTHONPATH"))
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)),
        }
        commands = [[sys.executable, "-m", "leavittpath"]]
        lpa_script = shutil.which("lpa")
        if lpa_script is not None:
            commands.append([lpa_script])
        six = fixture_path("six")
        subcommands = [
            ["validate", six],
            ["classify", six],
            ["closure", six, "--seed", "v3,w1"],
            ["report", six],
            ["eval", six, "--expr", "f1 f1* + 2 f4 e7*", "--json"],
            ["hedgehog", six, "--H", "v3", "--depth", "4"],
        ]
        expected = []
        for argv in subcommands:
            assert cli.run(argv) == 0, argv
            expected.append(capsys.readouterr().out)
        for command in commands:
            for argv, want in zip(subcommands, expected):
                proc = subprocess.run(
                    command + argv, capture_output=True, text=True, env=env
                )
                assert proc.returncode == 0, f"{command + argv}: {proc.stderr}"
                assert proc.stdout == want, command + argv
