"""Seeded graph generators backing the property suites and `lpa selftest`."""

import random

from .graph import OMEGA, EdgeBundle, Graph

# a random bundle is ω with probability OMEGA_RATE, else of multiplicity
# 1..MAX_MULT
MAX_MULT = 3
OMEGA_RATE = 0.08


def random_graph(rng: random.Random, max_vertices: int = 8) -> Graph:
    """One random graph: sparse bundles, mixed multiplicities, some ω."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    bundles = []
    eid = 0
    for src in vertices:
        for dst in vertices:
            if rng.random() >= 0.3:
                continue
            eid += 1
            if rng.random() < OMEGA_RATE:
                mult = OMEGA
            else:
                mult = rng.randint(1, MAX_MULT)
            bundles.append(EdgeBundle(f"e{eid}", src, dst, mult))
    return Graph(vertices, bundles)


def random_graphs(count: int, seed: int, max_vertices: int = 8):
    """Deterministic stream of `count` random graphs for a given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, max_vertices)


def _graph_from_code(n: int, code: tuple) -> Graph:
    vertices = [f"v{i}" for i in range(1, n + 1)]
    bundles = []
    eid = 0
    k = 0
    for src in vertices:
        for dst in vertices:
            mult = code[k]
            k += 1
            if mult:
                eid += 1
                bundles.append(EdgeBundle(f"e{eid}", src, dst, mult))
    return Graph(vertices, bundles)


def enumerate_graphs(n: int, max_mult: int = 2):
    """Every graph on n labeled vertices with per-pair multiplicity ≤ max_mult.

    There are (max_mult+1)^(n²) of them; n ≤ 3 is cheap, n = 4 with
    multiplicity 2 is ~43 million and needs the sampled variant below
    unless an exhaustive pass is explicitly requested.
    """
    slots = n * n
    code = [0] * slots
    while True:
        yield _graph_from_code(n, tuple(code))
        i = slots - 1
        while i >= 0 and code[i] == max_mult:
            code[i] = 0
            i -= 1
        if i < 0:
            return
        code[i] += 1


def sample_graphs(n: int, count: int, seed: int, max_mult: int = 2):
    """Deterministic uniform sample from the enumerate_graphs(n) space."""
    rng = random.Random(seed)
    base = max_mult + 1
    slots = n * n
    for _ in range(count):
        code = tuple(rng.randrange(base) for _ in range(slots))
        yield _graph_from_code(n, code)
