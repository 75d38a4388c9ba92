"""Randomized property suites behind ``lpa selftest``.

Reruns the library's structural invariants and oracle cross-checks on a
stream of seeded random graphs, so the checks shipped with the test suite
can be reproduced from the installed binary alone.  Every check raises
``InvariantViolation`` on the graph it ran on; ``run_selftest`` re-raises
it with the case and seed in front of the detail, and ``lpa`` prints it
with the reproducer graph and exits with status 3.
"""

import sys
import time

from .classify import _classify_masks, classify, csp_class, properly_infinite
from .closures import breaking_capable_mask, closure_mask, hs_closure
from .errors import InvariantViolation
from .graph import Graph, condense
from .ideals import largest_ideals_report, pi_decomposition
from .oracles import (
    b_infinity_oracle,
    csp_class_oracle,
    cycles_without_exits_oracle,
    extreme_cycles_oracle,
    hs_closure_oracle,
    line_points_oracle,
    p_ex_oracle,
    p_K_oracle,
    pprime_classes_oracle,
    properly_infinite_subsets_oracle,
)
from .random_graphs import enumerate_graphs, random_graphs


# exhaustive-sweep graphs between two progress lines on stderr
PROGRESS_EVERY = 1_000_000


def check_maximality(g: Graph) -> None:
    """The closure of P_ppi plus any vertex from outside holds a vertex that
    is not properly infinite or is breaking-capable, so no larger set
    qualifies.  (``_classify_masks`` has already certified P_ppi itself as
    hereditary and saturated.)

    The closure of P_ppi ∪ {v} starts from the tree of P_ppi ∪ T(v), which
    every vertex of one SCC shares, so each distinct P_ppi ∪ T(v) is closed
    and judged once, at its first vertex in sorted order: the first vertex
    to fail is the one a closure per vertex would name.
    """
    masks = _classify_masks(g)
    ppi = masks.p_ppi
    spoilers = ~masks.p_pi | breaking_capable_mask(g)
    reach = g.reach_masks()
    passed = set()
    for i, scc in enumerate(condense(g).scc_of):
        tree = ppi | reach[scc]
        if ppi >> i & 1 or tree in passed:
            continue
        if not closure_mask(g, ppi | 1 << i)[0] & spoilers:
            v = g.vertices[i]
            raise InvariantViolation(
                f"closure of P_ppi plus '{v}' is still purely infinite", g
            )
        passed.add(tree)


def _oracle_pairs(g: Graph):
    """(check, fast answer, oracle answer) of each cross-check, computed as
    they are read, so the first disagreement ends the rest."""
    for v in g.vertices:
        yield f"csp_class({v})", csp_class(g, v), csp_class_oracle(g, v)
    for v in g.vertices:
        slow = tuple(sorted(hs_closure_oracle(g, (v,))))
        yield f"hs_closure({{{v}}})", hs_closure(g, (v,)).members, slow
    c = classify(g)
    yield "extreme_cycles", c.p_ec, extreme_cycles_oracle(g)
    yield "line_points", c.p_l, line_points_oracle(g)
    yield "cycles_without_exits", c.p_c, cycles_without_exits_oracle(g)
    yield "b_infinity", c.p_binf, b_infinity_oracle(g)
    yield "p_K", c.p_K, p_K_oracle(g)
    yield "p_ex", c.p_ex, p_ex_oracle(g)
    if len(g.vertices) <= 5:
        slow = properly_infinite_subsets_oracle(g)
        yield "properly_infinite", properly_infinite(g), slow
    # the P′ classes against cycle enumeration and union-find
    classes = pi_decomposition(g)
    # by minimum: on frozensets, < is the subset order
    fast = [frozenset(cl.class_vertices) for cl in classes if cl.kind == "Pprime"]
    slow = pprime_classes_oracle(g, set(c.p_prime))
    yield "P' classes", sorted(fast, key=min), sorted(slow, key=min)


def check_oracles(g: Graph) -> None:
    """Cross-check the fast paths against the slow reference definitions."""
    for name, fast, slow in _oracle_pairs(g):
        if fast != slow:
            raise InvariantViolation(f"{name}: fast {fast} != oracle {slow}", g)


def check_graph(g: Graph) -> None:
    """The report's own certifications (the classifier sets and density),
    maximality, and the oracles up to 6 vertices."""
    largest_ideals_report(g)
    check_maximality(g)
    if len(g.vertices) <= 6:
        check_oracles(g)


def _rate(count: int, start: float) -> str:
    """Elapsed seconds since ``start`` and graphs per second."""
    elapsed = time.perf_counter() - start
    return f"{elapsed:.2f} s, {count / max(elapsed, 1e-9):.0f} graphs/s"


def run_selftest(
    cases: int, max_vertices: int, seed: int, exhaustive_n4: bool
) -> int:
    """Run the suites, print the verdicts to stdout and the rates to stderr.

    The first violation is re-raised with the case and seed, or the sweep
    index, in front of its detail.
    """
    checked = 0
    start = time.perf_counter()
    for i, g in enumerate(random_graphs(cases, seed, max_vertices=max_vertices)):
        try:
            check_graph(g)
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"selftest case {i}, seed {seed}: {exc.detail}", g
            ) from exc
        checked += 1
    print(f"selftest: {checked} random graphs (max {max_vertices} vertices, "
          f"seed {seed}) passed all property checks")
    print(f"  ... {checked} random graphs checked ({_rate(checked, start)})",
          file=sys.stderr)
    if exhaustive_n4:
        swept = 0
        start = time.perf_counter()
        try:
            for g in enumerate_graphs(4, max_mult=2):
                check_oracles(g)
                swept += 1
                if swept % PROGRESS_EVERY == 0:
                    print(f"  ... {swept} graphs swept ({_rate(swept, start)})",
                          file=sys.stderr)
        except InvariantViolation as exc:
            raise InvariantViolation(
                f"selftest exhaustive n=4 graph {swept}: {exc.detail}", g
            ) from exc
        print(f"selftest: exhaustive 4-vertex sweep passed ({swept} graphs)")
        print(f"  ... {swept} graphs swept ({_rate(swept, start)})",
              file=sys.stderr)
    return 0
