"""Randomized property suites behind ``lpa selftest``.

Reruns the library's structural invariants and oracle cross-checks on a
stream of seeded random graphs, so the checks shipped with the test suite
can be reproduced from the installed binary alone.  Any failure prints a
reproducer graph to stderr and exits with status 3.
"""

from __future__ import annotations

import sys
import time

from .classify import _classify_masks, classify, csp_class, properly_infinite
from .closures import breaking_capable_mask, closure_mask, hs_closure
from .errors import InvariantViolation
from .graph import Graph, condense, to_text
from .ideals import largest_ideals_report, pi_decomposition
from .oracles import (
    b_infinity_oracle,
    csp_class_oracle,
    cycles_without_exits_oracle,
    extreme_cycles_oracle,
    hs_closure_oracle,
    line_points_oracle,
    pprime_classes_oracle,
    properly_infinite_subsets_oracle,
)
from .random_graphs import enumerate_graphs, random_graphs


# exhaustive-sweep graphs between two progress lines on stderr
PROGRESS_EVERY = 1_000_000


class _Mismatch(Exception):
    pass


def _fail(detail: str) -> None:
    raise _Mismatch(detail)


def check_invariants(g: Graph) -> None:
    """Structural invariants every graph must satisfy (criterion-style)."""
    masks = _classify_masks(g)
    if masks.p_ec & ~masks.p_ppi:
        _fail("P_ec not contained in P_ppi")
    if masks.p_ppi & ~masks.p_pi:
        _fail("P_ppi not contained in P_pi")
    # raises when the union of the four classifier sets is not dense
    largest_ideals_report(g)


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
            _fail(f"closure of P_ppi plus '{v}' is still purely infinite")
        passed.add(tree)


def check_oracles(g: Graph) -> None:
    """Cross-check the fast paths against the slow reference definitions."""
    for v in g.vertices:
        fast, slow = csp_class(g, v), csp_class_oracle(g, v)
        if fast != slow:
            _fail(f"csp_class({v}): fast {fast} != oracle {slow}")
    for v in g.vertices:
        fast_m = hs_closure(g, (v,)).members
        slow_m = tuple(sorted(hs_closure_oracle(g, (v,))))
        if fast_m != slow_m:
            _fail(f"hs_closure({{{v}}}) disagrees with naive fixpoint")
    c = classify(g)
    pairs = [
        (c.p_ec, extreme_cycles_oracle, "extreme_cycles"),
        (c.p_l, line_points_oracle, "line_points"),
        (c.p_c, cycles_without_exits_oracle, "cycles_without_exits"),
        (c.p_binf, b_infinity_oracle, "b_infinity"),
    ]
    for fast_t, slow_fn, name in pairs:
        slow_t = slow_fn(g)
        if fast_t != slow_t:
            _fail(f"{name}: fast {fast_t} != oracle {slow_t}")
    if len(g.vertices) <= 5:
        fast_t = properly_infinite(g)
        slow_t = properly_infinite_subsets_oracle(g)
        if fast_t != slow_t:
            _fail(f"properly_infinite: fast {fast_t} != oracle {slow_t}")
    check_pi_classes(g)


def check_pi_classes(g: Graph) -> None:
    """Compare pi_decomposition against cycle enumeration + union-find."""
    c = classify(g)
    classes = pi_decomposition(g)
    fast_prime = sorted(
        frozenset(cl.class_vertices) for cl in classes if cl.kind == "Pprime"
    )
    slow_prime = sorted(pprime_classes_oracle(g, set(c.p_prime)))
    if fast_prime != slow_prime:
        _fail(f"P' classes: fast {fast_prime} != oracle {slow_prime}")


def check_graph(g: Graph) -> None:
    check_invariants(g)
    check_maximality(g)
    if len(g.vertices) <= 6:
        check_oracles(g)


def _dump_reproducer(g: Graph, context: str, detail: str) -> None:
    print(f"selftest failure ({context}): {detail}", file=sys.stderr)
    print("--- reproducer graph ---", file=sys.stderr)
    print(to_text(g), end="", file=sys.stderr)
    print("--- end reproducer ---", file=sys.stderr)


def _rate(count: int, start: float) -> str:
    """Elapsed seconds since ``start`` and graphs per second."""
    elapsed = time.perf_counter() - start
    return f"{elapsed:.2f} s, {count / max(elapsed, 1e-9):.0f} graphs/s"


def run_selftest(
    cases: int, max_vertices: int, seed: int, exhaustive_n4: bool
) -> int:
    """Run the suites, print the verdicts to stdout and the rates to stderr."""
    checked = 0
    start = time.perf_counter()
    for i, g in enumerate(random_graphs(cases, seed, max_vertices=max_vertices)):
        try:
            check_graph(g)
        except (_Mismatch, InvariantViolation) as exc:
            _dump_reproducer(g, f"case {i}, seed {seed}", str(exc))
            return 3
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
        except (_Mismatch, InvariantViolation) as exc:
            _dump_reproducer(g, f"exhaustive n=4 graph {swept}", str(exc))
            return 3
        print(f"selftest: exhaustive 4-vertex sweep passed ({swept} graphs)")
        print(f"  ... {swept} graphs swept ({_rate(swept, start)})",
              file=sys.stderr)
    return 0
