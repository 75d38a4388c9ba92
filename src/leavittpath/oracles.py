"""Slow reference implementations used by the test suite.

Everything here recomputes from first principles — plain BFS over
``g.targets`` and explicit enumeration — and deliberately avoids the bitmask
kernels, the closure engine and the classifiers, so that agreement between
the two routes is meaningful evidence rather than a tautology.  The
per-graph answers every check reads (reach sets, simple cycles, CSP walk
verdicts) are computed once in the graph's memo and returned read-only.
"""

from .graph import OMEGA, Graph, per_graph


class _FrozenDict(dict):
    """A dict that refuses changes, so a memoized answer stays as computed."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"'{type(self).__name__}' object is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@per_graph
def reach_sets(g: Graph) -> dict:
    """{v: set of vertices reachable from v} via breadth-first search
    (memoized, read-only)."""
    out = {}
    for v in g.vertices:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for t in g.targets(u):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        out[v] = frozenset(seen)
    return _FrozenDict(out)


def _out_targets(g: Graph, u: str, cap: int = 2) -> list:
    """u's edge targets, one per edge, with multiplicities capped at ``cap``.

    Capping is harmless for counting closed simple paths into {0, 1, 2+}:
    a path through a third parallel edge always has a sibling through the
    first two, and a unique closed simple path cannot touch a multiplicity
    ≥ 2 bundle at all (swapping the instance would contradict uniqueness).
    """
    targets = []
    for b in g.out_bundles(u):
        targets += [b.target] * (cap if b.mult is OMEGA else min(cap, b.mult))
    return targets


@per_graph
def _csp_verdicts(g: Graph) -> dict:
    """{v: |CSP(v)| as Zero/One/TwoPlus}, by bounded walk enumeration.

    Walks start and end at v, never revisit v internally, and visit each
    internal vertex at most twice.  The bound loses nothing: a unique closed
    simple path has no internal repeats at all (excising the repeat loop
    would produce a second one), and whenever two exist, a second one exists
    within the bound (take a shortest closed simple path different from the
    internally-simple one).
    """
    reach = reach_sets(g)
    out = {u: _out_targets(g, u) for u in g.vertices}
    verdicts = {}
    for v in g.vertices:
        visits = dict.fromkeys(g.vertices, 0)
        count = 0

        def extend(u: str) -> None:
            nonlocal count
            for t in out[u]:
                if count >= 2:
                    return
                if t == v:
                    count += 1
                    continue
                if visits[t] >= 2 or v not in reach[t]:
                    continue
                visits[t] += 1
                extend(t)
                visits[t] -= 1

        extend(v)
        verdicts[v] = ("Zero", "One", "TwoPlus")[count]
    return _FrozenDict(verdicts)


def csp_class_oracle(g: Graph, v: str) -> str:
    """|CSP(v)| as Zero/One/TwoPlus, read off the graph's walk verdicts."""
    g.index(v)  # an unknown id raises here, as in every accessor
    return _csp_verdicts(g)[v]


def hs_closure_oracle(g: Graph, X) -> frozenset:
    """Hereditary saturated closure by one-element-at-a-time fixpoint."""
    s = set(X)
    changed = True
    while changed:
        changed = False
        for u in list(s):
            for t in g.targets(u):
                if t not in s:
                    s.add(t)
                    changed = True
        for u in g.vertices:
            if u in s or not g.is_regular(u):
                continue
            if all(t in s for t in g.targets(u)):
                s.add(u)
                changed = True
    return frozenset(s)


@per_graph
def simple_cycles(g: Graph) -> tuple:
    """All vertex-simple cycles, each once, rooted at its smallest vertex
    (memoized)."""
    order = {v: i for i, v in enumerate(g.vertices)}
    adj = {v: sorted(set(g.targets(v))) for v in g.vertices}
    found = []

    def dfs(start: str, u: str, path: list, onpath: set) -> None:
        for t in adj[u]:
            if t == start:
                found.append(tuple(path))
            elif order[t] > order[start] and t not in onpath:
                onpath.add(t)
                path.append(t)
                dfs(start, t, path, onpath)
                path.pop()
                onpath.remove(t)

    for s in g.vertices:
        dfs(s, s, [s], {s})
    return tuple(found)


def _out_instance_count(g: Graph, u: str):
    total = 0
    for b in g.out_bundles(u):
        if b.mult is OMEGA:
            return OMEGA
        total += b.mult
    return total


def _bifurcates(g: Graph, u: str) -> bool:
    c = _out_instance_count(g, u)
    return c is OMEGA or c >= 2


def cycles_without_exits_oracle(g: Graph) -> tuple:
    out = set()
    for cyc in simple_cycles(g):
        if all(_out_instance_count(g, u) == 1 for u in cyc):
            out.update(cyc)
    return tuple(sorted(out))


def extreme_cycles_oracle(g: Graph) -> tuple:
    """P_ec by the path-return definition, cycle by cycle."""
    reach = reach_sets(g)
    out = set()
    for cyc in simple_cycles(g):
        cset = set(cyc)
        if not any(_bifurcates(g, u) for u in cyc):
            continue
        tree = set()
        for u in cyc:
            tree |= reach[u]
        if all(reach[w] & cset for w in tree):
            out.update(cset)
    return tuple(sorted(out))


def line_points_oracle(g: Graph) -> tuple:
    reach = reach_sets(g)
    out = []
    for v in g.vertices:
        tree = reach[v]
        bifurcates = any(_bifurcates(g, u) for u in tree)
        has_cycle = any(u in reach[t] for u in tree for t in g.targets(u))
        if not bifurcates and not has_cycle:
            out.append(v)
    return tuple(sorted(out))


def b_infinity_oracle(g: Graph) -> tuple:
    reach = reach_sets(g)
    emitters = {u for u in g.vertices if g.is_infinite_emitter(u)}
    return tuple(sorted(v for v in g.vertices if reach[v] & emitters))


def properly_infinite_subsets_oracle(g: Graph) -> tuple:
    """P_pi by the raw existential: some subset of TwoPlus tree vertices
    whose closure recaptures v.  Each subset is closed at most once per
    graph, however many trees hold it.  Exponential; callers keep graphs
    small."""
    reach = reach_sets(g)
    verdicts = _csp_verdicts(g)
    two = [u for u in g.vertices if verdicts[u] == "TwoPlus"]
    closed = {}
    out = []
    for v in g.vertices:
        pool = [w for w in two if w in reach[v]]
        for bits in range(1, 1 << len(pool)):
            subset = frozenset(w for i, w in enumerate(pool) if bits >> i & 1)
            if subset not in closed:
                closed[subset] = hs_closure_oracle(g, subset)
            if v in closed[subset]:
                out.append(v)
                break
    return tuple(sorted(out))


def sccs_oracle(g: Graph) -> tuple:
    """SCC partition by pairwise mutual reachability."""
    reach = reach_sets(g)
    comps = []
    seen = set()
    for v in g.vertices:
        if v in seen:
            continue
        comp = frozenset(u for u in g.vertices if u in reach[v] and v in reach[u])
        seen |= comp
        comps.append(comp)
    return tuple(sorted(comps, key=min))


def pprime_classes_oracle(g: Graph, prime) -> tuple:
    """Cycle classes inside P′ by explicit enumeration plus union-find.

    Two cycles relate when either reaches the other; classes are the
    transitive closure.  Returns the c̃⁰ vertex sets, sorted by minimum.
    """
    prime = set(prime)
    reach = reach_sets(g)
    cycles = [c for c in simple_cycles(g) if set(c) <= prime]
    parent = list(range(len(cycles)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    spans = []
    for c in cycles:
        span = set()
        for u in c:
            span |= reach[u]
        spans.append(span)
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if spans[i] & set(cycles[j]) or spans[j] & set(cycles[i]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, set] = {}
    for i in range(len(cycles)):
        groups.setdefault(find(i), set()).update(cycles[i])
    return tuple(sorted((frozenset(s) for s in groups.values()), key=min))


def hereditary_sets(g: Graph) -> list:
    """Every hereditary subset, by brute force over 2^n."""
    n = len(g.vertices)
    if n > 14:
        raise ValueError("subset enumeration is for small graphs only")
    out = []
    for bits in range(1 << n):
        s = {g.vertices[i] for i in range(n) if bits >> i & 1}
        if all(t in s for u in s for t in g.targets(u)):
            out.append(frozenset(s))
    return out


def hereditary_saturated_sets(g: Graph) -> list:
    """Every hereditary saturated subset, by brute force over 2^n."""
    return [
        s
        for s in hereditary_sets(g)
        if all(
            not (g.is_regular(u) and all(t in s for t in g.targets(u)))
            for u in g.vertices
            if u not in s
        )
    ]


def breaking_capable_oracle(g: Graph) -> tuple:
    """Infinite emitters u that break some hereditary Y with an escape.

    By brute force over every hereditary Y: u ∉ Y, every ω-target of u lies
    in Y, and some finite edge of u leaves Y.
    """
    hereditary = hereditary_sets(g)
    out = []
    for u in g.vertices:
        omega = {b.target for b in g.out_bundles(u) if b.mult is OMEGA}
        finite = {b.target for b in g.out_bundles(u) if b.mult is not OMEGA}
        if omega and any(u not in y and omega <= y and finite - y for y in hereditary):
            out.append(u)
    return tuple(out)


def p_K_oracle(g: Graph) -> tuple:
    """P_(K): the vertices v with no w ∈ T(v) of class One."""
    reach = reach_sets(g)
    verdicts = _csp_verdicts(g)
    one = {u for u in g.vertices if verdicts[u] == "One"}
    return tuple(sorted(v for v in g.vertices if not reach[v] & one))


def p_ppi_oracle(g: Graph) -> tuple:
    """P_ppi: every w ∈ T(v) is properly infinite and not breaking-capable."""
    reach = reach_sets(g)
    good = set(properly_infinite_subsets_oracle(g)) - set(
        breaking_capable_oracle(g)
    )
    return tuple(sorted(v for v in g.vertices if reach[v] <= good))


def p_ex_oracle(g: Graph) -> tuple:
    """P_ex: P_(K) plus each infinite emitter outside it with finitely many
    edges leaving P_(K)."""
    core = set(p_K_oracle(g))
    out = set(core)
    for u in g.vertices:
        bundles = g.out_bundles(u)
        if u not in core and any(b.mult is OMEGA for b in bundles) and all(
            b.mult is not OMEGA for b in bundles if b.target not in core
        ):
            out.add(u)
    return tuple(sorted(out))
