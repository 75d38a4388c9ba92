"""Hereditary/saturated machinery.

Trees, saturation, hereditary-saturated closures, breaking vertices, and
the density criterion.  Conventions:

* hereditary: closed under out-edges (if v is in the set, so is every
  vertex v reaches);
* saturated: contains every Regular vertex all of whose edge-targets lie in
  the set (sinks and infinite emitters are never forced in);
* closure: tree step first, then saturation passes to a fixpoint.
"""

from . import _kernel
from .errors import GraphValidationError, InvariantViolation
from .graph import INFINITE_EMITTER, OMEGA, REGULAR, Graph, _record


def _regular_targets(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The Regular vertices' mask and every vertex's successor indices, for
    saturation."""
    return g.kind_mask(REGULAR), g.successors


class _MemberSet:
    """An immutable vertex set with facts about it, iterated as its members.

    A slots class, not a tuple: iterating yields the members, which a tuple
    subclass could only do by breaking its ``len`` and its pickling.
    Equality and the hash read the fields in ``_compared``; the repr shows
    them all.
    """

    __slots__ = ()
    _compared = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._compared)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._compared))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __contains__(self, v) -> bool:
        return v in self.members

    def __iter__(self):
        return iter(self.members)


class HereditarySet(_MemberSet):
    """A vertex set with its hereditary/saturated flags certified on build.

    ``rounds`` counts the saturation passes that built it, when known; it
    is left out of equality.
    """

    __slots__ = ("members", "is_hereditary", "is_saturated", "rounds")
    _compared = __slots__[:3]

    def __init__(self, members, is_hereditary, is_saturated, rounds=None):
        init = object.__setattr__
        init(self, "members", members)
        init(self, "is_hereditary", is_hereditary)
        init(self, "is_saturated", is_saturated)
        init(self, "rounds", rounds)


class BreakingSet(_MemberSet):
    """Breaking vertices of a hereditary set H.

    A breaking vertex is an infinite emitter outside H with only finitely
    many edges landing outside H — equivalently here: every one of its
    ω-bundles targets H.  ``outside_counts`` records, per member, how many
    (finitely many, possibly zero) edges stay outside H.
    """

    __slots__ = ("members", "outside_counts")
    _compared = __slots__

    def __init__(self, members, outside_counts):
        init = object.__setattr__
        init(self, "members", members)
        init(self, "outside_counts", outside_counts)


def saturate_once(g: Graph, X) -> tuple[str, ...]:
    """One saturation step: X plus every Regular vertex emitting only into X."""
    mask = g.mask_of(X)
    return g.set_of(mask | _kernel.saturation_step(mask, _regular_targets(g)))


def closure_mask(g: Graph, seed: int) -> tuple[int, int]:
    """Smallest hereditary saturated superset of the set ``seed``, as a mask.

    Tree step once, then simultaneous saturation passes to a fixpoint.
    Returns the closure and the number of passes that grew it; raises
    ``InvariantViolation`` unless the result is hereditary and saturated.
    """
    regular = _regular_targets(g)
    mask, rounds = _kernel.saturation_fixpoint(g.tree_mask(seed), regular)
    if g.tree_mask(mask) != mask or _kernel.saturation_step(mask, regular):
        raise InvariantViolation(
            f"closure of {list(g.set_of(seed))} is not hereditary+saturated: "
            f"{g.set_of(mask)}",
            g,
        )
    return mask, rounds


def hs_closure(g: Graph, X) -> HereditarySet:
    """Smallest hereditary saturated superset of X.

    ``rounds`` on the result counts the saturation passes that grew the set.
    """
    mask, rounds = closure_mask(g, g.mask_of(X))
    return HereditarySet(g.set_of(mask), True, True, rounds=rounds)


def breaking_counts(g: Graph, held: int) -> tuple[tuple[int, int], ...]:
    """(vertex index, edges outside the set) of each breaking vertex of
    the hereditary set ``held``, by index."""
    out, succ = g.out_table, g.successors
    found = []
    for i in g.indices_of(g.kind_mask(INFINITE_EMITTER) & ~held):
        count = 0
        for b, t in zip(out[i], succ[i]):
            if not held >> t & 1:
                if b.mult is OMEGA:
                    break
                count += b.mult
        else:
            found.append((i, count))
    return tuple(found)


def breaking_vertices(g: Graph, H) -> BreakingSet:
    """Breaking vertices of the hereditary set H, with outside-edge counts."""
    held = g.mask_of(H)
    if g.tree_mask(held) != held:
        raise GraphValidationError("H is not hereditary")
    name = g.vertices.__getitem__
    counts = {name(i): count for i, count in breaking_counts(g, held)}
    return BreakingSet(tuple(counts), counts)


def check_breaking(g: Graph, H, S) -> None:
    """Refuse (H, S) unless S lies in B_H: an unknown id in S is named as
    unknown, an H that is not hereditary as such, and otherwise every
    member of S outside B_H, sorted."""
    g.check_vertices(S)
    stray = sorted(set(S).difference(breaking_vertices(g, H).members))
    if stray:
        raise GraphValidationError(f"not breaking vertices of H: {stray}")


def breaking_capable_mask(g: Graph) -> int:
    """Vertices that break *some* hereditary set (with a nonzero escape).

    An infinite emitter u belongs to B_Y for a hereditary Y exactly when Y
    absorbs every ω-bundle target of u while u itself stays outside and at
    least one finite edge of u escapes.  Any such Y contains the tree of the
    ω-targets, and that tree is itself the smallest candidate, so the test
    collapses to: some finite edge of u leaves their tree.  (That edge also
    keeps u outside: a tree holding u holds all of u's targets.)  (An
    emitter whose every edge lands in the tree never witnesses the
    obstruction: the zero-escape case is what the v^H elements degenerate
    on, not what poisons proper infiniteness.)
    """
    out, succ = g.out_table, g.successors
    found = []
    for i in g.indices_of(g.kind_mask(INFINITE_EMITTER)):
        omega = finite = 0
        for b, t in zip(out[i], succ[i]):
            if b.mult is OMEGA:
                omega |= 1 << t
            else:
                finite |= 1 << t
        if finite & ~g.tree_mask(omega):
            found.append(i)
    return _kernel.members_mask(found)


def breaking_capable(g: Graph) -> tuple[str, ...]:
    """Vertices that break some hereditary set: ``breaking_capable_mask``
    named."""
    return g.set_of(breaking_capable_mask(g))


class DensityResult(_record("DensityResult", "dense witnesses")):
    """Verdict of the density criterion plus per-vertex witnesses.

    ``witnesses[v]`` is a (possibly empty) tuple of bundle ids tracing a path
    from v into the target set, or None when v cannot reach it.
    """

    __slots__ = ()


def density_witnesses(g: Graph, X: int) -> list:
    """Per vertex index, the bundle ids of a shortest path into the set
    ``X``: empty inside it, None for a vertex that cannot reach it.

    X may be any vertex set (the classifier union this is applied to is not
    hereditary in general).  One breadth-first pass from X along reversed
    edges gives each vertex its distance to X; then, in that order, a
    vertex's witness is its smallest-id out-bundle one step nearer X
    followed by the witness of that bundle's target.
    """
    out, succ = g.out_table, g.successors
    preds: list[list[int]] = [[] for _ in succ]
    for s, ts in enumerate(succ):
        for t in ts:
            preds[t].append(s)
    dist = [-1] * len(succ)
    order = g.indices_of(X)
    for i in order:
        dist[i] = 0
    for t in order:
        for s in preds[t]:
            if dist[s] < 0:
                dist[s] = dist[t] + 1
                order.append(s)
    witnesses: list = [None] * len(succ)
    for v in order:
        if dist[v]:
            # out-bundles are kept in id order: the first match is the smallest
            want = dist[v] - 1
            for b, t in zip(out[v], succ[v]):
                if dist[t] == want:
                    witnesses[v] = (b.id, *witnesses[t])
                    break
        else:
            witnesses[v] = ()
    return witnesses


def density_check(g: Graph, X) -> DensityResult:
    """Does every vertex of the graph connect to X?  ``density_witnesses``
    on the named set, with the witnesses keyed by vertex id."""
    witnesses = density_witnesses(g, g.mask_of(X))
    return DensityResult(None not in witnesses, dict(zip(g.vertices, witnesses)))
