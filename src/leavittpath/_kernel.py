"""Graph kernels on integer vertex ids.

Bitmask-based primitives shared by the analysis modules.  Vertices are
integers 0..n-1; vertex sets are int bitmasks (arbitrary width, so graphs of
any size work here).  No kernel recurses, so no stack depth grows with the
input.
"""

from __future__ import annotations


def reach_masks(comp_masks: list[int], dag) -> list[int]:
    """Reach masks of the components of a condensation DAG.

    ``comp_masks[c]`` is the vertex mask of component c and ``dag[c]`` lists
    the components c has an edge into.  Returns, per component, the union of
    the masks of every component reachable from it, itself included.

    One iterative depth-first pass: a component's reach is final when it
    leaves the stack (its successors all left before it, as the DAG has no
    cycles), and it is then ORed into its parent's.  Each DAG edge is read
    once.
    """
    reach = list(comp_masks)
    seen = [False] * len(dag)
    for root in range(len(dag)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(dag[root]))]
        while stack:
            c, succ = stack[-1]
            for d in succ:
                if seen[d]:
                    reach[c] |= reach[d]
                else:
                    seen[d] = True
                    stack.append((d, iter(dag[d])))
                    break
            else:
                stack.pop()
                if stack:
                    reach[stack[-1][0]] |= reach[c]
    return reach


def scc_labels(succ) -> tuple[list[int], list[int]]:
    """Strongly connected components of an adjacency list.

    ``succ[v]`` lists the vertices v has an edge into.  Iterative Tarjan.
    Components are renumbered so that label order follows the smallest
    member vertex index: the component containing the overall smallest
    unassigned vertex gets the smallest label, and so on.  Returns the
    label of each vertex and the vertex mask of each label.
    """
    n = len(succ)
    UNSEEN = -1
    index = [UNSEEN] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != UNSEEN:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] == UNSEEN:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if onstack[w] and low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    comps.sort(key=min)
    labels = [0] * n
    for lab, comp in enumerate(comps):
        for v in comp:
            labels[v] = lab
    return labels, list(map(_members_mask, comps))


def _members_mask(members: list[int]) -> int:
    """The mask of the vertex indices ``members``, built in one conversion:
    one ``|=`` per member would copy the growing int each time."""
    if len(members) == 1:
        return 1 << members[0]
    lo, hi = min(members), max(members)
    digits = bytearray(b"0") * (hi - lo + 1)
    for i in members:
        digits[hi - i] = 49  # ord("1"); the highest index is the first digit
    return int(digits, 2) << lo


def saturation_step(mask: int, regular) -> int:
    """Vertices that one saturation step adds to ``mask``.

    ``regular`` lists (vertex, successor indices) pairs of the regular
    vertices.  The step adds, simultaneously, every regular vertex outside
    the set whose successors all lie inside.
    """
    added = 0
    for v, succ in regular:
        if not mask >> v & 1:
            for t in succ:
                if not mask >> t & 1:
                    break
            else:
                added |= 1 << v
    return added


def saturation_fixpoint(mask: int, regular) -> tuple[int, int]:
    """Iterate the saturation step to a fixpoint.

    Returns the fixpoint mask and the number of steps that grew the set.
    """
    rounds = 0
    while True:
        added = saturation_step(mask, regular)
        if not added:
            return mask, rounds
        mask |= added
        rounds += 1
