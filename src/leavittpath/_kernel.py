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


def scc_labels(n: int, indptr: list[int], indices: list[int]) -> list[int]:
    """Strongly connected components of a CSR adjacency structure.

    Iterative Tarjan.  Components are renumbered so that label order follows
    the smallest member vertex index: the component containing the overall
    smallest unassigned vertex gets the smallest label, and so on.
    """
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
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            start, end = indptr[v], indptr[v + 1]
            for k in range(start + pos, end):
                w = indices[k]
                if index[w] == UNSEEN:
                    work[-1] = (v, k - start + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if onstack[w] and low[w] < low[v]:
                    low[v] = low[w]
            if descended:
                continue
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
    return labels


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
