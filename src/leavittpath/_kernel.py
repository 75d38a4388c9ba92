"""Graph kernels on integer vertex ids.

Bitmask-based primitives shared by the analysis modules.  Vertices are
integers 0..n-1; vertex sets are int bitmasks (arbitrary width, so graphs of
any size work here).  No kernel recurses, so no stack depth grows with the
input.
"""

from itertools import compress

# binary digits as the bytes 0 and 1, selectors for ``itertools.compress``
BITS = bytes.maketrans(b"01", b"\x00\x01")


def reach_masks(values: list[int], dag, order) -> list[int]:
    """Per component of a condensation DAG, the OR of ``values`` over every
    component it reaches, itself included.

    ``dag[c]`` lists the components c has an edge into, and ``order`` lists
    every component after all of those (the finishing order of
    ``scc_labels``), so each successor's reach is final when it is read.
    Each DAG edge is read once.
    """
    reach = list(values)
    for c in order:
        for d in dag[c]:
            reach[c] |= reach[d]
    return reach


def scc_labels(succ) -> tuple[list[int], list[int], list[int]]:
    """Strongly connected components of an adjacency list.

    ``succ[v]`` lists the vertices v has an edge into.  Iterative Tarjan.
    Components are renumbered so that label order follows the smallest
    member vertex index: the component containing the overall smallest
    unassigned vertex gets the smallest label, and so on.  Returns the
    label of each vertex, the vertex mask of each label, and the labels in
    the order Tarjan finished them, in which every component comes after
    each component it has an edge into.
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
    # by_min[lab] is the finishing position of the component labelled lab
    by_min = sorted(range(len(comps)), key=lambda k: min(comps[k]))
    labels = [0] * n
    order = [0] * len(comps)
    for lab, k in enumerate(by_min):
        order[k] = lab
        for v in comps[k]:
            labels[v] = lab
    return labels, [members_mask(comps[k]) for k in by_min], order


def members_mask(members: list[int]) -> int:
    """The mask of the vertex indices ``members`` (any order; repeats and
    none allowed).  Each ``|=`` copies the growing int, so from 64 members
    on the mask is read from one digit string over their index span."""
    if len(members) < 64:
        mask = 0
        for i in members:
            mask |= 1 << i
        return mask
    lo, hi = min(members), max(members)
    digits = bytearray(b"0") * (hi - lo + 1)
    for i in members:
        digits[hi - i] = 49  # ord("1"); the highest index is the first digit
    return int(digits, 2) << lo


def saturation_step(mask: int, regular) -> int:
    """Vertices that one saturation step adds to ``mask``.

    ``regular`` is (the mask of the regular vertices, the successor indices
    of each vertex).  The step adds, simultaneously, every regular vertex
    outside the set whose successors all lie inside; only those candidates
    are visited.  Each bit test shifts the mask, which copies it, so past
    16 candidates the mask's digits are read once as a string and indexed.
    """
    regular_mask, succ = regular
    todo = regular_mask & ~mask
    if todo.bit_count() <= 16:
        added = 0
        while todo:
            low = todo & -todo
            todo ^= low
            for t in succ[low.bit_length() - 1]:
                if not mask >> t & 1:
                    break
            else:
                added |= low
        return added
    n = len(succ)
    held = format(mask, "b").zfill(n)[::-1]  # held[t] is "1" when t is in
    todo = format(todo, "b").encode()[::-1].translate(BITS)
    added = []
    for v in compress(range(n), todo):
        for t in succ[v]:
            if held[t] == "0":
                break
        else:
            added.append(v)
    return members_mask(added)


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
