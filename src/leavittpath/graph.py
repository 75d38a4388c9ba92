"""Graph data model, text format, and reachability/SCC primitives.

A graph is a finite vertex set plus a list of edge *bundles*: an edge bundle
with multiplicity k stands for k parallel edges, and multiplicity ω stands
for infinitely many (the representable form of an infinite emitter).
Individual edges of a finite bundle are addressable as ``id`` (multiplicity
1) or ``id[i]`` (1 <= i <= k); ω-bundle members are not addressable.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import gc
import math
from collections import namedtuple
from itertools import compress
from operator import attrgetter

from . import _kernel
from .errors import GraphSyntaxError, GraphValidationError

# hashlib loads OpenSSL, which costs a fresh `lpa` more than the one digest it
# computes; CPython's random.py takes sha512 from the built-in module alike
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class _Omega:
    """The ω multiplicity (a single shared sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"

    def __reduce__(self):
        return (_Omega, ())


OMEGA = _Omega()

SINK = "Sink"
REGULAR = "Regular"
INFINITE_EMITTER = "InfiniteEmitter"

_KEYWORDS = frozenset({"vertices", "edge", "bundle", "omega"})

# binary digits as the bytes 0 and 1, the selectors of ``Graph.set_of``
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def is_valid_id(token: str) -> bool:
    """True when `token` is usable as a vertex/bundle id in the text format."""
    return token.isascii() and token.isidentifier() and token not in _KEYWORDS


def mult_to_json(mult) -> object:
    """JSON form of a multiplicity: an int, or the string "omega"."""
    return "omega" if mult is OMEGA else mult


class EdgeBundle(namedtuple("EdgeBundle", "id source target mult", defaults=(1,))):
    """A bundle of parallel edges source -> target with a multiplicity."""

    __slots__ = ()

    @property
    def is_omega(self) -> bool:
        return self.mult is OMEGA

    @property
    def instances(self) -> tuple[str, ...]:
        """Addressable edge-instance ids of this bundle.

        A multiplicity-1 bundle has the single instance ``id``; multiplicity
        k >= 2 yields ``id[1]`` .. ``id[k]``.  ω-bundles have no addressable
        members.
        """
        if self.mult is OMEGA:
            raise GraphValidationError(
                f"members of omega bundle '{self.id}' are not addressable"
            )
        if self.mult == 1:
            return (self.id,)
        return tuple(f"{self.id}[{i}]" for i in range(1, self.mult + 1))

    def __repr__(self):
        return f"EdgeBundle({self.id}: {self.source}->{self.target} x{self.mult!r})"


def per_graph(fn):
    """Compute ``fn(g)`` once per graph and keep it in the graph's memo.

    Every derived structure of a graph (condensation, reach masks, the
    classifier sets) is a pure function of the immutable graph, so it is
    computed on first use and shared by every later caller.
    """

    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memoized(g):
        memo = g._memo
        if key not in memo:
            memo[key] = fn(g)
        return memo[key]

    return memoized


_bundle_id = attrgetter("id")


def _raise_invalid(vertices, bundles):
    """Name the first fault ``Graph`` found: a repeated id (vertices, then
    bundles), else the first bundle, in input order, with a dangling
    endpoint or an invalid multiplicity."""
    seen = set()
    for i in [*vertices, *map(_bundle_id, bundles)]:
        if i in seen:
            raise GraphValidationError(f"duplicate id '{i}'")
        seen.add(i)
    declared = set(vertices)
    for b in bundles:
        if b.source not in declared:
            raise GraphValidationError(
                f"bundle '{b.id}' has dangling source '{b.source}'"
            )
        if b.target not in declared:
            raise GraphValidationError(
                f"bundle '{b.id}' has dangling target '{b.target}'"
            )
        if b.mult is not OMEGA and (
            not isinstance(b.mult, int) or b.mult < 1 or b.mult is True
        ):
            raise GraphValidationError(
                f"bundle '{b.id}' has invalid multiplicity {b.mult!r}"
            )


class Graph:
    """Immutable directed graph with multiplicity-carrying edge bundles.

    Vertex i is the i-th id in sorted order and a vertex set is an int mask
    over these indices: the view every analysis reads.  Ids are checked
    where they enter (``index``, ``mask_of``) and made where they leave
    (``set_of``).
    """

    def __init__(self, vertices, bundles=()):
        vs = list(vertices)
        bs = list(bundles)
        self._vertices = verts = tuple(sorted(vs))
        self._bundles = tuple(sorted(bs, key=_bundle_id))
        self._index = index = dict(zip(verts, range(len(verts))))
        self._by_id = by_id = dict(zip(map(_bundle_id, self._bundles), self._bundles))
        self._full = (1 << len(verts)) - 1
        out: list[list[EdgeBundle]] = [[] for _ in verts]
        succ: list[list[int]] = [[] for _ in verts]
        omega_sources: list[int] = []
        # the two id tables hold each id once, so a repeat shrinks or joins
        # them; then one pass over the bundles, each unpacked once, fills the
        # per-index tables, where a dangling endpoint fails its lookup and a
        # bad multiplicity its test.  The ordered finder names the first fault.
        try:
            if len(index) + len(by_id) != len(vs) + len(bs) or index.keys() & by_id:
                raise ValueError
            for b in self._bundles:
                _, source, target, mult = b
                s = index[source]
                if mult is OMEGA:
                    omega_sources.append(s)
                elif not isinstance(mult, int) or mult < 1 or mult is True:
                    raise ValueError
                out[s].append(b)
                succ[s].append(index[target])
        except (KeyError, ValueError):
            _raise_invalid(vs, bs)
        self._out = tuple(map(tuple, out))
        self._succ = tuple(map(tuple, succ))
        mask = _kernel.members_mask
        sinks = mask([i for i, lst in enumerate(out) if not lst])
        emitters = mask(omega_sources)
        self._kind_masks = {
            SINK: sinks,
            REGULAR: self._full & ~sinks & ~emitters,
            INFINITE_EMITTER: emitters,
        }
        # ω, two bundles, or one bundle of multiplicity k >= 2
        self._bifurcations = mask(
            [i for i, lst in enumerate(out) if len(lst) > 1 or lst and lst[0].mult != 1]
        )
        self._memo: dict = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def bundles(self) -> tuple[EdgeBundle, ...]:
        return self._bundles

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def check_vertices(self, vs) -> None:
        for v in vs:
            self.index(v)

    def bundle(self, eid: str) -> EdgeBundle:
        try:
            return self._by_id[eid]
        except KeyError:
            raise GraphValidationError(f"unknown bundle id '{eid}'") from None

    def has_bundle(self, eid: str) -> bool:
        return eid in self._by_id

    def out_bundles(self, v: str) -> tuple[EdgeBundle, ...]:
        return self._out[self.index(v)]

    def kind(self, v: str) -> str:
        i = self.index(v)
        return next(k for k, mask in self._kind_masks.items() if mask >> i & 1)

    def is_regular(self, v: str) -> bool:
        return self._kind_masks[REGULAR] >> self.index(v) & 1 == 1

    def is_infinite_emitter(self, v: str) -> bool:
        return self._kind_masks[INFINITE_EMITTER] >> self.index(v) & 1 == 1

    def targets(self, v: str) -> tuple[str, ...]:
        """Distinct targets of v's out-bundles, sorted."""
        return _target_table(self)[self.index(v)]

    # -- the integer view ---------------------------------------------------

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphValidationError(f"unknown vertex id '{v}'") from None

    def mask_of(self, vs) -> int:
        mask = 0
        for v in vs:
            mask |= 1 << self.index(v)
        return mask

    def set_of(self, mask: int) -> tuple[str, ...]:
        """The ids in ``mask``, sorted; a complement ``~m`` is accepted."""
        return tuple(compress(self._vertices, self._selectors(mask)))

    def indices_of(self, mask: int) -> list[int]:
        """The indices in ``mask``, ascending; a complement ``~m`` is
        accepted."""
        return list(compress(range(len(self._vertices)), self._selectors(mask)))

    def _selectors(self, mask: int) -> bytes:
        """Per index, the byte 1 when it is in ``mask`` and 0 when not (up
        to the highest index in it): one pass over the binary digits."""
        return format(mask & self._full, "b").encode()[::-1].translate(_BITS)

    @property
    def out_table(self) -> tuple[tuple[EdgeBundle, ...], ...]:
        """Per vertex index, its out-bundles in id order."""
        return self._out

    @property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex index, the target index of each of its out-bundles,
        in the order of ``out_table``."""
        return self._succ

    def kind_mask(self, kind: str) -> int:
        """The vertices of one kind: SINK, REGULAR or INFINITE_EMITTER."""
        return self._kind_masks[kind]

    @property
    def bifurcations(self) -> int:
        """The vertices that emit two or more edges (ω counts as many)."""
        return self._bifurcations

    @per_graph
    def reach_masks(self) -> list[int]:
        """Per SCC of ``condense(self)``, the mask of every vertex its
        members reach, themselves included (memoized)."""
        cond = condense(self)
        return cond.reach_union(cond.masks)

    def tree_mask(self, mask: int) -> int:
        """T(X) of the set ``mask``: every vertex it reaches, itself included."""
        reach = self.reach_masks()
        scc_of = condense(self).scc_of
        tree = 0
        while mask:
            tree |= reach[scc_of[(mask & -mask).bit_length() - 1]]
            mask &= ~tree
        return tree

    def reaching(self, mask: int) -> int:
        """The vertices whose tree T(v) meets the set ``mask``."""
        found = 0
        for scc, reach in zip(condense(self).masks, self.reach_masks()):
            if reach & mask:
                found |= scc
        return found

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._bundles == other._bundles

    def __hash__(self):
        return hash((self._vertices, self._bundles))

    def __repr__(self):
        return f"Graph({len(self._vertices)} vertices, {len(self._bundles)} bundles)"


# the table that only some callers of ``Graph`` read


@per_graph
def _target_table(g: Graph) -> tuple[tuple[str, ...], ...]:
    name = g.vertices.__getitem__
    return tuple(tuple(map(name, sorted(set(ts)))) for ts in g.successors)


class Condensation(namedtuple("Condensation", "scc_of masks dag internal order")):
    """SCC partition of a graph plus its component DAG.

    Component ids are assigned by smallest member vertex (sorted order),
    so numbering is deterministic for a given graph.  ``scc_of[i]`` is the
    component of vertex index i, ``masks[c]`` the vertex mask of component
    c and ``dag[c]`` the components it has an edge into, sorted; c is
    terminal when that is empty.  ``internal[c]`` counts the edge instances
    that stay inside component c (``math.inf`` once an ω-bundle does), and
    a component is trivial when that count is 0.  ``order`` lists every
    component after each component it has an edge into.
    """

    __slots__ = ()

    def reach_union(self, values) -> list[int]:
        """Per component, the OR of ``values`` over every component it
        reaches, itself included; linear in the DAG edges."""
        return _kernel.reach_masks(values, self.dag, self.order)


@per_graph
def condense(g: Graph) -> Condensation:
    """Strongly connected components, their edge counts and the DAG
    (memoized).

    Read off the integer successors of the graph: no vertex name is looked
    up.
    """
    succ = g.successors
    labels, masks, order = _kernel.scc_labels(succ)
    ncomp = len(masks)
    internal = [0] * ncomp
    dag_sets: list[set[int]] = [set() for _ in range(ncomp)]
    for c, ts, out in zip(labels, succ, g.out_table):
        for b, t in zip(out, ts):
            d = labels[t]
            if d != c:
                dag_sets[c].add(d)
            else:  # an edge back into c is one of the component's own
                internal[c] += math.inf if b.mult is OMEGA else b.mult
    return Condensation(
        scc_of=tuple(labels),
        masks=tuple(masks),
        dag=tuple(tuple(sorted(s)) for s in dag_sets),
        internal=tuple(internal),
        order=tuple(order),
    )


# -- text format -----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Grammar (one declaration per line, '#' comments)::

        vertices <id> <id> ...
        edge <eid> <src> <dst>          # multiplicity 1
        edge <eid> <src> <dst> x<k>     # multiplicity k >= 1
        bundle <eid> <src> <dst> omega  # ω-multiplicity

    `edge` and `bundle` are interchangeable on input; the canonical
    serializer emits `edge` for finite multiplicities and `bundle ... omega`
    for ω.  k is written in ASCII digits.

    One pass splits the lines into vertex ids and bundles, reading each
    multiplicity; the ids are then checked as ASCII identifiers that are no
    keyword, and ``Graph`` finds a repeated id or an undeclared endpoint.  A
    text that fails any of these goes to ``_raise_first_error``, which names
    its first fault with the line and column.
    """
    lines = text.splitlines()
    # the build allocates a tuple per bundle and leaves no cycle behind, so
    # the cyclic collector would only rescan the growing graph
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        vertices: list[str] = []
        bundles: list[EdgeBundle] = []
        make = tuple.__new__  # skips EdgeBundle's Python-level __new__
        try:
            for line in lines:
                if "#" in line:
                    line = line.split("#", 1)[0]
                toks = line.split()
                if not toks:
                    continue
                head = toks[0]
                if head == "vertices":
                    vertices += toks[1:]
                elif head != "edge" and head != "bundle":
                    raise ValueError
                elif len(toks) == 4:
                    bundles.append(make(EdgeBundle, (toks[1], toks[2], toks[3], 1)))
                else:
                    _, eid, src, dst, m = toks  # any other length: ValueError
                    if m == "omega":
                        mult = OMEGA
                    elif m[0] != "x" or not m[1:].isdigit() or not m.isascii():
                        raise ValueError
                    else:
                        mult = int(m[1:])  # past int()'s digit limit: ValueError
                        if not mult:
                            raise ValueError
                    bundles.append(make(EdgeBundle, (eid, src, dst, mult)))
        except ValueError:
            _raise_first_error(lines)

        ids = [*vertices, *map(_bundle_id, bundles)]
        if (
            all(map(str.isidentifier, ids)) and _KEYWORDS.isdisjoint(ids)
            # a non-ASCII character may sit in a comment or between two ids
            and (text.isascii() or all(map(str.isascii, ids)))
        ):
            try:
                return Graph(vertices, bundles)
            except GraphValidationError:  # a repeated id or an undeclared endpoint
                pass
        _raise_first_error(lines)
    finally:
        if gc_was_enabled:
            gc.enable()


def _raise_first_error(lines: list[str]):
    """Raise the first fault of a text that ``parse_graph`` rejected.

    The lines are walked in order; each is checked token by token, then
    the endpoints and the bundle ids against every declared vertex.
    """

    def error(message: str, k: int) -> GraphSyntaxError:
        """The error at token k of line ``lineno`` (k past the last token:
        the end of the line's code)."""
        code = lines[lineno - 1].split("#", 1)[0]
        toks = code.split()
        pos = 0
        for tok in toks[:k]:
            pos = code.index(tok, pos) + len(tok)
        if k < len(toks):
            pos = code.index(toks[k], pos)
        return GraphSyntaxError(message, lineno, pos + 1)

    declared: set[str] = set()
    bundle_ids: set[str] = set()
    edge_rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines, start=1):
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "edge" or head == "bundle":
            if len(toks) < 4:
                raise error(f"'{head}' needs <id> <src> <dst>", len(toks))
            for k in (1, 2, 3):
                if not is_valid_id(toks[k]):
                    raise error(f"invalid id '{toks[k]}'", k)
            if toks[1] in bundle_ids or toks[1] in declared:
                raise error(f"duplicate id '{toks[1]}'", 1)
            if len(toks) > 5:
                raise error(f"unexpected token '{toks[5]}'", 5)
            if len(toks) == 5 and toks[4] != "omega":
                mtok, digits = toks[4], toks[4][1:]
                if not (mtok[0] == "x" and digits.isdigit() and digits.isascii()):
                    raise error(f"expected 'x<k>' or 'omega', got '{mtok}'", 4)
                try:
                    mult = int(digits)
                except ValueError:  # past int()'s digit limit
                    raise error("multiplicity has too many digits", 4) from None
                if mult == 0:
                    raise error("multiplicity 0", 4)
            bundle_ids.add(toks[1])
            edge_rows.append((lineno, toks))
        elif head == "vertices":
            for k, tok in enumerate(toks[1:], 1):
                if not is_valid_id(tok):
                    raise error(f"invalid id '{tok}'", k)
                if tok in declared:
                    raise error(f"duplicate id '{tok}'", k)
                declared.add(tok)
        else:
            raise error(f"expected 'vertices', 'edge' or 'bundle', got '{head}'", 0)
    for lineno, toks in edge_rows:
        for k in (2, 3):
            if toks[k] not in declared:
                raise error(f"dangling endpoint '{toks[k]}'", k)
    for lineno, toks in edge_rows:
        if toks[1] in declared:
            raise error(f"duplicate id '{toks[1]}'", 1)
    raise AssertionError("parse_graph rejected a text without a fault")


def to_text(g: Graph) -> str:
    """Canonical text serialization (sorted; parse(to_text(g)) == g)."""
    for v in g.vertices:
        if not is_valid_id(v):
            raise GraphValidationError(
                f"vertex id '{v}' is not representable in the text format"
            )
    for b in g.bundles:
        if not is_valid_id(b.id):
            raise GraphValidationError(
                f"bundle id '{b.id}' is not representable in the text format"
            )
    lines = []
    if g.vertices:
        lines.append("vertices " + " ".join(g.vertices))
    for b in g.bundles:
        if b.mult is OMEGA:
            lines.append(f"bundle {b.id} {b.source} {b.target} omega")
        elif b.mult == 1:
            lines.append(f"edge {b.id} {b.source} {b.target}")
        else:
            lines.append(f"edge {b.id} {b.source} {b.target} x{b.mult}")
    return "".join(line + "\n" for line in lines)


def graph_digest(g: Graph) -> str:
    """sha256 hex digest of the canonical serialization."""
    return sha256(to_text(g).encode("utf-8")).hexdigest()


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    """DOT export: one arrow per bundle, labeled ×k or ×ω."""
    lines = ["digraph G {"]
    for v in g.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for b in g.bundles:
        label = "×ω" if b.mult is OMEGA else f"×{b.mult}"
        lines.append(
            f"  {_dot_quote(b.source)} -> {_dot_quote(b.target)} "
            f"[label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "".join(line + "\n" for line in lines)


# -- edge instances ---------------------------------------------------------

def parse_instance(g: Graph, token: str) -> tuple[EdgeBundle, int]:
    """Resolve an edge-instance token ("e" or "e[i]") to (bundle, index).

    Multiplicity-1 bundles accept both "e" and "e[1]"; larger bundles require
    an explicit index.  ω-bundles are rejected.  A token that is itself the
    id of a multiplicity-1 bundle names it, brackets and all (a hedgehog's
    bar edge ``bar:e[1]``).
    """
    b = g._by_id.get(token)
    if b is not None and b.mult == 1:
        return b, 1
    import re  # only the term engine reads instances; re caches the pattern

    m = re.match(r"(?P<id>[^\[\]]+)(?:\[(?P<idx>[0-9]+)\])?\Z", token)
    if not m:
        raise GraphValidationError(f"malformed edge instance '{token}'")
    eid = m.group("id")
    b = g.bundle(eid)
    if b.mult is OMEGA:
        raise GraphValidationError(
            f"'{token}' refers to omega bundle '{eid}'; its members are not addressable"
        )
    if m.group("idx") is None:
        if b.mult != 1:
            raise GraphValidationError(
                f"bundle '{eid}' has multiplicity {b.mult}; "
                f"use '{eid}[i]' with 1 <= i <= {b.mult}"
            )
        return b, 1
    try:
        idx = int(m.group("idx"))
    except ValueError:  # past int()'s digit limit
        raise GraphValidationError(
            f"instance index of '{eid}' has too many digits"
        ) from None
    if not 1 <= idx <= b.mult:
        raise GraphValidationError(
            f"instance index {idx} out of range for bundle '{eid}' (x{b.mult})"
        )
    return b, idx


def instance_id(bundle: EdgeBundle, idx: int) -> str:
    """Canonical instance id: bare bundle id for multiplicity 1, else id[i]."""
    return bundle.id if bundle.mult == 1 else f"{bundle.id}[{idx}]"

