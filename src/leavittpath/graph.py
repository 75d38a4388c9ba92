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
import hashlib
import re
from dataclasses import dataclass

from . import _kernel
from .errors import GraphSyntaxError, GraphValidationError


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

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"vertices", "edge", "bundle", "omega"})


def is_valid_id(token: str) -> bool:
    """True when `token` is usable as a vertex/bundle id in the text format."""
    return bool(_ID_RE.match(token)) and token not in _KEYWORDS


def mult_to_json(mult) -> object:
    """JSON form of a multiplicity: an int, or the string "omega"."""
    return "omega" if mult is OMEGA else mult


@dataclass(frozen=True)
class EdgeBundle:
    """A bundle of parallel edges source -> target with a multiplicity."""

    id: str
    source: str
    target: str
    mult: object = 1

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


class Graph:
    """Immutable directed graph with multiplicity-carrying edge bundles."""

    def __init__(self, vertices, bundles=()):
        vs = list(vertices)
        seen = set()
        for v in vs:
            if v in seen:
                raise GraphValidationError(f"duplicate id '{v}'")
            seen.add(v)
        bs = list(bundles)
        for b in bs:
            if b.id in seen:
                raise GraphValidationError(f"duplicate id '{b.id}'")
            seen.add(b.id)
        vset = set(vs)
        for b in bs:
            if b.source not in vset:
                raise GraphValidationError(
                    f"bundle '{b.id}' has dangling source '{b.source}'"
                )
            if b.target not in vset:
                raise GraphValidationError(
                    f"bundle '{b.id}' has dangling target '{b.target}'"
                )
            if b.mult is not OMEGA and (not isinstance(b.mult, int) or b.mult < 1):
                raise GraphValidationError(
                    f"bundle '{b.id}' has invalid multiplicity {b.mult!r}"
                )
        self._vertices = tuple(sorted(vs))
        self._bundles = tuple(sorted(bs, key=lambda b: b.id))
        self._index = {v: i for i, v in enumerate(self._vertices)}
        self._by_id = {b.id: b for b in self._bundles}
        out: dict[str, list[EdgeBundle]] = {v: [] for v in self._vertices}
        inc: dict[str, list[EdgeBundle]] = {v: [] for v in self._vertices}
        for b in self._bundles:
            out[b.source].append(b)
            inc[b.target].append(b)
        self._out = {v: tuple(lst) for v, lst in out.items()}
        self._in = {v: tuple(lst) for v, lst in inc.items()}
        self._kind = {
            v: INFINITE_EMITTER if any(b.mult is OMEGA for b in lst)
            else REGULAR if lst
            else SINK
            for v, lst in out.items()
        }
        self._targets = {
            v: tuple(sorted({b.target for b in lst})) for v, lst in out.items()
        }
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
            if v not in self._index:
                raise GraphValidationError(f"unknown vertex id '{v}'")

    def bundle(self, eid: str) -> EdgeBundle:
        try:
            return self._by_id[eid]
        except KeyError:
            raise GraphValidationError(f"unknown bundle id '{eid}'") from None

    def has_bundle(self, eid: str) -> bool:
        return eid in self._by_id

    def out_bundles(self, v: str) -> tuple[EdgeBundle, ...]:
        self.check_vertices((v,))
        return self._out[v]

    def in_bundles(self, v: str) -> tuple[EdgeBundle, ...]:
        self.check_vertices((v,))
        return self._in[v]

    def out_multiplicity(self, v: str):
        """Total number of edges leaving v: an int, or OMEGA."""
        total = 0
        for b in self.out_bundles(v):
            if b.mult is OMEGA:
                return OMEGA
            total += b.mult
        return total

    def kind(self, v: str) -> str:
        self.check_vertices((v,))
        return self._kind[v]

    def is_regular(self, v: str) -> bool:
        return self.kind(v) == REGULAR

    def is_sink(self, v: str) -> bool:
        return self.kind(v) == SINK

    def is_infinite_emitter(self, v: str) -> bool:
        return self.kind(v) == INFINITE_EMITTER

    def targets(self, v: str) -> tuple[str, ...]:
        """Distinct targets of v's out-bundles, sorted."""
        self.check_vertices((v,))
        return self._targets[v]

    # -- bitmask plumbing (used by the analysis modules) -------------------

    def index(self, v: str) -> int:
        self.check_vertices((v,))
        return self._index[v]

    def mask_of(self, vs) -> int:
        mask = 0
        for v in vs:
            mask |= 1 << self.index(v)
        return mask

    def set_of(self, mask: int) -> tuple[str, ...]:
        return tuple(
            v for i, v in enumerate(self._vertices) if mask >> i & 1
        )

    @per_graph
    def reach_masks(self) -> list[int]:
        """Per-vertex reflexive-transitive reachability masks (memoized).

        Read off the condensation: every vertex of an SCC reaches exactly
        what the SCC reaches in the component DAG.
        """
        cond = condense(self)
        comp_masks = [0] * len(cond.sccs)
        for i, v in enumerate(self._vertices):
            comp_masks[cond.scc_of[v]] |= 1 << i
        reach = _kernel.reach_masks(comp_masks, cond.dag)
        return [reach[cond.scc_of[v]] for v in self._vertices]

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._bundles == other._bundles

    def __hash__(self):
        return hash((self._vertices, self._bundles))

    def __repr__(self):
        return f"Graph({len(self._vertices)} vertices, {len(self._bundles)} bundles)"


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a graph plus its component DAG.

    Component ids are assigned by smallest member vertex (sorted order),
    so numbering is deterministic for a given graph.
    """

    scc_of: dict
    sccs: tuple[tuple[str, ...], ...]
    dag: tuple[tuple[int, ...], ...]
    trivial: tuple[bool, ...]
    terminal: tuple[bool, ...]

    def non_trivial_terminal(self) -> tuple[int, ...]:
        return tuple(
            i
            for i in range(len(self.sccs))
            if self.terminal[i] and not self.trivial[i]
        )


@per_graph
def condense(g: Graph) -> Condensation:
    """Strongly connected components, their flags and the DAG (memoized)."""
    index = g._index
    indptr = [0]
    indices: list[int] = []
    for v in g.vertices:
        # targets are sorted by name, and index order is name order
        indices.extend(index[t] for t in g._targets[v])
        indptr.append(len(indices))
    labels = _kernel.scc_labels(len(g.vertices), indptr, indices)
    ncomp = max(labels) + 1 if labels else 0
    members: list[list[str]] = [[] for _ in range(ncomp)]
    for i, v in enumerate(g.vertices):
        members[labels[i]].append(v)
    sccs = tuple(tuple(m) for m in members)
    dag_sets: list[set[int]] = [set() for _ in range(ncomp)]
    has_self_bundle = [False] * ncomp
    for b in g.bundles:
        cs = labels[index[b.source]]
        ct = labels[index[b.target]]
        if cs == ct:
            if b.source == b.target:
                has_self_bundle[cs] = True
        else:
            dag_sets[cs].add(ct)
    trivial = tuple(
        len(sccs[i]) == 1 and not has_self_bundle[i] for i in range(ncomp)
    )
    terminal = tuple(not dag_sets[i] for i in range(ncomp))
    dag = tuple(tuple(sorted(s)) for s in dag_sets)
    return Condensation(
        scc_of=dict(zip(g.vertices, labels)),
        sccs=sccs,
        dag=dag,
        trivial=trivial,
        terminal=terminal,
    )


def reachable(g: Graph, frm) -> tuple[str, ...]:
    """The tree T(frm): every vertex reachable from the given set (inclusive)."""
    frm = tuple(frm)
    g.check_vertices(frm)
    masks = g.reach_masks()
    acc = 0
    for v in frm:
        acc |= masks[g.index(v)]
    return g.set_of(acc)


# -- text format -----------------------------------------------------------


def _tokens_with_columns(line: str):
    code = line.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _check_id(token: str, lineno: int, col: int) -> str:
    if not is_valid_id(token):
        raise GraphSyntaxError(f"invalid id '{token}'", lineno, col)
    return token


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Grammar (one declaration per line, '#' comments)::

        vertices <id> <id> ...
        edge <eid> <src> <dst>          # multiplicity 1
        edge <eid> <src> <dst> x<k>     # multiplicity k >= 1
        bundle <eid> <src> <dst> omega  # ω-multiplicity

    `edge` and `bundle` are interchangeable on input; the canonical
    serializer emits `edge` for finite multiplicities and `bundle ... omega`
    for ω.
    """
    vertices: list[str] = []
    vertex_pos: dict[str, tuple[int, int]] = {}
    bundles: list[EdgeBundle] = []
    bundle_pos: dict[str, tuple[int, int]] = {}
    endpoint_pos: list[tuple[str, str, int, int, int]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _tokens_with_columns(line)
        if not toks:
            continue
        head, head_col = toks[0]
        if head == "vertices":
            for tok, col in toks[1:]:
                _check_id(tok, lineno, col)
                if tok in vertex_pos:
                    raise GraphSyntaxError(f"duplicate id '{tok}'", lineno, col)
                vertex_pos[tok] = (lineno, col)
                vertices.append(tok)
        elif head in ("edge", "bundle"):
            if len(toks) < 4:
                raise GraphSyntaxError(
                    f"'{head}' needs <id> <src> <dst>", lineno,
                    len(line.split("#", 1)[0].rstrip()) + 1,
                )
            (eid, eid_col), (src, src_col), (dst, dst_col) = toks[1:4]
            _check_id(eid, lineno, eid_col)
            _check_id(src, lineno, src_col)
            _check_id(dst, lineno, dst_col)
            if eid in bundle_pos or eid in vertex_pos:
                raise GraphSyntaxError(f"duplicate id '{eid}'", lineno, eid_col)
            mult: object = 1
            if len(toks) == 5:
                mtok, mcol = toks[4]
                if mtok == "omega":
                    mult = OMEGA
                elif re.fullmatch(r"x\d+", mtok):
                    mult = int(mtok[1:])
                    if mult == 0:
                        raise GraphSyntaxError("multiplicity 0", lineno, mcol)
                else:
                    raise GraphSyntaxError(
                        f"expected 'x<k>' or 'omega', got '{mtok}'", lineno, mcol
                    )
            elif len(toks) > 5:
                raise GraphSyntaxError(
                    f"unexpected token '{toks[5][0]}'", lineno, toks[5][1]
                )
            bundle_pos[eid] = (lineno, eid_col)
            bundles.append(EdgeBundle(eid, src, dst, mult))
            endpoint_pos.append((src, dst, lineno, src_col, dst_col))
        else:
            raise GraphSyntaxError(
                f"expected 'vertices', 'edge' or 'bundle', got '{head}'",
                lineno, head_col,
            )

    declared = set(vertices)
    for src, dst, lineno, src_col, dst_col in endpoint_pos:
        if src not in declared:
            raise GraphSyntaxError(f"dangling endpoint '{src}'", lineno, src_col)
        if dst not in declared:
            raise GraphSyntaxError(f"dangling endpoint '{dst}'", lineno, dst_col)
    for eid, (lineno, col) in bundle_pos.items():
        if eid in declared:
            raise GraphSyntaxError(f"duplicate id '{eid}'", lineno, col)

    return Graph(vertices, bundles)


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
    return hashlib.sha256(to_text(g).encode("utf-8")).hexdigest()


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

_INSTANCE_RE = re.compile(r"(?P<id>[^\[\]]+)(?:\[(?P<idx>\d+)\])?\Z")


def parse_instance(g: Graph, token: str) -> tuple[EdgeBundle, int]:
    """Resolve an edge-instance token ("e" or "e[i]") to (bundle, index).

    Multiplicity-1 bundles accept both "e" and "e[1]"; larger bundles require
    an explicit index.  ω-bundles are rejected.
    """
    m = _INSTANCE_RE.match(token)
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
    idx = int(m.group("idx"))
    if not 1 <= idx <= b.mult:
        raise GraphValidationError(
            f"instance index {idx} out of range for bundle '{eid}' (x{b.mult})"
        )
    return b, idx


def instance_id(bundle: EdgeBundle, idx: int) -> str:
    """Canonical instance id: bare bundle id for multiplicity 1, else id[i]."""
    return bundle.id if bundle.mult == 1 else f"{bundle.id}[{idx}]"

