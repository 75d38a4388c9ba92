"""The `lpa` command-line tool.

Every JSON-producing subcommand wraps its payload in the same envelope:
``{"schema_version": ..., "graph_digest": ..., "payload": ...}`` where the
digest is the sha256 of the canonical graph serialization.  Output is
deterministic: keys sorted, arrays pre-sorted by the library.

Exit codes: 0 success, 2 usage/parse errors or an unreadable graph file,
3 internal invariant violations (those also dump a reproducer to stderr).
A reader that closes stdout early (``lpa report g.lpa | head -c 10``)
ends the command quietly with exit 0: what it read is all it wanted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import classify
from .closures import breaking_vertices, hs_closure
from .errors import (
    ExpressionError,
    GraphSyntaxError,
    GraphValidationError,
    InvariantViolation,
)
from .graph import Graph, graph_digest, mult_to_json, parse_graph, to_dot

SCHEMA_VERSION = "1"


class _UnreadableFile(Exception):
    """The graph file could not be read; the message is the OSError's."""


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _UnreadableFile(exc) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines as parse_graph splits them; the bad byte is the sentinel "?"
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise GraphSyntaxError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
            len(lines),
            len(lines[-1]),
        ) from None
    return parse_graph(text)


def _envelope(g: Graph, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "graph_digest": graph_digest(g),
        "payload": payload,
    }


def _emit(obj, pretty: bool = False) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _split_ids(raw: str) -> tuple[str, ...]:
    return tuple(s for s in raw.split(",") if s)


def _bundle_payload(b) -> dict:
    return {
        "id": b.id,
        "source": b.source,
        "target": b.target,
        "mult": mult_to_json(b.mult),
    }


def cmd_validate(args) -> int:
    g = _read_graph(args.file)
    payload = {
        "vertices": list(g.vertices),
        "bundles": [_bundle_payload(b) for b in g.bundles],
        "kinds": {v: g.kind(v) for v in g.vertices},
    }
    _emit(_envelope(g, payload), args.pretty)
    return 0


def _classification_payload(c) -> dict:
    return {
        "p_l": list(c.p_l),
        "p_c": list(c.p_c),
        "p_ec": list(c.p_ec),
        "p_binf": list(c.p_binf),
        "p_pi": list(c.p_pi),
        "p_ppi": list(c.p_ppi),
        "p_ec_prime": list(c.p_ec_prime),
        "p_pec": list(c.p_pec),
        "p_prime": list(c.p_prime),
        "p_k": list(c.p_K),
        "p_ex": list(c.p_ex),
        "condition_k": c.condition_K,
        "condition_l": c.condition_L,
    }


def cmd_classify(args) -> int:
    g = _read_graph(args.file)
    _emit(_envelope(g, _classification_payload(classify(g))), args.pretty)
    return 0


def cmd_closure(args) -> int:
    g = _read_graph(args.file)
    seed = _split_ids(args.seed)
    result = hs_closure(g, seed)
    breaking = breaking_vertices(g, result)
    payload = {
        "seed": sorted(set(seed)),
        "members": list(result.members),
        "rounds": result.rounds,
        "is_hereditary": result.is_hereditary,
        "is_saturated": result.is_saturated,
        "breaking_vertices": list(breaking.members),
    }
    _emit(_envelope(g, payload), args.pretty)
    return 0


def cmd_hedgehog(args) -> int:
    from .hedgehog import build_hedgehog

    g = _read_graph(args.file)
    hh = build_hedgehog(g, _split_ids(args.H), _split_ids(args.S), args.depth)
    if args.dot:
        print(to_dot(hh.base), end="")
        return 0
    payload = {
        "H": list(hh.H),
        "S": list(hh.S),
        "finite": hh.finite,
        "truncated_at": hh.truncated_at,
        "vertices": list(hh.base.vertices),
        "bundles": [_bundle_payload(b) for b in hh.base.bundles],
        "path_vertex_table": {
            name: list(insts) for name, insts in hh.path_vertex_table.items()
        },
    }
    _emit(_envelope(g, payload), args.pretty)
    return 0


def _cycle_class_payload(c) -> dict:
    return {
        "kind": c.kind,
        "label": c.label,
        "member_sccs": list(c.member_sccs),
        "class_vertices": list(c.class_vertices),
        "tree": list(c.tree),
    }


def report_payload(g: Graph) -> dict:
    from .ideals import largest_ideals_report

    r = largest_ideals_report(g)
    return {
        **_classification_payload(classify(g)),
        "semisimple_gens": list(r.semisimple_gens),
        "loc_noetherian_gens": list(r.loc_noetherian_gens),
        "loc_noetherian_no_min_idem_gens": list(r.loc_noetherian_no_min_idem_gens),
        "purely_infinite_gens": list(r.purely_infinite_gens),
        "exchange_gens": list(r.exchange_gens),
        "dense_gens": list(r.dense_gens),
        "dense": r.dense,
        "dense_witnesses": {
            v: (list(w) if w is not None else None)
            for v, w in r.dense_witnesses.items()
        },
        "pi_decomposition": [_cycle_class_payload(c) for c in r.pi_classes],
        "exchange_breaking_vertices": [
            {"vertex": v, "outside_edges": n} for v, n in r.exchange_breaking
        ],
        "notes": list(r.notes),
    }


def cmd_report(args) -> int:
    g = _read_graph(args.file)
    _emit(_envelope(g, report_payload(g)), args.pretty)
    return 0


def cmd_eval(args) -> int:
    from .terms import element_payload, format_element, graded_components, parse_element

    g = _read_graph(args.file)
    element = parse_element(g, args.expr)
    if args.json:
        if args.graded:
            payload = {
                "expr": args.expr,
                "graded": {
                    str(d): element_payload(part)
                    for d, part in graded_components(element).items()
                },
            }
        else:
            payload = {"expr": args.expr, "terms": element_payload(element)}
        _emit(_envelope(g, payload), args.pretty)
        return 0
    if args.graded:
        parts = graded_components(element)
        if not parts:
            print("0")
        for d, part in parts.items():
            print(f"degree {d}:")
            for line in format_element(part).splitlines():
                print(f"  {line}")
    else:
        print(format_element(element))
    return 0


def cmd_dot(args) -> int:
    g = _read_graph(args.file)
    print(to_dot(g), end="")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(
        cases=args.cases,
        max_vertices=args.max_vertices,
        seed=args.seed,
        exhaustive_n4=args.exhaustive_n4,
    )


def _positive_int(text: str) -> int:
    """An int of at least 1; anything else is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _terminal_columns() -> int:
    """``shutil.get_terminal_size().columns``, read without importing
    shutil: COLUMNS if a positive int, else the width of the terminal on
    stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        columns = 0
    return columns or 80


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    # argparse's default width imports shutil, and with it bz2, lzma and
    # fnmatch, on every add_argument; the width it computes is the same
    return argparse.HelpFormatter(prog, width=_terminal_columns() - 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Path-algebra analysis of directed graphs with ω-bundles",
        formatter_class=_help_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_line):
        p = sub.add_parser(name, help=help_line, formatter_class=_help_formatter)
        p.set_defaults(func=fn)
        return p

    p = add("validate", cmd_validate, "parse a graph file and echo its contents")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")

    p = add("classify", cmd_classify, "compute all vertex classifications")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")

    p = add("closure", cmd_closure, "hereditary saturated closure of a seed set")
    p.add_argument("file")
    p.add_argument("--seed", default="", help="comma-separated vertex ids")
    p.add_argument("--pretty", action="store_true")

    p = add("hedgehog", cmd_hedgehog, "build the hedgehog graph of (H, S)")
    p.add_argument("file")
    p.add_argument("--H", default="", help="comma-separated hereditary set")
    p.add_argument("--S", default="", help="comma-separated breaking vertices")
    p.add_argument("--depth", type=int, default=6, help="path truncation depth")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--pretty", action="store_true")

    p = add("report", cmd_report, "largest-ideal generating sets and classes")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="compact JSON (default)")
    group.add_argument("--pretty", action="store_true", help="indented JSON")

    p = add("eval", cmd_eval, "evaluate an algebra expression")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--graded", action="store_true", help="split output by degree")
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")

    p = add("dot", cmd_dot, "export the graph in DOT format")
    p.add_argument("file")

    p = add("selftest", cmd_selftest, "run the randomized property suites")
    p.add_argument("--cases", type=_positive_int, default=300)
    p.add_argument("--max-vertices", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--exhaustive-n4",
        action="store_true",
        help="also sweep every 4-vertex multiplicity-2 graph (slow)",
    )

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        if exc.graph_text:
            print("--- reproducer graph ---", file=sys.stderr)
            print(exc.graph_text, end="", file=sys.stderr)
            print("--- end reproducer ---", file=sys.stderr)
        return 3
    except (
        GraphSyntaxError, GraphValidationError, ExpressionError, _UnreadableFile
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
