"""The `lpa` command-line tool.

Every JSON-producing subcommand wraps its payload in the same envelope:
``{"schema_version": ..., "graph_digest": ..., "payload": ...}`` where the
digest is the sha256 of the canonical graph serialization.  Output is
deterministic: keys sorted, arrays pre-sorted by the library.

Exit codes: 0 success, 2 usage/parse errors or an unreadable graph file,
3 internal invariant violations.  ``run`` alone prints a failure: an
``InvariantViolation`` as its detail and ``graph.reproducer`` block, any
other ``LpaError`` as one ``error:`` line.
A reader that closes stdout early (``lpa report g.lpa | head -c 10``)
ends the command quietly with exit 0: what it read is all it wanted.
"""

import sys

from .classify import classify
from .closures import breaking_vertices, hs_closure
from .errors import GraphSyntaxError, InvariantViolation, LpaError
from .graph import INFINITE_EMITTER, REGULAR, SINK, Graph, graph_digest, mult_to_json
from .graph import parse_graph, reproducer, to_dot

SCHEMA_VERSION = "1"

# types.SimpleNamespace, which types.py takes from sys.implementation too
_Namespace = type(sys.implementation)


class _UnreadableFile(LpaError):
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


def _unserializable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _compact_json(obj) -> str:
    """``json.dumps(obj, separators=(",", ":"), sort_keys=True)`` without
    importing json, whose import loads ``re`` and ``enum``.

    ``_json.make_encoder`` gets the arguments ``json.dumps`` hands it: a
    circular-reference table, JSONEncoder.default's error, the ASCII string
    escaper, no indent, the separators, sort_keys, not skipkeys, allow_nan.
    As ``json.encoder`` does, fall back to Python's encoder when ``_json`` is
    missing, and also when its make_encoder takes other arguments."""
    try:
        from _json import encode_basestring_ascii, make_encoder

        encode = make_encoder(
            {}, _unserializable, encode_basestring_ascii, None, ":", ",",
            True, False, True,
        )
    except (ImportError, TypeError):
        import json

        return json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return "".join(encode(obj, 0))


def _emit(obj, pretty: bool = False) -> None:
    if pretty:
        import json

        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(_compact_json(obj))


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
        # listed by mask, since each kind(v) call shifts an n-bit mask
        "kinds": {v: kind for kind in (SINK, REGULAR, INFINITE_EMITTER)
                  for v in g.set_of(g.kind_mask(kind))},
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
        message = f"invalid int value: {text!r}"
    else:
        if value >= 1:
            return value
        message = f"must be at least 1, got {value}"
    import argparse

    raise argparse.ArgumentTypeError(message)


_FILE = ("file", {})
_PRETTY = ("--pretty", {"action": "store_true"})

# The command-line grammar, written once.  Subcommand <name> runs
# cmd_<name>, looked up when a command line is read, and has a help line,
# its arguments in order as add_argument's (name or flag, keywords), and
# the flags of its one mutually exclusive group.
_COMMANDS = {
    "validate": ("parse a graph file and echo its contents", (_FILE, _PRETTY), ()),
    "classify": ("compute all vertex classifications", (_FILE, _PRETTY), ()),
    "closure": ("hereditary saturated closure of a seed set", (
        _FILE,
        ("--seed", {"default": "", "help": "comma-separated vertex ids"}),
        _PRETTY,
    ), ()),
    "hedgehog": ("build the hedgehog graph of (H, S)", (
        _FILE,
        ("--H", {"default": "", "help": "comma-separated hereditary set"}),
        ("--S", {"default": "", "help": "comma-separated breaking vertices"}),
        ("--depth", {"type": int, "default": 6, "help": "path truncation depth"}),
        ("--dot", {"action": "store_true", "help": "emit DOT instead of JSON"}),
        _PRETTY,
    ), ()),
    "report": ("largest-ideal generating sets and classes", (
        _FILE,
        ("--json", {"action": "store_true", "help": "compact JSON (default)"}),
        ("--pretty", {"action": "store_true", "help": "indented JSON"}),
    ), ("--json", "--pretty")),
    "eval": ("evaluate an algebra expression", (
        _FILE,
        ("--expr", {"required": True}),
        ("--graded", {"action": "store_true", "help": "split output by degree"}),
        ("--json", {"action": "store_true"}),
        _PRETTY,
    ), ()),
    "dot": ("export the graph in DOT format", (_FILE,), ()),
    "selftest": ("run the randomized property suites", (
        ("--cases", {"type": _positive_int, "default": 300}),
        ("--max-vertices", {"type": _positive_int, "default": 8}),
        ("--seed", {"type": int, "default": 7}),
        ("--exhaustive-n4", {
            "action": "store_true",
            "help": "also sweep every 4-vertex multiplicity-2 graph (slow)",
        }),
    ), ()),
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _read_plain(argv):
    """The arguments argparse would read from a plain command line, else None.

    Plain: the subcommand first, exactly its positionals, and options
    spelled in full, each value a token that does not start with "-" and
    that the option's type accepts.  Anything else (help, abbreviations,
    ``--opt=value``, ``--``, a usage error) is left to argparse, which
    alone prints help and errors.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, exclusive = _COMMANDS[argv[0]]
    options = {flag: kw for flag, kw in arguments if flag[0] == "-"}
    names = [name for name, _ in arguments if name[0] != "-"]
    values = {
        _dest(flag): kw.get("default", False if "action" in kw else None)
        for flag, kw in options.items()
    }
    given, positionals = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in options:
            return None
        kw = options[token]
        given.add(token)
        if "action" in kw:  # store_true
            values[_dest(token)] = True
            continue
        value = next(tokens, "-")  # a missing value is declined too
        if value.startswith("-"):
            return None
        try:
            values[_dest(token)] = kw.get("type", str)(value)
        except Exception:  # argparse reads the value again and reports it
            return None
    required = {flag for flag, kw in options.items() if kw.get("required")}
    if (len(positionals) != len(names) or not required <= given
            or len(given.intersection(exclusive)) > 1):
        return None
    values.update(zip(names, positionals))
    return _Namespace(command=argv[0], func=globals()["cmd_" + argv[0]], **values)


def build_parser() -> "argparse.ArgumentParser":
    """argparse's reading of ``_COMMANDS``: it prints help and usage errors,
    and reads every command line that ``_read_plain`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Path-algebra analysis of directed graphs with ω-bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments, exclusive) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.set_defaults(func=globals()["cmd_" + command])
        group = p.add_mutually_exclusive_group() if exclusive else None
        for name, kw in arguments:
            (group if name in exclusive else p).add_argument(name, **kw)
    return parser


def run(argv=None) -> int:
    args = _read_plain(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        print(reproducer(exc.graph), end="", file=sys.stderr)
        return 3
    except LpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit cannot fail a second time
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
