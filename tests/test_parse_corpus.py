"""The text language, pinned by a golden corpus of parse outcomes.

Each entry of ``golden/parse_outcomes.json`` is a text and what
``parse_graph`` made of it: the canonical text of the accepted graph, or
the error's type, reason, line and column.  The texts are seeded mutations
of ``random_graphs`` texts (see ``corpus``).  To record the file again from
the parser on the path::

    python tests/test_parse_corpus.py --record
"""

import json
import pathlib
import random
import sys

from leavittpath import GraphSyntaxError, GraphValidationError, parse_graph, to_text
from leavittpath.random_graphs import random_graphs

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "parse_outcomes.json"

KEYWORDS = ("vertices", "edge", "bundle", "omega")
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", " ")
SPACES = (" ", "\t", "  ", " \t ", "\x1f", "\xa0", "　")
MULTIPLICITIES = (
    "x0", "x00", "x007", "x1", "x2", "x" + "1" * 20, "x" + "9" * 5000,
    "x1" + "0" * 4299, "x" + "1" * 4301, "omega", "Omega", "x", "x-1", "x+2",
    "x²", "x٣", "y3", "X2",
)
BAD_IDS = ("1b", "é", "a-b", "v1.2", "_", "ω")
HEADS = ("Vertices", "frob", "edges", "vertex", "#x", "x2")
COMMENTS = (" # café", "# ω-bundle", "#", " # edge e a b", "\t#　é é")


def _split(line):
    return line.split(" ")


def _edge_rows(lines):
    return [i for i, line in enumerate(lines) if line.startswith("edge")
            or line.startswith("bundle")]


def mutate_spacing(rng, lines):
    i = rng.randrange(len(lines))
    lines[i] = rng.choice(("", "\t", "  ")) + rng.choice(SPACES).join(
        _split(lines[i])
    )


def mutate_comment(rng, lines):
    i = rng.randrange(len(lines) + 1)
    if i == len(lines) or rng.random() < 0.3:
        lines.insert(i, rng.choice(COMMENTS).strip())
    else:
        toks = _split(lines[i])
        k = rng.randrange(len(toks) + 1)
        toks.insert(k, rng.choice(COMMENTS))
        lines[i] = " ".join(toks)


def mutate_multiplicity(rng, lines):
    rows = _edge_rows(lines)
    if rows:
        i = rng.choice(rows)
        toks = _split(lines[i])[:4]
        lines[i] = " ".join(toks + [rng.choice(MULTIPLICITIES)])


def mutate_id(rng, lines):
    i = rng.randrange(len(lines))
    toks = _split(lines[i])
    if len(toks) > 1:
        k = rng.randrange(1, min(len(toks), 4))
        toks[k] = rng.choice(KEYWORDS + BAD_IDS + ("zz",))
        lines[i] = " ".join(toks)


def mutate_repeat(rng, lines):
    """An id that repeats across vertices and bundles, or within either."""
    vertices = _split(lines[0])[1:] if lines[0].startswith("vertices") else []
    rows = _edge_rows(lines)
    choice = rng.randrange(4)
    if choice == 0 and rows:
        i = rng.choice(rows)
        toks = _split(lines[i])
        toks[1:2] = [rng.choice(vertices or ["v1"])]
        lines[i] = " ".join(toks)
    elif choice == 1 and rows:
        lines.insert(rng.randrange(len(lines) + 1), lines[rng.choice(rows)])
    elif choice == 2 and rows:
        eid = _split(lines[rng.choice(rows)])[-1]
        lines.insert(rng.randrange(len(lines) + 1), f"vertices {eid}")
    elif vertices:
        lines.insert(rng.randrange(len(lines) + 1),
                     f"vertices {rng.choice(vertices)}")


def mutate_order(rng, lines):
    """Declare some or all vertices after the edges that use them."""
    if not lines[0].startswith("vertices"):
        return
    toks = _split(lines.pop(0))
    cut = rng.randrange(1, len(toks) + 1)
    if cut > 1:
        lines.insert(0, " ".join(toks[:cut]))
    if cut < len(toks):
        lines.append(" ".join(["vertices"] + toks[cut:]))


def mutate_length(rng, lines):
    rows = _edge_rows(lines)
    if rows:
        i = rng.choice(rows)
        toks = _split(lines[i])
        if rng.random() < 0.5:
            toks = toks[:rng.randrange(1, 4)]
        else:
            toks = toks[:4] + ["x2", "z", "omega"][:rng.randrange(2, 4)]
        lines[i] = " ".join(toks)


def mutate_head(rng, lines):
    i = rng.randrange(len(lines))
    toks = _split(lines[i])
    toks[0] = rng.choice(HEADS + ("edge", "bundle", "vertices"))
    lines[i] = " ".join(toks)


def mutate_blank(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", " ", "\t", "#")))


MUTATIONS = (
    mutate_spacing, mutate_comment, mutate_multiplicity, mutate_id,
    mutate_repeat, mutate_order, mutate_length, mutate_head, mutate_blank,
)


def corpus(count=1200, seed=16):
    """``count`` texts: seeded random graphs, most of them mutated."""
    rng = random.Random(seed)
    texts = ["", "\n", "# only a comment\n", "vertices\n"]
    for g in random_graphs(count - len(texts), seed, max_vertices=5):
        lines = to_text(g).splitlines()
        for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3))):
            if lines:
                rng.choice(MUTATIONS)(rng, lines)
        breaks = (rng.choice(LINE_BREAKS) for _ in lines)
        texts.append("".join(line + sep for line, sep in zip(lines, breaks)))
    return texts


def outcome(text):
    """The canonical text of the parsed graph, or the error raised."""
    try:
        return {"graph": to_text(parse_graph(text))}
    except GraphSyntaxError as exc:
        return {"error": ["GraphSyntaxError", exc.reason, exc.line, exc.column]}
    except GraphValidationError as exc:
        return {"error": ["GraphValidationError", str(exc), None, None]}


def test_parse_outcomes_match_the_golden_corpus():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) == 1200
    assert any("graph" in e for e in entries) and any("error" in e for e in entries)
    for entry in entries:
        text = entry.pop("text")
        assert outcome(text) == entry, repr(text[:200])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    records = [{"text": t, **outcome(t)} for t in corpus()]
    GOLDEN.write_text(json.dumps(records, indent=0, ensure_ascii=True) + "\n",
                      encoding="utf-8")
