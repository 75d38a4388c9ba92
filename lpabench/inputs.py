"""Seeded inputs for every workload.

Each workload is a family of graphs, grouped into size rungs, plus the
argument lists of the fresh-process CLI calls made over its smallest graphs.
The same seed always yields the same texts and the same commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

POOL_MAX_VERTICES = 10
CLUSTER_BLOCK = 20
HEDGEHOG_DEPTH = "4"


@dataclass(frozen=True)
class Sizes:
    """How much input a workload gets; ``TINY`` is for smoke tests."""

    pool_graphs: int = 1200
    pool_checks: int = 600
    sparse_rungs: tuple = (25, 50, 100)
    clustered_rungs: tuple = (20, 40, 80)
    graphs_per_rung: int = 48
    cli_files: int = 4
    term_graphs: int = 48
    fixtures: tuple = ()


FULL = Sizes()
TINY = Sizes(pool_graphs=30, pool_checks=10, sparse_rungs=(10, 20),
             clustered_rungs=(20, 40), graphs_per_rung=1, cli_files=1,
             term_graphs=3, fixtures=("omega-h", "six"))


@dataclass
class Inputs:
    """What one run of a workload operates on.

    ``reports`` is a list of (vertex count, graph text) in the order the
    report phase cycles through them; a ladder lists its rungs round-robin.
    ``checks`` and ``terms`` are graph texts for the selftest and term
    phases, ``cli`` holds argument lists for ``lpa``, and ``golden`` maps a
    CLI path to the golden ``lpa report`` output for it.
    """

    reports: list
    checks: list
    terms: list
    cli: list
    golden: dict


def sparse_graph_text(n: int, rng: random.Random) -> str:
    """n vertices, 2.5·n bundles with uniform endpoints, 2% ω, mult {1,1,1,2}."""
    lines = ["vertices " + " ".join(f"v{i}" for i in range(n))]
    for k in range(int(2.5 * n)):
        src, dst = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.02:
            lines.append(f"bundle e{k} v{src} v{dst} omega")
        else:
            mult = rng.choice((1, 1, 1, 2))
            suffix = f" x{mult}" if mult > 1 else ""
            lines.append(f"edge e{k} v{src} v{dst}{suffix}")
    return "\n".join(lines) + "\n"


def clustered_graph_text(n: int, rng: random.Random) -> str:
    """Blocks of 20 vertices, each a directed cycle; 30% of vertices add a
    ×2 bundle into their own block; consecutive blocks linked with p = ½."""
    if n % CLUSTER_BLOCK:
        raise ValueError(f"clustered size {n} is not a multiple of {CLUSTER_BLOCK}")
    lines = ["vertices " + " ".join(f"v{i}" for i in range(n))]
    k = 0

    def edge(src: int, dst: int, mult: int = 1) -> None:
        nonlocal k
        suffix = f" x{mult}" if mult > 1 else ""
        lines.append(f"edge e{k} v{src} v{dst}{suffix}")
        k += 1

    blocks = n // CLUSTER_BLOCK
    for b in range(blocks):
        base = b * CLUSTER_BLOCK
        for i in range(CLUSTER_BLOCK):
            edge(base + i, base + (i + 1) % CLUSTER_BLOCK)
            if rng.random() < 0.3:
                edge(base + i, base + rng.randrange(CLUSTER_BLOCK), 2)
        if b + 1 < blocks and rng.random() < 0.5:
            edge(base + rng.randrange(CLUSTER_BLOCK),
                 base + CLUSTER_BLOCK + rng.randrange(CLUSTER_BLOCK))
    return "\n".join(lines) + "\n"


def pool_texts(seed: int, count: int) -> list:
    """(vertex count, text) for the small random-graph pool."""
    from leavittpath.graph import to_text
    from leavittpath.random_graphs import random_graphs

    return [
        (len(g.vertices), to_text(g))
        for g in random_graphs(count, seed, max_vertices=POOL_MAX_VERTICES)
    ]


def ladder_texts(rungs, make, seed: int, per_rung: int) -> list:
    """``per_rung`` graphs of each size, listed round-robin across rungs."""
    rng = random.Random(seed)
    graphs = [[make(n, rng) for _ in range(per_rung)] for n in rungs]
    return [
        (n, graphs[r][j]) for j in range(per_rung) for r, n in enumerate(rungs)
    ]


def fixture_texts(root: Path, names=()) -> dict:
    """name -> text of the ``fixtures/*.lpa`` files (all when ``names`` is empty)."""
    return {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted((root / "fixtures").glob("*.lpa"))
        if not names or p.stem in names
    }


def cli_commands(files: dict, seed: int) -> list:
    """The seeded CLI mix: every subcommand over every file, shuffled.

    ``files`` maps a path (as passed on the command line) to its graph text.
    Arguments that name vertices or edges are drawn from the graph itself so
    that every command is valid input.
    """
    from leavittpath.closures import breaking_vertices, hs_closure
    from leavittpath.graph import parse_graph

    rng = random.Random(seed)
    commands = []
    for path, text in files.items():
        g = parse_graph(text)
        vertices = list(g.vertices)
        finite = [b for b in g.bundles if not b.is_omega]
        commands.append(["validate", path])
        commands.append(["classify", path])
        commands.append(["closure", path, "--seed", rng.choice(vertices)])
        commands.append(["report", path])
        if finite:
            b = rng.choice(finite)
            inst = b.instances[rng.randrange(len(b.instances))]
            expr = f"{inst}* {inst} + 2 {inst} {inst}*"
        else:
            v = rng.choice(vertices)
            expr = f"{v} {v} - {v}"
        commands.append(["eval", path, "--expr", expr, "--json"])
        H = hs_closure(g, (rng.choice(vertices),))
        S = breaking_vertices(g, H).members
        commands.append(
            ["hedgehog", path, "--H", ",".join(H.members), "--S", ",".join(S),
             "--depth", HEDGEHOG_DEPTH]
        )
    rng.shuffle(commands)
    return commands


def build_inputs(workload: str, seed: int, root: Path, workdir: Path,
                 tiny: bool = False) -> Inputs:
    """Generate the inputs of one workload; graph files go under ``workdir``."""
    sizes = TINY if tiny else FULL
    from leavittpath.graph import parse_graph

    golden = {}
    if workload == "desk":
        fixtures = fixture_texts(root, sizes.fixtures)
        texts = [(len(parse_graph(t).vertices), t) for t in fixtures.values()]
        files = {
            str(root / "fixtures" / f"{name}.lpa"): text
            for name, text in fixtures.items()
        }
        for name in fixtures:
            golden_path = root / "tests" / "golden" / f"report_{name}.json"
            if golden_path.exists():
                golden[str(root / "fixtures" / f"{name}.lpa")] = golden_path.read_text(
                    encoding="utf-8"
                )
        return Inputs(
            reports=texts, checks=[t for _, t in texts],
            terms=[t for _, t in texts], cli=cli_commands(files, seed),
            golden=golden,
        )
    if workload == "pool":
        reports = pool_texts(seed, sizes.pool_graphs)
        small = [t for _, t in reports]
        checks, terms = small[:sizes.pool_checks], small[:sizes.term_graphs]
    elif workload in ("sparse", "clustered"):
        if workload == "sparse":
            rungs, make = sizes.sparse_rungs, sparse_graph_text
        else:
            rungs, make = sizes.clustered_rungs, clustered_graph_text
        reports = ladder_texts(rungs, make, seed, sizes.graphs_per_rung)
        small = [t for n, t in reports if n == rungs[0]]
        checks, terms = small, small[:sizes.term_graphs]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for i, text in enumerate(small[:sizes.cli_files]):
        path = workdir / f"g{i}.lpa"
        path.write_text(text, encoding="utf-8")
        files[str(path)] = text
    return Inputs(
        reports=reports, checks=checks, terms=terms,
        cli=cli_commands(files, seed), golden=golden,
    )

