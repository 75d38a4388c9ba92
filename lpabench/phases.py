"""The four phases every workload runs: reports, selftest, terms and CLI.

All of them form one closed loop with a single client: the next operation
starts when the previous one has finished.  A timed run interleaves the
phases in short slices and gives each at least one full pass over its
distinct operations; the traced run makes exactly one pass of each.  Only
the call into the program is timed; output checks run between operations.

The program is reached through module attributes looked up at call time
(``graph.parse_graph``, ``cli.report_payload``, ...) so that the traced run
can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import site
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .checks import sha256

SCHEMA_SAMPLE_EVERY = 20
TERM_PASS = 4000
CHILD_TIMEOUT_S = 60
MAX_ERRORS_KEPT = 5
SLICE_S = 1.0


@dataclass
class PhaseResult:
    """Timings, failure counts and output digests of one phase.

    ``seconds[i]`` timed the distinct operation ``keys[i]``, with the host's
    speed at the time in ``host[i]``; an operation repeats once per pass.
    ``work`` maps a key to the products it makes (terms only).  ``merge``
    adds up the results of several workers.
    """

    name: str
    attempted: int = 0
    failed: int = 0
    seconds: list = field(default_factory=list)
    host: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{self.name}: {detail}")

    def record_digest(self, key, digest: str) -> bool:
        """Keep the first digest per key; False when a repeat differs."""
        first = self.digests.setdefault(key, digest)
        return first == digest

    def merge(self, other: dict) -> None:
        """Add a worker's result, given as ``dataclasses.asdict`` JSON."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.seconds += other["seconds"]
        self.host += other["host"]
        self.keys += other["keys"]
        self.sizes += other["sizes"]
        self.work.update((int(k), v) for k, v in other["work"].items())
        self.errors = (self.errors + other["errors"])[:MAX_ERRORS_KEPT]
        for key, digest in other["digests"].items():
            if not self.record_digest(int(key), digest):
                self.fail(f"operation {key}: output differs between workers")


def compact_json(payload) -> bytes:
    """The CLI's compact, key-sorted JSON encoding."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _envelope(payload, g) -> dict:
    from leavittpath import cli, graph

    return {
        "schema_version": cli.SCHEMA_VERSION,
        "graph_digest": graph.graph_digest(g),
        "payload": payload,
    }


def no_tag(phase: str, i: int) -> None:
    pass


class Phase:
    """One kind of operation; ``step(i)`` runs the i-th and records it.

    ``pass_size`` operations make one full pass over the distinct inputs.
    """

    name = ""
    pass_size = 1

    def __init__(self, tag=no_tag):
        self.tag = tag
        self.result = PhaseResult(self.name)

    def step(self, i: int) -> None:
        raise NotImplementedError


class ReportPhase(Phase):
    """text → parse_graph → cli.report_payload → compact JSON bytes."""

    name = "report"

    def __init__(self, inputs, schemas, tag=no_tag):
        super().__init__(tag)
        self.items = inputs.reports
        self.schemas = schemas
        self.pass_size = len(self.items)

    def step(self, i: int) -> None:
        from leavittpath import cli, graph

        res = self.result
        j = i % len(self.items)
        n, text = self.items[j]
        self.tag("report", i)
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            g = graph.parse_graph(text)
            payload = cli.report_payload(g)
            data = compact_json(payload)
        except Exception as exc:  # every failure is counted, RecursionError too
            res.fail(f"graph {j} (n={n}): {type(exc).__name__}: {exc}")
            return
        res.seconds.append(time.perf_counter() - t0)
        res.keys.append(j)
        res.sizes.append(n)
        self.tag("report-check", i)
        first = j not in res.digests
        if not res.record_digest(j, sha256(data)):
            res.fail(f"graph {j}: payload bytes differ between repeats")
        if first and (j % SCHEMA_SAMPLE_EVERY == 0
                      or len(self.items) <= SCHEMA_SAMPLE_EVERY):
            for err in self.schemas.errors("report", _envelope(payload, g)):
                res.fail(f"graph {j}: schema: {err}")


class SelftestPhase(Phase):
    """selftest.check_graph: invariants, maximality, oracles up to 6 vertices."""

    name = "selftest"

    def __init__(self, inputs, tag=no_tag):
        super().__init__(tag)
        self.items = inputs.checks
        self.pass_size = len(self.items)

    def step(self, i: int) -> None:
        from leavittpath import graph, selftest

        res = self.result
        j = i % len(self.items)
        self.tag("selftest-parse", i)
        g = graph.parse_graph(self.items[j])
        self.tag("selftest", i)
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            selftest.check_graph(g)
        except Exception as exc:
            res.fail(f"graph {j}: {type(exc).__name__}: {exc}")
            return
        res.seconds.append(time.perf_counter() - t0)
        res.keys.append(j)


class TermBattery:
    """Associativity triples over each graph's generators, plus (v^H)² = v^H.

    Generators are the vertices, the addressable edges and their ghosts.  A
    random element is a short sum of scaled products of generators, as in the
    acceptance gate's associativity sampling.  The seed fixes a plan of
    ``TERM_PASS`` operations, drawn before any is timed, and every pass
    repeats it: operation ``i`` is entry ``i % TERM_PASS``.
    """

    def __init__(self, texts, seed: int):
        from leavittpath import closures, graph, terms

        self.pools = []
        self.idempotents = []
        for text in texts:
            g = graph.parse_graph(text)
            E = terms.AlgebraElement
            gens = [E.vertex(g, v) for v in g.vertices]
            for b in g.bundles:
                if not b.is_omega:
                    for inst in b.instances:
                        gens += [E.edge(g, inst), E.ghost_edge(g, inst)]
            self.pools.append((g, gens))
            if any(b.is_omega for b in g.bundles):
                hs_sets = {closures.hs_closure(g, (v,)).members for v in g.vertices}
                hs_sets.add(())
                for H in sorted(hs_sets):
                    for v in closures.breaking_vertices(g, H).members:
                        self.idempotents.append((g, v, H))
        rng = random.Random(seed)
        self.plan = [self._draw(rng, k) for k in range(TERM_PASS)]

    def _draw(self, rng, k: int):
        """Entry k of the plan: ("idempotent", index) or ("assoc", pool,
        three elements), an element being [(generator indices, scalar)]."""
        if self.idempotents and k % 10 == 9:
            return ("idempotent", (k // 10) % len(self.idempotents))
        pool = rng.randrange(len(self.pools))
        n = len(self.pools[pool][1])
        elements = [
            [(tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))),
              rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            for _ in range(3)
        ]
        return ("assoc", pool, elements)

    @staticmethod
    def _element(g, gens, spec):
        from leavittpath import terms

        acc = terms.AlgebraElement.zero(g)
        products = 0
        for indices, scalar in spec:
            term = gens[indices[0]]
            for j in indices[1:]:
                term = term * gens[j]
                products += 1
            acc = acc + term.scale(scalar)
        return acc, products

    def step(self, i: int):
        """One operation; returns (ok, products made)."""
        from leavittpath import terms

        entry = self.plan[i % TERM_PASS]
        if entry[0] == "idempotent":
            g, v, H = self.idempotents[entry[1]]
            vh = terms.v_H_element(g, v, H)
            return vh * vh == vh, 1
        _, pool, (sa, sb, sc) = entry
        g, gens = self.pools[pool]
        a, pa = self._element(g, gens, sa)
        b, pb = self._element(g, gens, sb)
        c, pc = self._element(g, gens, sc)
        return (a * b) * c == a * (b * c), pa + pb + pc + 4


class TermsPhase(Phase):
    """The term battery; ``result.work`` holds each operation's products."""

    name = "terms"
    pass_size = TERM_PASS

    def __init__(self, inputs, seed, tag=no_tag):
        super().__init__(tag)
        self.battery = TermBattery(inputs.terms, seed)

    def step(self, i: int) -> None:
        res = self.result
        self.tag("terms", i)
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            ok, products = self.battery.step(i)
        except Exception as exc:
            res.fail(f"operation {i}: {type(exc).__name__}: {exc}")
            return
        res.seconds.append(time.perf_counter() - t0)
        res.keys.append(i % TERM_PASS)
        res.work[i % TERM_PASS] = products
        if not ok:
            res.fail(f"operation {i}: associativity or idempotence failed")


REF_NAMES = tuple(f"v{i}" for i in range(60))
PROBE_REPEATS = 3


def reference_work() -> int:
    """A fixed computation in the program's idiom that calls none of it:
    closures over a string-named graph as frozensets, Fraction arithmetic,
    and compact sorted JSON."""
    names = REF_NAMES
    succ = {n: (names[(i * 7 + 1) % 60], names[(i * 13 + 5) % 60], names[(i + 1) % 60])
            for i, n in enumerate(names)}
    closures = {}
    for n in names[:10]:
        seen = {n}
        stack = [n]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closures[n] = frozenset(seen)
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 1) * Fraction(2, 3)
    text = json.dumps({n: sorted(c) for n, c in closures.items()},
                      sort_keys=True, separators=(",", ":"))
    return len(text) + acc.numerator % 7


def probe() -> list:
    """The host's current speed: a few ``reference_work`` times."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return times


def run_pass(phase: Phase) -> PhaseResult:
    """Exactly one full pass of a phase."""
    for i in range(phase.pass_size):
        phase.step(i)
    return phase.result


def run_interleaved(shares, seconds: float) -> None:
    """Run (phase, share) pairs in turn, each for its share of a slice.

    Interleaving spreads every phase over the whole run, so a slow spell
    of a shared machine weighs on all of them alike.  A ``probe`` before and
    after each slice gives the host's speed for the operations timed in it
    (``PhaseResult.host``).  Runs until ``seconds`` have passed and every
    phase has made one full pass.
    """
    done = [0] * len(shares)
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        if over and all(n >= p.pass_size for n, (p, _) in zip(done, shares)):
            return
        for k, (phase, share) in enumerate(shares):
            if over and done[k] >= phase.pass_size:
                continue
            res = phase.result
            before, first = probe(), len(res.seconds)
            end = time.perf_counter() + share * SLICE_S
            while True:
                phase.step(done[k])
                done[k] += 1
                if time.perf_counter() >= end:
                    break
            host = statistics.median(before + probe())
            res.host += [host] * (len(res.seconds) - first)


def child_env(root: Path) -> dict:
    """The environment of a fresh ``lpa`` process: ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    parts = [str(root / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# A fresh process starts as ``python -S``: skipping ``site`` skips the
# ``.pth`` start-up hooks of the Python installation, which are not the
# program's and can take longer than the program's own start.  The prelude
# appends the site-packages directories after the standard library, where
# ``site`` would have put them, so imports resolve as they would with it.
SITE_PRELUDE = f"import sys; sys.path += {site.getsitepackages()!r}; "
CLI_PROGRAM = SITE_PRELUDE + "from leavittpath.cli import main; main()"


def child_python(*args: str) -> list:
    """The command line of a fresh interpreter running ``args``."""
    return [sys.executable, "-S", *args]


def run_child(argv, root: Path, env: dict):
    """Run one fresh ``lpa`` process to completion; returns (seconds, process)."""
    cmd = child_python("-c", CLI_PROGRAM, *argv)
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def in_process_cli(argv) -> tuple:
    """(exit code, stdout) of ``cli.run(argv)`` in this process."""
    from leavittpath import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


class CliPhase(Phase):
    """Fresh ``lpa`` processes, one at a time, over the seeded command mix.

    Each distinct command's stdout must equal what ``cli.run`` prints in
    this process, conform to its schema and, for a fixture ``report``,
    equal the golden file.
    """

    name = "cli"

    def __init__(self, inputs, schemas, root):
        super().__init__()
        self.commands = inputs.cli
        self.golden = inputs.golden
        self.schemas = schemas
        self.root = root
        self.env = child_env(root)
        self.pass_size = len(self.commands)

    def step(self, i: int) -> None:
        res = self.result
        j = i % len(self.commands)
        argv = self.commands[j]
        res.attempted += 1
        try:
            dt, proc = run_child(argv, self.root, self.env)
        except subprocess.TimeoutExpired:
            res.fail(f"command {j} {argv[:2]}: timed out")
            return
        if proc.returncode != 0:
            res.fail(f"command {j} {argv[:2]}: exit {proc.returncode}: "
                     f"{proc.stderr.strip()[-200:]}")
            return
        res.seconds.append(dt)
        res.keys.append(j)
        first = j not in res.digests
        if not res.record_digest(j, sha256(proc.stdout.encode("utf-8"))):
            res.fail(f"command {j} {argv[:2]}: stdout differs between repeats")
        if first:
            for problem in check_cli_output(argv, proc.stdout, self.schemas, self.golden):
                res.fail(f"command {j} {argv[:2]}: {problem}")


def check_cli_output(argv, stdout: str, schemas, golden: dict) -> list:
    """Problems with one fresh process's stdout; [] when it is right."""
    problems = []
    code, expected = in_process_cli(argv)
    if code != 0 or stdout != expected:
        problems.append("stdout differs from the in-process cli.run output")
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    problems += [f"schema: {e}" for e in schemas.errors(argv[0], doc)]
    if argv[0] == "report" and argv[1] in golden and stdout != golden[argv[1]]:
        problems.append("report differs from its golden file")
    return problems


def interpreter_ms(root: Path, runs: int = 5) -> float:
    """Median wall time of a bare ``python -S -c pass``."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(child_python("-c", "pass"), cwd=root, check=True,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1000 * times[len(times) // 2]
