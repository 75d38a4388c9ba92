"""Benchmark of the leavittpath report pipeline, CLI and term engine.

Usage, from the root of a checkout:

    python3 lpabench/run.py --workload pool --seed 1 --seconds 24 --trace 0

Workloads: pool, sparse, clustered, desk (see lpabench/README.md).  With
``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The lines before it name each metric with its unit and sample
count, the output-check verdict and the run's metadata.

A timed run starts ``WORKERS`` worker processes of this script, one after
another, each with its own ``PYTHONHASHSEED`` and an equal part of
``--seconds``; the run's metrics are taken over all their timings.

``--record-digests FIRST-LAST`` instead recomputes the expected payload
digests of every workload (or only of ``--workload``) for those seeds and
writes ``lpabench/expected_digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from lpabench import checks, inputs as inputs_mod, phases  # noqa: E402
from lpabench.stats import (  # noqa: E402
    median_by_key, percentile, rung_medians, scaling_exponent,
)

WORKLOADS = ("pool", "sparse", "clustered", "desk")
# Each phase's share of every interleaving slice, and so of --seconds.
SHARES = {
    "pool": {"report": 0.45, "selftest": 0.15, "terms": 0.1, "cli": 0.3},
    "sparse": {"report": 0.61, "selftest": 0.05, "terms": 0.04, "cli": 0.28},
    "clustered": {"report": 0.61, "selftest": 0.05, "terms": 0.04, "cli": 0.28},
    "desk": {"report": 0.05, "selftest": 0.05, "terms": 0.2, "cli": 0.7},
}
# The program's cost depends on set and dict iteration order, and so on the
# hash seed, by up to a third on the same inputs.  Each worker runs with its
# own PYTHONHASHSEED, so every operation is timed under several of them.
WORKERS = 3
WORKER_TIMEOUT_S = 150
# The host's speed drifts: for minutes at a time the same code can run up to
# 1.7 times slower.  Every time is therefore scaled to a reference speed:
# multiplied by REF_MS over the median of the phases.probe() times taken
# around it.  REF_MS is that median on the 2-vCPU host the baseline in
# README.md was taken on, in a calm spell.  The wall values are printed
# beside the metrics.  A run keeps to one processor, so that the fresh
# processes it times run on the processor where the probes are taken.
REF_MS = 0.35
WORKDIR = ".lpabench_work"


def check_checkout(root: Path) -> None:
    """Exit 2 unless the checkout holds the program and its data."""
    needed = [root / "src" / "leavittpath" / "cli.py", root / "fixtures",
              root / "docs" / "schemas"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"lpabench: not a leavittpath checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


def import_program() -> float:
    """Import the package and every module the phases use; seconds taken."""
    t0 = time.perf_counter()
    import leavittpath  # noqa: F401
    import leavittpath.cli  # noqa: F401
    import leavittpath.selftest  # noqa: F401
    return time.perf_counter() - t0


def set_up(workload, seed, root, workdir, tiny):
    """Generate inputs, load schemas, warm every phase up once."""
    inp = inputs_mod.build_inputs(workload, seed, root, workdir, tiny=tiny)
    schemas = checks.SchemaChecker(root)
    for phase in make_phases(inp, schemas, seed, root):
        phase.step(0)
    return inp, schemas


def make_phases(inp, schemas, seed, root, tag=phases.no_tag) -> list:
    """Fresh report, selftest, terms and CLI phases over ``inp``."""
    return [
        phases.ReportPhase(inp, schemas, tag),
        phases.SelftestPhase(inp, tag),
        phases.TermsPhase(inp, seed, tag),
        phases.CliPhase(inp, schemas, root),
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child, in MB (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def kernel_implementation() -> str:
    """``_kernel.IMPLEMENTATION``, or "absent" once the selector is gone."""
    try:
        from leavittpath import _kernel
    except ImportError:
        return "absent"
    return getattr(_kernel, "IMPLEMENTATION", "absent")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not its own git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) != 2 or Path(out[0]).resolve() != root.resolve():
        return "unknown"
    return out[1]


def metadata(root: Path, seed: int, interp_ms: float, nproc: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_sha": git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "kernel": kernel_implementation(),
        "nproc": nproc,
        "cpu": min(os.sched_getaffinity(0)),
        "seed": seed,
        "interpreter_ms": round(interp_ms, 3),
    }


def end_to_end(res: dict, setup: dict) -> dict:
    """Every end-to-end metric as (value, unit, note), at the reference speed.

    Each distinct operation repeats once per pass; a metric is taken over
    the distinct operations, each at its median repeat.  ``setup`` holds
    the workers' set-up times and the probes around them.  A phase with no
    successful operation yields 0 for its metrics; the run is then not
    correct anyway.
    """
    ref = REF_MS / 1000
    at_ref = {
        name: [t * ref / h for t, h in zip(r.seconds, r.host)] for name, r in res.items()
    }
    metrics = metrics_from(res, at_ref, statistics.median(
        t * ref / h for t, h in zip(setup["seconds"], setup["host"])))
    wall = metrics_from(res, {name: r.seconds for name, r in res.items()},
                        statistics.median(setup["seconds"]))
    hosts = [h for r in res.values() for h in r.host]
    out = {}
    for name, (value, unit, note) in metrics.items():
        if unit in ("s", "ms", "1/s"):
            note = f"{note}; wall {wall[name][0]:.6g} {unit}"
        out[name] = (value, unit, note)
    out["setup_s"] = (out["setup_s"][0], "s", out["setup_s"][2] + (
        f"; host probe median {1000 * statistics.median(hosts):.4f} ms "
        f"against {REF_MS} ms"))
    return out


def metrics_from(res: dict, seconds: dict, setup_s: float) -> dict:
    """The end-to-end metrics from each phase's ``seconds`` per operation."""
    rep, st, tm, cl = (res[name] for name in ("report", "selftest", "terms", "cli"))
    reports, checks_, ops, commands = (
        median_by_key(res[name].keys, seconds[name])
        for name in ("report", "selftest", "terms", "cli"))

    def repeats(r, best):
        return f"median of {len(r.seconds) / max(len(best), 1):.1f} runs each"

    def rate(work, times):
        return work / sum(times) if times else 0.0

    def pct(q, times, unit=1000):
        return unit * percentile(list(times), q) if times else 0.0

    size = dict(zip(rep.keys, rep.sizes))
    rungs = rung_medians([(size[k], t) for k, t in reports.items()])
    top_n = rungs[-1][0] if rungs else 0
    top = [t for k, t in reports.items() if size[k] == top_n]
    exponent = scaling_exponent(rungs) if len(rungs) > 1 else 0.0
    of_reports = f"{len(reports)} graphs, {repeats(rep, reports)}"
    products = sum(tm.work[k] for k in ops)
    return {
        "setup_s": (setup_s, "s", f"median over {WORKERS} workers of import plus set-up"),
        "reports_per_s": (rate(len(reports), reports.values()), "1/s", of_reports),
        "report_ms_p50": (pct(50, reports.values()), "ms", of_reports),
        "report_ms_p90": (pct(90, reports.values()), "ms", of_reports),
        "report_s": (pct(50, top, 1), "s", f"{len(top)} graphs at n={top_n}, "
                     f"{repeats(rep, reports)}"),
        "scaling_exponent": (
            exponent, "1",
            "rungs " + ", ".join(f"n={n}: {t * 1000:.3f} ms" for n, t in rungs),
        ),
        "selftest_graphs_per_s": (
            rate(len(checks_), checks_.values()), "1/s",
            f"{len(checks_)} graphs, {repeats(st, checks_)}"),
        "cli_ms_p50": (pct(50, commands.values()), "ms",
                       f"{len(commands)} commands, {repeats(cl, commands)}"),
        "cli_ms_p90": (pct(90, commands.values()), "ms",
                       f"{len(commands)} commands, {repeats(cl, commands)}"),
        "term_products_per_s": (
            rate(products, ops.values()), "1/s",
            f"{products} products in {len(ops)} operations, {repeats(tm, ops)}"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max of self and children"),
    }


def timed_run(workload, seed, seconds, root, inp, schemas) -> dict:
    runs = make_phases(inp, schemas, seed, root)
    gc.collect()
    phases.run_interleaved([(p, SHARES[workload][p.name]) for p in runs], seconds)
    return {p.name: p.result for p in runs}


def worker(args, root: Path) -> None:
    """One worker's share of a timed run; prints its set-up time and results."""
    with scratch_dir(root) as workdir:
        before = phases.probe()
        t0 = time.perf_counter()
        import_program()
        inp, schemas = set_up(args.workload, args.seed, root, workdir, args.tiny)
        setup_s = time.perf_counter() - t0
        host = statistics.median(before + phases.probe())
        res = timed_run(args.workload, args.seed, args.seconds, root, inp, schemas)
    print(json.dumps({
        "setup": {"seconds": setup_s, "host": host},
        "results": {name: dataclasses.asdict(r) for name, r in res.items()},
    }))


def run_worker(args, k: int, root: Path) -> dict:
    """Run worker ``k`` to completion in its own process group; its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(k),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / WORKERS)] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONHASHSEED=str((args.seed * WORKERS + k) % 2**32))
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"lpabench: worker {k} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def timed_workers(args, root: Path) -> tuple:
    """Results of all workers merged per phase, and their set-up times with
    the probes around them."""
    res, setup = {}, {"seconds": [], "host": []}
    for k in range(WORKERS):
        part = run_worker(args, k, root)
        for key in setup:
            setup[key].append(part["setup"][key])
        for name, result in part["results"].items():
            res.setdefault(name, phases.PhaseResult(name)).merge(result)
    return res, setup


def digest_verdict(workload, seed, res, tiny) -> tuple:
    """(ok, message) for the combined payload digest of this run."""
    rep, cl = res["report"], res["cli"]
    combined = checks.combined_digest(
        [rep.digests[k] for k in sorted(rep.digests)]
        + [cl.digests[k] for k in sorted(cl.digests)]
    )
    if tiny:
        return True, f"digest {combined[:16]} (tiny inputs, nothing recorded)"
    expected = checks.load_expected().get(workload, {}).get(str(seed))
    if expected is None:
        return True, f"digest {combined[:16]} (not recorded for seed {seed})"
    if expected != combined:
        return False, f"digest {combined[:16]} != recorded {expected[:16]}"
    return True, f"digest {combined[:16]} matches the recorded one"


def print_result(metrics: dict, res: dict, extra_ok: bool, notes: list) -> None:
    attempted = sum(r.attempted for r in res.values())
    failed = sum(r.failed for r in res.values())
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    print(f"ops_failed_frac = {failed / attempted:.6g}  "
          f"({failed} failed of {attempted} attempted)")
    for r in res.values():
        for err in r.errors:
            print(f"FAILED {err}")
    for note in notes:
        print(note)
    correct = failed == 0 and extra_ok
    print(f"output check: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A private directory for graph files, removed with its parent if empty."""
    path = root / WORKDIR / str(os.getpid())
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORKDIR).rmdir()


def record_digests(first: int, last: int, root: Path, workloads=WORKLOADS) -> None:
    """Recompute the expected digests in-process and write them out."""
    import_program()
    from leavittpath import cli, graph

    out = checks.load_expected()
    with scratch_dir(root) as workdir:
        for workload in workloads:
            table = out.setdefault(workload, {})
            for seed in range(first, last + 1):
                inp = inputs_mod.build_inputs(workload, seed, root, workdir)
                parts = [
                    checks.sha256(phases.compact_json(
                        cli.report_payload(graph.parse_graph(text))))
                    for _, text in inp.reports
                ]
                for argv in inp.cli:
                    code, stdout = phases.in_process_cli(argv)
                    if code != 0:
                        raise SystemExit(f"{workload} seed {seed}: {argv} exited {code}")
                    parts.append(checks.sha256(stdout.encode("utf-8")))
                table[str(seed)] = checks.combined_digest(parts)
                print(f"{workload} seed {seed}: {table[str(seed)][:16]}", flush=True)
    checks.DIGESTS_FILE.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke tests")
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = ROOT
    check_checkout(root)
    if args.record_digests:
        m = re.fullmatch(r"(\d+)-(\d+)", args.record_digests)
        if not m:
            parser.error("--record-digests takes FIRST-LAST, e.g. 0-63")
        record_digests(int(m.group(1)), int(m.group(2)), root,
                       (args.workload,) if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.worker is not None:
        worker(args, root)
        return 0

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    interp_ms = phases.interpreter_ms(root)
    print(json.dumps({"meta": metadata(root, args.seed, interp_ms, len(cpus))}))
    if args.trace:
        from lpabench.traced import traced_run

        with scratch_dir(root) as workdir:
            import_program()
            inp, schemas = set_up(args.workload, args.seed, root, workdir, args.tiny)
            metrics, res, notes = traced_run(
                make_phases, args.seed, root, inp, schemas, interp_ms,
                kernel_implementation())
    else:
        res, setup = timed_workers(args, root)
        metrics, notes = end_to_end(res, setup), []
    ok, note = digest_verdict(args.workload, args.seed, res, args.tiny)
    print_result(metrics, res, ok, notes + [note])
    return 0


if __name__ == "__main__":
    sys.exit(main())
