"""The benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest lpabench/tests``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from lpabench import inputs, phases, run, tracing  # noqa: E402
from lpabench.stats import (  # noqa: E402
    median_by_key, percentile, rung_medians, scaling_exponent,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "lpabench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    a = inputs.build_inputs(workload, 5, ROOT, tmp_path / "a", tiny=True)
    b = inputs.build_inputs(workload, 5, ROOT, tmp_path / "b", tiny=True)
    assert a.reports == b.reports
    assert a.checks == b.checks and a.terms == b.terms
    strip = lambda cmds: [[Path(x).name if x.endswith(".lpa") else x for x in c]
                          for c in cmds]
    assert strip(a.cli) == strip(b.cli)
    c = inputs.build_inputs(workload, 6, ROOT, tmp_path / "c", tiny=True)
    if workload == "desk":
        assert c.reports == a.reports  # fixed fixtures; only the mix moves
    else:
        assert c.reports != a.reports


def test_term_plan_is_fixed_per_seed_and_repeats_each_pass():
    texts = [(ROOT / "fixtures" / f"{name}.lpa").read_text(encoding="utf-8")
             for name in ("omega-h", "six")]
    a = phases.TermBattery(texts, 4)
    b = phases.TermBattery(texts, 4)
    assert a.plan == b.plan and len(a.plan) == phases.TERM_PASS
    assert phases.TermBattery(texts, 5).plan != a.plan
    k = 3
    assert a.step(k) == a.step(k + phases.TERM_PASS)


def test_sparse_graph_shape():
    import random

    from leavittpath import parse_graph

    g = parse_graph(inputs.sparse_graph_text(80, random.Random(1)))
    assert len(g.vertices) == 80 and len(g.bundles) == 200


def test_clustered_graph_shape():
    import random

    from leavittpath import classify, parse_graph

    g = parse_graph(inputs.clustered_graph_text(60, random.Random(2)))
    assert len(g.vertices) == 60
    # every block is a directed cycle, so every vertex lies in P_ppi
    assert set(classify(g).p_ppi) == set(g.vertices)
    with pytest.raises(ValueError):
        inputs.clustered_graph_text(30, random.Random(2))


# -- statistics -------------------------------------------------------------


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 2.7])
def test_exponent_fit_on_power_laws(k):
    points = [(n, 3e-4 * n ** k) for n in (25, 50, 100, 200)]
    assert math.isclose(scaling_exponent(points), k, rel_tol=1e-9)


def test_exponent_fit_through_noise_and_medians():
    samples = []
    for n in (10, 20, 40):
        for wobble in (0.9, 1.0, 1.1):
            samples.append((n, wobble * n ** 2))
    assert math.isclose(scaling_exponent(rung_medians(samples)), 2.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        scaling_exponent([(10, 1.0), (10, 2.0)])


def test_median_by_key_takes_each_keys_median_repeat():
    keys = [0, 1, 0, 2, 1, 0]
    seconds = [3.0, 2.0, 1.0, 5.0, 4.0, 2.0]
    assert median_by_key(keys, seconds) == {0: 2.0, 1: 3.0, 2: 5.0}
    assert median_by_key([], []) == {}


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REF_MS / 1000

    def at_half_speed(name, **extra):
        return phases.PhaseResult(name, attempted=2, seconds=[0.01, 0.03],
                                  host=[2 * ref, 2 * ref], keys=[0, 0], **extra)

    res = {"report": at_half_speed("report", sizes=[5, 5]),
           "selftest": at_half_speed("selftest"),
           "terms": at_half_speed("terms", work={0: 4}),
           "cli": at_half_speed("cli")}
    out = run.end_to_end(res, {"seconds": [0.2, 0.4, 0.3], "host": [ref] * 3})
    assert out["report_s"][0] == pytest.approx(0.01)
    assert out["cli_ms_p50"][0] == pytest.approx(10.0)
    assert out["term_products_per_s"][0] == pytest.approx(400.0)
    assert out["setup_s"][0] == pytest.approx(0.3)
    assert "wall 0.02 s" in out["report_s"][2]


def test_merge_adds_up_workers_and_flags_differing_outputs():
    import dataclasses

    a = phases.PhaseResult("report", attempted=2, seconds=[1.0, 2.0], keys=[0, 1],
                           sizes=[3, 4], digests={0: "x", 1: "y"})
    b = phases.PhaseResult("report", attempted=2, seconds=[0.5, 2.5], keys=[0, 1],
                           sizes=[3, 4], digests={0: "x", 1: "z"})
    merged = phases.PhaseResult("report")
    for part in (a, b):
        merged.merge(json.loads(json.dumps(dataclasses.asdict(part))))
    assert merged.attempted == 4 and merged.failed == 1
    assert median_by_key(merged.keys, merged.seconds) == {0: 0.75, 1: 2.25}
    assert merged.digests == {0: "x", 1: "y"}


def test_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50.5
    assert 99 <= percentile(xs, 99) <= 100
    assert percentile([4.0], 99) == 4.0


# -- metric names -----------------------------------------------------------


def test_declared_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


# -- tracer -----------------------------------------------------------------


def test_tracer_rebinds_every_namespace_and_restores():
    import importlib

    import leavittpath

    # the package's classify() function shadows the submodule's name
    classify = importlib.import_module("leavittpath.classify")
    closures = importlib.import_module("leavittpath.closures")
    original = closures.hs_closure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert classify.hs_closure is closures.hs_closure is leavittpath.hs_closure
        assert closures.hs_closure is not original
        tracer.tag("report", 0)
        g = leavittpath.parse_graph(
            (ROOT / "fixtures" / "six.lpa").read_text(encoding="utf-8"))
        leavittpath.classify(g)
    finally:
        tracer.uninstall()
    assert closures.hs_closure is original and classify.hs_closure is original
    assert tracer.absent == []
    layers = tracing.Layers(tracer.spans, "report")
    assert layers.calls["closures.hs_closure"] >= 1
    assert tracer.counts["report"]["graph.Graph.index"] > 0
    for name in layers.calls:
        assert layers.self_s[name] <= layers.total[name] + 1e-12


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "REQUIRED",
                        tracing.REQUIRED + ("closures.no_such_function",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["closures.no_such_function"]


# -- smoke runs -------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "output check: PASS" in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "lpabench", tmp_path / "lpabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pool", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
