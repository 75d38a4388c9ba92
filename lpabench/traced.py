"""The traced run: per-layer metrics and the tracing overhead.

Each phase makes one fixed pass untraced, then the same pass traced, so the
counts repeat exactly from run to run and the difference between the two
passes is the tracing overhead.  The CLI's layers are traced by replaying
every command of the mix in this process; its start-up comes from a child
run with ``-X importtime`` and from a bare ``python -c pass``.
"""

from __future__ import annotations

import gc
import subprocess

from . import phases
from .tracing import Layers, Tracer

# name, unit, phase (the base), kind, span or counter names
PER_LAYER = (
    ("graph.parse_s", "s/report", "report", "total", ("graph.parse_graph",)),
    ("graph.index_calls", "calls/report", "report", "count", ("graph.Graph.index",)),
    ("graph.check_vertices_calls", "calls/report", "report", "count",
     ("graph.Graph.check_vertices",)),
    ("graph.condense_calls", "calls/report", "report", "calls", ("graph.condense",)),
    ("graph.condense_s", "s/report", "report", "total", ("graph.condense",)),
    ("graph.reach_masks_s", "s/report", "report", "total", ("graph.Graph.reach_masks",)),
    ("graph.digest_s", "s/invocation", "cli", "total", ("graph.graph_digest",)),
    ("kernel.reach_masks_calls", "calls/report", "report", "calls", ("kernel.reach_masks",)),
    ("kernel.reach_masks_s", "s/report", "report", "total", ("kernel.reach_masks",)),
    ("kernel.scc_labels_calls", "calls/report", "report", "calls", ("kernel.scc_labels",)),
    ("kernel.scc_labels_s", "s/report", "report", "total", ("kernel.scc_labels",)),
    ("kernel.saturation_calls", "calls/report", "report", "calls",
     ("kernel.saturation_fixpoint",)),
    ("kernel.saturation_s", "s/report", "report", "total", ("kernel.saturation_fixpoint",)),
    ("kernel.saturation_rounds", "rounds/report", "report", "count",
     ("kernel.saturation_rounds",)),
    ("classify.csp_class_calls", "calls/report", "report", "calls", ("classify.csp_class",)),
    ("classify.csp_s", "s/report", "report", "total", ("classify.csp_class",)),
    ("classify.properly_infinite_self_s", "s/report", "report", "self",
     ("classify.properly_infinite",)),
    ("classify.classify_self_s", "s/report", "report", "self", ("classify.classify",)),
    ("closures.hs_closure_calls", "calls/report", "report", "calls", ("closures.hs_closure",)),
    ("closures.hs_closure_self_s", "s/report", "report", "self", ("closures.hs_closure",)),
    ("closures.breaking_s", "s/report", "report", "total",
     ("closures.breaking_vertices", "closures.breaking_capable")),
    ("closures.density_s", "s/report", "report", "total", ("closures.density_check",)),
    ("ideals.pi_decomposition_s", "s/report", "report", "total", ("ideals.pi_decomposition",)),
    ("ideals.report_self_s", "s/report", "report", "self", ("ideals.largest_ideals_report",)),
    ("cli.payload_self_s", "s/report", "report", "self", ("cli.report_payload",)),
    ("cli.json_s", "s/report", "report", "total", ("cli.json",)),
    ("terms.mul_calls", "calls/op", "terms", "calls", ("terms.AlgebraElement.__mul__",)),
    ("terms.mul_s", "s/op", "terms", "total", ("terms.AlgebraElement.__mul__",)),
    ("terms.add_s", "s/op", "terms", "total", ("terms.AlgebraElement.__add__",)),
    ("hedgehog.build_s", "s/invocation", "hedgehog", "total", ("hedgehog.build_hedgehog",)),
    ("oracles.s", "s/graph", "selftest", "top", ("oracles",)),
)


def import_ms(root) -> float:
    """Cumulative import time of the package's top-level imports, from
    ``python -S -X importtime -c 'import leavittpath.cli'``."""
    proc = subprocess.run(
        phases.child_python("-X", "importtime", "-c",
                            phases.SITE_PRELUDE + "import leavittpath.cli"),
        cwd=root, env=phases.child_env(root), capture_output=True, text=True,
        check=True, timeout=phases.CHILD_TIMEOUT_S,
    )
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        name = parts[2].rstrip()
        if name.strip().startswith("leavittpath") and parts[1].strip().isdigit():
            rows.append((len(name) - len(name.lstrip()), int(parts[1])))
    if not rows:
        raise RuntimeError("no leavittpath rows in the -X importtime output")
    top = min(depth for depth, _ in rows)
    return sum(us for depth, us in rows if depth == top) / 1000


def traced_run(make_phases, seed, root, inp, schemas, interp_ms, kernel):
    """Per-layer metrics as (value, unit, note), the phase results, notes.

    ``make_phases(inp, schemas, seed, root, tag)`` builds fresh phases;
    ``kernel`` is the kernel implementation's name.
    """
    tracer = Tracer()
    res = {}
    plain = make_phases(inp, schemas, seed, root)
    traced = make_phases(inp, schemas, seed, root, tracer.tag)
    for untraced_phase, traced_phase in zip(plain[:3], traced[:3]):
        gc.collect()
        res[untraced_phase.name] = phases.run_pass(untraced_phase)
        gc.collect()
        tracer.install(extra=[(phases, "compact_json", "cli.json")])
        try:
            res[traced_phase.name + "_traced"] = phases.run_pass(traced_phase)
        finally:
            tracer.uninstall()
    res["cli"] = phases.run_pass(plain[3])

    tracer.install(extra=[(phases, "compact_json", "cli.json")])
    try:
        for j, argv in enumerate(inp.cli):
            tracer.tag("hedgehog" if argv[0] == "hedgehog" else "cli", j)
            phases.in_process_cli(argv)
    finally:
        tracer.uninstall()
    absent = tracer.absent

    layers = {p: Layers(tracer.spans, p)
              for p in ("report", "selftest", "terms", "cli", "hedgehog")}
    # graph_digest runs in every command, hedgehog ones included.
    layers["cli"].total["graph.graph_digest"] += layers["hedgehog"].total["graph.graph_digest"]
    n_hedgehog = sum(argv[0] == "hedgehog" for argv in inp.cli)
    base = {
        "report": len(res["report_traced"].seconds),
        "selftest": len(res["selftest_traced"].seconds),
        "terms": len(res["terms_traced"].seconds),
        "cli": len(inp.cli),
        "hedgehog": n_hedgehog,
    }
    metrics = {}
    for name, unit, phase, kind, keys in PER_LAYER:
        lay = layers[phase]
        if kind == "count":
            counts = tracer.counts.get(phase, {})
            value = sum(counts.get(k, 0) for k in keys)
        else:
            table = {"total": lay.total, "self": lay.self_s, "calls": lay.calls,
                     "top": lay.top_level}[kind]
            value = sum(table[k] for k in keys)
        metrics[name] = (value / max(base[phase], 1), unit,
                         f"per {phase} operation, base {base[phase]}")
    st = layers["selftest"]
    fast = st.total["selftest.check_graph"] - st.top_level["oracles"]
    metrics["selftest.fast_s"] = (fast / max(base["selftest"], 1), "s/graph",
                                  f"check_graph minus oracles, base {base['selftest']}")
    products = layers["terms"].calls["terms.AlgebraElement.__mul__"]
    metrics["terms.terms_per_product"] = (
        tracer.counts.get("terms", {}).get("terms.product_terms", 0) / max(products, 1),
        "terms/product", f"base {products} products")
    metrics["kernel.implementation"] = (int(kernel == "compiled"), "compiled",
                                        f"1 = compiled kernel, 0 = {kernel}")
    metrics["cli.import_ms"] = (import_ms(root), "ms", "-X importtime, cumulative")
    metrics["cli.interpreter_ms"] = (interp_ms, "ms", "median of 5 bare starts")

    plain = sum(sum(res[p].seconds) for p in ("report", "selftest", "terms"))
    traced = sum(sum(res[p + "_traced"].seconds) for p in ("report", "selftest", "terms"))
    rep_plain, rep_traced = res["report"].seconds, res["report_traced"].seconds
    metrics["trace.overhead_ms"] = (
        1000 * (sum(rep_traced) - sum(rep_plain)) / max(len(rep_traced), 1),
        "ms/report", "traced minus untraced report pass")
    metrics["trace.overhead_frac"] = (
        traced / plain - 1, "1", "report, selftest and terms passes")
    metrics["trace.spans_per_report"] = (
        sum(layers["report"].calls.values()) / max(base["report"], 1),
        "spans/report", f"base {base['report']}")
    metrics["trace.absent_targets"] = (len(absent), "count", ", ".join(absent) or "none")
    notes = [f"absent wrap target: {key}" for key in absent]
    return dict(sorted(metrics.items())), res, notes
