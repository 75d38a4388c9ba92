import importlib.util
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import jsonschema
import pytest

from leavittpath import InvariantViolation, breaking_vertices, build_hedgehog
from leavittpath import _kernel, cli, hs_closure
from leavittpath.graph import Graph, parse_graph, reproducer, to_dot, to_text
from leavittpath.random_graphs import enumerate_graphs, random_graphs

from conftest import FIXTURE_NAMES, ROOT, fixture_graph, fixture_path

SCHEMAS = pathlib.Path(ROOT) / "docs" / "schemas"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(name, out):
    doc = json.loads(out)
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(doc, schema)
    return doc


def test_validate(capsys):
    code, out, _ = run_cli(capsys, "validate", fixture_path("omega-h"))
    assert code == 0
    doc = check_schema("validate", out)
    assert doc["payload"]["kinds"]["u"] == "InfiniteEmitter"
    assert {"id": "m", "source": "u", "target": "h", "mult": "omega"} in doc[
        "payload"
    ]["bundles"]


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture_path("six"))
    assert code == 0
    doc = check_schema("classify", out)
    assert doc["payload"]["p_ec"] == ["v3", "w1"]
    assert doc["payload"]["condition_k"] is False


def test_closure(capsys):
    code, out, _ = run_cli(
        capsys, "closure", fixture_path("chain3sink"), "--seed", "v1"
    )
    assert code == 0
    doc = check_schema("closure", out)
    assert doc["payload"]["members"] == ["v1", "v2", "v3", "v4"]
    assert doc["payload"]["is_hereditary"] is True


def test_closure_empty_seed(capsys):
    code, out, _ = run_cli(capsys, "closure", fixture_path("six"))
    assert code == 0
    assert check_schema("closure", out)["payload"]["members"] == []


def test_hedgehog_json(capsys):
    code, out, _ = run_cli(
        capsys, "hedgehog", fixture_path("line3"), "--H", "v3"
    )
    assert code == 0
    doc = check_schema("hedgehog", out)
    assert doc["payload"]["finite"] is True
    assert doc["payload"]["path_vertex_table"]["p:e1.e2"] == ["e1", "e2"]


def test_hedgehog_truncation_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "hedgehog",
        fixture_path("chain3sink"),
        "--H", "v2,v3",
        "--depth", "2",
    )
    assert code == 0
    doc = check_schema("hedgehog", out)
    assert doc["payload"]["finite"] is False
    assert doc["payload"]["truncated_at"] == 2


def test_hedgehog_names_an_unknown_s_id(capsys):
    code, out, err = run_cli(
        capsys, "hedgehog", fixture_path("omega-h"), "--H", "h,x", "--S", "nope"
    )
    assert code == 2
    assert out == ""
    assert "unknown vertex id 'nope'" in err


def test_hedgehog_dot(capsys):
    code, out, _ = run_cli(
        capsys, "hedgehog", fixture_path("line3"), "--H", "v3", "--dot"
    )
    assert code == 0
    assert out.startswith("digraph G {")
    assert '"p:e2"' in out


def test_report_schema_all_fixtures(capsys):
    for name in (
        "chain3", "chain3sink", "six", "fork",
        "twoloop-oneloop", "line2", "line3", "line4", "omega-h",
    ):
        code, out, _ = run_cli(capsys, "report", fixture_path(name))
        assert code == 0
        check_schema("report", out)


def test_report_six_values(capsys):
    code, out, _ = run_cli(capsys, "report", fixture_path("six"))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["p_ec"] == ["v3", "w1"]
    assert payload["purely_infinite_gens"] == ["v2", "v3", "v4", "w1"]
    labels = [c["label"] for c in payload["pi_decomposition"]]
    assert labels == [
        "PurelyInfiniteSimple",
        "PurelyInfiniteNonSimpleIndecomposable",
    ]


def test_report_saturation_passes_grow_nothing(capsys, monkeypatch):
    # P_pi is read off trees, so a report closes only sets that are already
    # hereditary and saturated: classify's certification of P_ppi and P_(K)
    fixpoint = _kernel.saturation_fixpoint
    rounds = []

    def record(mask, regular):
        result = fixpoint(mask, regular)
        rounds.append(result[1])
        return result

    monkeypatch.setattr(_kernel, "saturation_fixpoint", record)
    for name in FIXTURE_NAMES:
        rounds.clear()
        code, out, _ = run_cli(capsys, "report", fixture_path(name))
        golden = ROOT / "tests" / "golden" / f"report_{name}.json"
        assert (code, out) == (0, golden.read_text(encoding="utf-8")), name
        assert rounds == [0, 0], name


# Each eval golden holds its expression.  Between them they meet a CK2
# rewrite (b1 b1* on chain3), a ghost-side junction leftover ((e1 e2)* e1 on
# line3), p/q coefficients landing on integers ((3/2 a1)(2/3 a1*), 1/3 v2 +
# 2/3 v2) and products that are 0 (v1 v2).
EVAL_GOLDENS = sorted((ROOT / "tests" / "golden").glob("eval_*.json"))


@pytest.mark.parametrize("golden", EVAL_GOLDENS, ids=lambda p: p.stem)
def test_eval_matches_golden(capsys, golden):
    expected = golden.read_text(encoding="utf-8")
    path = fixture_path(golden.stem.removeprefix("eval_"))
    expr = json.loads(expected)["payload"]["expr"]
    out = run_cli(capsys, "eval", path, "--expr", expr, "--json")
    assert out == (0, expected, "")
    check_schema("eval", expected)
    graded = golden.with_name(f"{golden.stem}_graded.txt")
    if graded.exists():
        out = run_cli(capsys, "eval", path, "--expr", expr, "--graded")
        assert out == (0, graded.read_text(encoding="utf-8"), "")


def test_every_fixture_has_an_eval_golden():
    assert [p.stem for p in EVAL_GOLDENS] == [f"eval_{n}" for n in FIXTURE_NAMES]


# H is the closure of the fixture's last vertex and S its breaking vertices.
# chain3, chain3sink, fork and twoloop-oneloop come out truncated, omega-h
# and six have one F-path each, and the lines have none.
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_hedgehog_matches_golden(capsys, name):
    g = fixture_graph(name)
    H = hs_closure(g, g.vertices[-1:]).members
    S = breaking_vertices(g, H).members
    golden = ROOT / "tests" / "golden" / f"hedgehog_{name}.json"
    expected = golden.read_text(encoding="utf-8")
    out = run_cli(
        capsys, "hedgehog", fixture_path(name),
        "--H", ",".join(H), "--S", ",".join(S), "--depth", "3",
    )
    assert out == (0, expected, "")
    check_schema("hedgehog", expected)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_classify_and_closure_match_goldens(capsys, name):
    # closure is seeded with the fixture's last vertex
    seed = fixture_graph(name).vertices[-1]
    for command, argv in (("classify", ()), ("closure", ("--seed", seed))):
        golden = ROOT / "tests" / "golden" / f"{command}_{name}.json"
        expected = golden.read_text(encoding="utf-8")
        out = run_cli(capsys, command, fixture_path(name), *argv)
        assert out == (0, expected, ""), command
        check_schema(command, expected)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_and_dot_match_goldens(capsys, name):
    for command, suffix in (("validate", "json"), ("dot", "dot")):
        golden = ROOT / "tests" / "golden" / f"{command}_{name}.{suffix}"
        expected = golden.read_text(encoding="utf-8")
        out = run_cli(capsys, command, fixture_path(name))
        assert out == (0, expected, ""), command
        if command == "validate":
            check_schema(command, expected)


def test_report_pretty_is_same_document(capsys):
    code, compact, _ = run_cli(capsys, "report", fixture_path("fork"))
    code2, pretty, _ = run_cli(
        capsys, "report", fixture_path("fork"), "--pretty"
    )
    assert code == code2 == 0
    assert json.loads(compact) == json.loads(pretty)
    assert compact != pretty


def test_eval_text(capsys):
    # trailing blanks end the expression like its end
    for expr in ("e1* e1", "e1* e1 "):
        code, out, _ = run_cli(
            capsys, "eval", fixture_path("line2"), "--expr", expr
        )
        assert code == 0
        assert out == "1 · v2\n"


def test_eval_deep_nesting_exits_2(capsys):
    expr = "(" * 3000 + "v1" + ")" * 3000
    code, out, err = run_cli(capsys, "eval", fixture_path("line2"), "--expr", expr)
    assert code == 2
    assert out == ""
    assert err == "error: column 101: parentheses nested deeper than 100\n"


def test_eval_moderate_nesting(capsys):
    expr = "(" * 50 + "e1* e1" + ")" * 50
    code, out, _ = run_cli(capsys, "eval", fixture_path("line2"), "--expr", expr)
    assert code == 0
    assert out == "1 · v2\n"


def test_eval_graded_text(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        fixture_path("chain3"),
        "--expr", "b1 + v2 + b2*",
        "--graded",
    )
    assert code == 0
    assert "degree -1:" in out
    assert "degree 0:" in out
    assert "degree 1:" in out


def test_eval_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        fixture_path("line2"),
        "--expr", "2 e1 - e1",
        "--json",
    )
    assert code == 0
    doc = check_schema("eval", out)
    assert doc["payload"]["terms"] == [
        {"coeff": "1", "real": ["e1"], "ghost": [], "anchor": "v2"}
    ]


def test_eval_json_graded(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        fixture_path("chain3"),
        "--expr", "b1 + v2",
        "--json", "--graded",
    )
    assert code == 0
    doc = check_schema("eval", out)
    assert sorted(doc["payload"]["graded"]) == ["0", "1"]


def test_eval_bad_expression(capsys):
    code, out, err = run_cli(
        capsys, "eval", fixture_path("line2"), "--expr", "2 + 2"
    )
    assert code == 2
    assert "scalar" in err


def test_dot(capsys):
    code, out, _ = run_cli(capsys, "dot", fixture_path("omega-h"))
    assert code == 0
    assert '"u" -> "h" [label="×ω"];' in out


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "report", "no/such/file.lpa")
    assert code == 2
    assert "error:" in err


def test_bad_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.lpa"
    bad.write_text("vertices v\nedge e v\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "line 2" in err


def test_non_utf8_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.lpa"
    bad.write_bytes(b"vertices a\xff b\n")
    code, out, err = run_cli(capsys, "report", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: line 1, column 11: invalid UTF-8 byte 0xff\n"


def test_unreadable_path_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ")


def test_closed_stdout_exits_0_quietly(tmp_path):
    # the report is far larger than a pipe's buffer, so the process is still
    # writing when the reader closes its end after ten bytes
    big = tmp_path / "big.lpa"
    big.write_text("vertices " + " ".join(f"v{i}" for i in range(12000)) + "\n")
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "leavittpath", "report", str(big)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == b'{"graph_di'
    assert err == b""


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.run(["classify"])  # missing file argument
    assert ei.value.code == 2


def test_invariant_violation_exits_3_with_reproducer(capsys, monkeypatch):
    def boom(g):
        raise InvariantViolation("forced failure", parse_graph("vertices v\n"))

    monkeypatch.setattr(cli, "classify", boom)
    code, _, err = run_cli(capsys, "classify", fixture_path("line2"))
    assert code == 3
    assert err == (
        "invariant violation: forced failure\n--- reproducer graph ---\n"
        "vertices v\n--- end reproducer ---\n"
    )


CLASSIFY = importlib.import_module("leavittpath.classify")
IDEALS = importlib.import_module("leavittpath.ideals")


def _with_p_pec(mask):
    """The classifier masks with P_pec replaced by ``mask``."""
    return lambda g: CLASSIFY._classify_masks(g)._replace(p_pec=mask)


# Each InvariantViolation of classify's last three checks, closure_mask and
# pi_decomposition, forced by breaking one collaborator: (canonical graph
# text, command, owner and name of the collaborator, its replacement, the
# detail).  test_classify's BROKEN_CERTIFICATIONS force classify's first
# two checks, and the hedgehog test below the density check.
FORCED_VIOLATIONS = {
    # a's loop has no exit, so a is in P_c; a reaching() that finds nothing
    # puts it in P_l as well
    "p_l_meets_p_c": (
        "vertices a\nedge l a a\n", ["classify"], Graph, "reaching",
        lambda self, mask: 0, "P_l, P_c and P_ec are not pairwise disjoint",
    ),
    # a's loop read as no cycle at all leaves P_c empty, though Condition
    # (L) still fails on it
    "condition_l": (
        "vertices a\nedge l a a\n", ["classify"], CLASSIFY, "_scc_csp_classes",
        lambda g: ("Zero",), "Condition (L) disagrees with P_c",
    ),
    # a's loop has an exit, so Condition (K) fails; a reaching() that finds
    # nothing makes P_(K) every vertex
    "condition_k": (
        "vertices a b\nedge e a b\nedge l a a\n", ["classify"], Graph,
        "reaching", lambda self, mask: 0, "Condition (K) disagrees with P_(K)",
    ),
    # v and w emit only into s, and a fixpoint that never saturates leaves
    # them out
    "closure_unsaturated": (
        "vertices s v w\nedge e v s\nedge f w s\n", ["closure", "--seed", "s"],
        _kernel, "saturation_fixpoint", lambda mask, regular: (mask, 0),
        "closure of ['s'] is not hereditary+saturated: ('s',)",
    ),
    # a sink in P_pec lies on no terminal cycle
    "p_pec_uncovered": (
        "vertices a\n", ["report"], IDEALS, "_classify_masks", _with_p_pec(0b1),
        "P_pec is not covered by its terminal cycle classes",
    ),
    # b's doubled loop is a simple class of its own once in P_pec, but a's
    # P' class holds it in its tree
    "class_trees_overlap": (
        "vertices a b\nedge e a b\nedge k a a x2\nedge l b b x2\n", ["report"],
        IDEALS, "_classify_masks", _with_p_pec(0b10),
        "cycle-class trees overlap at 'b'",
    ),
}


@pytest.mark.parametrize("case", sorted(FORCED_VIOLATIONS))
def test_every_invariant_violation_reaches_the_cli(
    case, capsys, monkeypatch, tmp_path
):
    text, argv, owner, name, replacement, detail = FORCED_VIOLATIONS[case]
    path = tmp_path / "g.lpa"
    path.write_text(text)
    monkeypatch.setattr(owner, name, replacement)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == (
        f"invariant violation: {detail}\n"
        f"--- reproducer graph ---\n{text}--- end reproducer ---\n"
    )


def test_a_violation_on_a_hedgehog_prints_its_dot(capsys, monkeypatch):
    # the path vertices of chain3's hedgehog of {v3} have no text form
    base = build_hedgehog(fixture_graph("chain3"), ("v3",), (), 2).base
    assert base.vertices[0] == "p:b1.f2"
    monkeypatch.setattr(cli, "_read_graph", lambda path: base)
    monkeypatch.setattr(IDEALS, "density_witnesses", lambda g, X: [None])
    code, out, err = run_cli(capsys, "report", "chain3-hedgehog.lpa")
    assert (code, out) == (3, "")
    assert err == (
        "invariant violation: four-set union failed the density check\n"
        "--- reproducer graph ---\n"
        "# vertex id 'p:b1.f2' is not representable in the text format\n"
        f"{to_dot(base)}--- end reproducer ---\n"
    )


def test_selftest_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "selftest", "--cases", "25", "--max-vertices", "5",
        "--seed", "2",
    )
    assert code == 0
    assert "passed all property checks" in out


def test_selftest_exhaustive_n4_sweeps_enumerated_graphs(capsys, monkeypatch):
    from leavittpath import selftest

    calls = []

    def first_graphs(n, max_mult):
        calls.append((n, max_mult))
        return itertools.islice(enumerate_graphs(n, max_mult=max_mult), 40)

    monkeypatch.setattr(selftest, "enumerate_graphs", first_graphs)
    monkeypatch.setattr(selftest, "PROGRESS_EVERY", 15)
    code, out, err = run_cli(capsys, "selftest", "--cases", "1", "--exhaustive-n4")
    assert code == 0
    assert calls == [(4, 2)]
    # the verdicts go to stdout, the progress and rates to stderr
    assert out.splitlines() == [
        "selftest: 1 random graphs (max 8 vertices, seed 7) passed all "
        "property checks",
        "selftest: exhaustive 4-vertex sweep passed (40 graphs)",
    ]
    rate = r" \(\d+\.\d\d s, \d+ graphs/s\)"
    lines = err.splitlines()
    assert len(lines) == 4
    assert re.fullmatch(r"  \.\.\. 1 random graphs checked" + rate, lines[0])
    for line, swept in zip(lines[1:], (15, 30, 40)):
        assert re.fullmatch(rf"  \.\.\. {swept} graphs swept" + rate, line)


def _reproducer(context, g):
    return f"invariant violation: selftest {context}: planted\n{reproducer(g)}"


def test_selftest_failure_prints_the_reproducer_and_exits_3(
    capsys, monkeypatch
):
    from leavittpath import selftest

    seen = []

    def fail_on_case_4(g):
        seen.append(g)
        if len(seen) == 5:
            raise InvariantViolation("planted", g)

    monkeypatch.setattr(selftest, "check_graph", fail_on_case_4)
    code, out, err = run_cli(
        capsys, "selftest", "--cases", "9", "--max-vertices", "5",
        "--seed", "3",
    )
    assert (code, out) == (3, "")
    g = list(random_graphs(5, 3, max_vertices=5))[4]
    assert err == _reproducer("case 4, seed 3", g)


def test_selftest_sweep_failure_names_the_graph_and_exits_3(
    capsys, monkeypatch
):
    from leavittpath import selftest

    graphs = list(itertools.islice(enumerate_graphs(4, max_mult=2), 30))

    def fail_on_graph_17(g):
        if g is graphs[17]:
            raise InvariantViolation("planted", g)

    monkeypatch.setattr(selftest, "enumerate_graphs", lambda n, max_mult: graphs)
    monkeypatch.setattr(selftest, "check_graph", lambda g: None)
    monkeypatch.setattr(selftest, "check_oracles", fail_on_graph_17)
    code, out, err = run_cli(capsys, "selftest", "--cases", "1", "--exhaustive-n4")
    assert code == 3
    assert out == (
        "selftest: 1 random graphs (max 8 vertices, seed 7) passed all "
        "property checks\n"
    )
    checked, failure = err.split("\n", 1)
    assert checked.startswith("  ... 1 random graphs checked (")
    assert failure == _reproducer("exhaustive n=4 graph 17", graphs[17])


@pytest.mark.parametrize("option,value", [
    ("--max-vertices", "0"),
    ("--max-vertices", "-3"),
    ("--cases", "0"),
    ("--cases", "-1"),
])
def test_selftest_rejects_counts_below_one(capsys, option, value):
    with pytest.raises(SystemExit) as ei:
        cli.run(["selftest", option, value])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: must be at least 1, got {value}" in err
    assert "Traceback" not in err


def test_determinism_byte_identical(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "report", fixture_path("six"))
        outs.add(out)
    assert len(outs) == 1


def test_oversized_hedgehog_exits_2(tmp_path, capsys):
    path = tmp_path / "big.lpa"
    path.write_text("vertices a b\nedge e a b x1000000000000\nedge l b b x2\n")
    code, out, err = run_cli(capsys, "hedgehog", str(path), "--H", "b")
    assert code == 2
    assert out == ""
    assert "at least 1000000000000 F-paths" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices a b\nedge e a b x٣\n", "expected 'x<k>' or 'omega', got 'x٣'"),
        ("vertices a b\nedge e a b x" + "7" * 5000 + "\n",
         "line 2, column 12: multiplicity has too many digits"),
    ],
    ids=["arabic-indic-digit", "5000-digits"],
)
def test_graph_numerals_are_ascii_and_bounded(tmp_path, capsys, text, message):
    path = tmp_path / "g.lpa"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("٣ a", "column 1: unexpected character '٣'"),
        ("e[٣]", "column 2: unexpected character '['"),
        ("7" * 5000 + " a", "column 1: number has too many digits"),
        ("1/" + "7" * 5000 + " a", "column 1: number has too many digits"),
        ("e[" + "1" * 5000 + "]", "column 1: instance index of 'e' has too many"),
        ("1/0 a", "column 1: zero denominator"),
        ("a )", "column 3: unexpected token ')'"),
    ],
    ids=["arabic-indic-digit", "arabic-indic-index", "5000-digits",
         "5000-digit-denominator", "5000-digit-index", "zero-denominator",
         "unopened-parenthesis"],
)
def test_eval_numerals_are_ascii_and_bounded(tmp_path, capsys, expr, message):
    path = tmp_path / "g.lpa"
    path.write_text("vertices a b\nedge e a b x3\n")
    code, out, err = run_cli(capsys, "eval", str(path), "--expr", expr)
    assert (code, out) == (2, "")
    assert message in err


# -- usage bytes: help texts and usage errors ----------------------------------

# `lpa --help`, each `lpa <cmd> --help` and usage errors, as printed before
# the parser built only the subcommand that runs
USAGE_GOLDEN = json.loads(
    (pathlib.Path(ROOT) / "tests" / "golden" / "cli_usage.json").read_text(
        encoding="utf-8"
    )
)


def usage_bytes(capsys, argv):
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": captured.out,
        "stderr": captured.err,
    }


@pytest.mark.skipif(
    f"{sys.version_info[0]}.{sys.version_info[1]}" != USAGE_GOLDEN["python"],
    reason="argparse's help layout is pinned for the Python it was recorded with",
)
def test_help_and_usage_errors_are_byte_identical(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(USAGE_GOLDEN["columns"]))
    for case in USAGE_GOLDEN["cases"]:
        assert usage_bytes(capsys, case["argv"]) == case


@pytest.mark.parametrize("command", ["", *cli._COMMANDS])
def test_help_exits_0_and_prints_usage(capsys, command):
    # the golden above holds the bytes on one Python; this holds on every one
    argv = [command, "--help"] if command else ["--help"]
    case = usage_bytes(capsys, argv)
    assert case["exit"] == 0 and case["stderr"] == ""
    assert case["stdout"].split()[:len(argv) + 1] == ["usage:", "lpa", *argv[:-1]]


# -- plain command lines, read without argparse --------------------------------


def _benchmark_commands(seeds, files=None):
    """``lpabench.inputs.cli_commands`` over ``files`` (path to text; the
    fixtures by default), loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "lpabench_inputs", pathlib.Path(ROOT) / "lpabench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # @dataclass looks its module up there
    try:
        spec.loader.exec_module(inputs)
    finally:
        del sys.modules[spec.name]
    if files is None:
        files = {
            fixture_path(name): pathlib.Path(fixture_path(name)).read_text(encoding="utf-8")
            for name in FIXTURE_NAMES
        }
    return [argv for seed in seeds for argv in inputs.cli_commands(files, seed)]


# forms that argparse reads another way than token by token, or refuses
MALFORMED = (
    ["report", "x.lpa", "--pre"],
    ["closure", "x.lpa", "--seed=v1"],
    ["classify", "--", "x.lpa"],
    ["dot", "x.lpa", "-h"],
    ["validate", "-"],
    ["hedgehog", "x.lpa", "--depth", "-1"],
    ["hedgehog", "x.lpa", "--depth", "x"],
    ["selftest", "--cases", "0"],
    ["eval", "x.lpa", "--json"],
    ["classify", "x.lpa", "y.lpa"],
    ["report", "x.lpa", "--json", "--pretty"],
)
VALUES = ("", "v1", "v2,v3", "e1[2]* e1[2]", "0", "3", " 7", "1_0", "٣", "x",
          "-1", "-", "--", "-v1", "-a b")


def _random_command_line(rng, path):
    """A command line built from one subcommand's arguments: each option
    given 0-2 times, 0-2 files, shuffled; a third of them then take an
    abbreviation, an ``--opt=value``, a ``--``, a ``-h`` or a ``-`` file."""
    command = rng.choice(list(cli._COMMANDS))
    _, arguments, _ = cli._COMMANDS[command]
    units = []
    for name, kw in arguments:
        if name[0] != "-":
            units += [[path]] * rng.choice((0, 1, 1, 1, 2))
        elif kw.get("action"):
            units += [[name]] * rng.choice((0, 0, 1, 2))
        else:
            units += [[name, rng.choice(VALUES)] for _ in range(rng.choice((0, 1, 1, 2)))]
    rng.shuffle(units)
    argv = [command, *itertools.chain.from_iterable(units)]
    flags = {name for name, _ in arguments if name[0] == "-"}
    options = [i for i, token in enumerate(argv) if token in flags]
    mutation = rng.randrange(15)
    if mutation == 0 and options:
        i = rng.choice(options)
        argv[i] = argv[i][:rng.randrange(2, len(argv[i]))]
    elif mutation == 1 and options and options[-1] + 1 < len(argv):
        i = options[-1]
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif mutation in (2, 3):
        argv.insert(rng.randrange(1, len(argv) + 1), ("--", "-h")[mutation - 2])
    elif mutation == 4 and path in argv:
        argv[argv.index(path)] = "-"
    return argv


def _argparse_reading(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def test_plain_reader_agrees_with_argparse(capsys):
    parser = cli.build_parser()
    benchmark = _benchmark_commands(range(6))
    rng = random.Random(22)
    corpus = [_random_command_line(rng, "x.lpa") for _ in range(3000)]
    accepted = 0
    for argv in benchmark + list(MALFORMED) + corpus:
        ours = cli._read_plain(argv)
        if ours is not None:
            assert vars(ours) == _argparse_reading(parser, argv), argv
            accepted += 1
    assert all(cli._read_plain(argv) is not None for argv in benchmark)
    assert [argv for argv in MALFORMED if cli._read_plain(argv) is not None] == []
    assert accepted > len(benchmark) + len(corpus) // 4
    assert {"--S", ""} <= {token for argv in benchmark for token in argv}


def test_a_rebound_handler_runs(capsys, monkeypatch):
    # handlers are looked up when a command line is read, as lpabench's
    # tracer needs
    monkeypatch.setattr(cli, "cmd_dot", lambda args: 7)
    assert cli.run(["dot", fixture_path("six")]) == 7


def _random_expression(rng, names):
    def term():
        factors = [rng.choice(names) + rng.choice(("", "", "*"))
                   for _ in range(rng.randint(1, 3))]
        return rng.choice(("", "2 ", "-1/3 ", "(", "0 ")) + " ".join(factors)

    expr = term()
    for _ in range(rng.randrange(3)):
        expr += rng.choice((" + ", " - ", " ")) + term()
    return expr + ")" * expr.count("(")


def test_exit_codes_on_random_command_lines(tmp_path, capsys):
    # every command line ends in 0, 2 or 3, never in an uncaught exception
    rng = random.Random(5)

    def some(pool):
        return ",".join(rng.sample(pool, rng.randint(0, min(3, len(pool)))))

    codes = []
    for i, g in enumerate(random_graphs(160, 3, max_vertices=6)):
        path = str(tmp_path / f"g{i}.lpa")
        pathlib.Path(path).write_text(to_text(g), encoding="utf-8")
        ids = [*g.vertices, "nope"]
        names = [*ids, *(inst for b in g.bundles if not b.is_omega
                         for inst in b.instances), "e1[9]"]
        argvs = [
            ["closure", path, "--seed", some(ids)],
            ["hedgehog", path, "--H", some(ids), "--S", some(ids),
             "--depth", rng.choice(("0", "1", "3", "-1", "x")),
             *rng.choice(((), ("--dot",), ("--pretty",)))],
            ["eval", path, "--expr", _random_expression(rng, names),
             *rng.choice(((), ("--json",), ("--graded",), ("--json", "--graded")))],
            ["report", path, *rng.choice(((), ("--json",), ("--pretty",)))],
            ["classify", path],
            ["validate", path],
            ["dot", path],
        ]
        argvs += [[token.replace("x.lpa", path) for token in argv]
                  for argv in rng.sample(MALFORMED, 3) if "-h" not in argv]
        for argv in argvs:
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 2, 3), argv
            codes.append(code)
    assert {0, 2} <= set(codes)


# -- the compact JSON writer ----------------------------------------------------


def _emitted_objects(tmp_path, monkeypatch):
    """Every object the subcommands hand to ``_emit``: the benchmark's
    command mix (each subcommand but dot and selftest) over every fixture and
    over ``random_graphs(200, 23)``."""
    files = {}
    for i, g in enumerate(random_graphs(200, 23)):
        path = tmp_path / f"g{i}.lpa"
        files[str(path)] = text = to_text(g)
        path.write_text(text, encoding="utf-8")
    argvs = _benchmark_commands([0]) + _benchmark_commands([0], files)
    objects = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda obj, pretty=False: objects.append(obj))
        for argv in argvs:
            assert cli.run(argv) == 0, argv
    assert len(objects) == len(argvs)
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS) - {"dot", "selftest"}
    return objects


SYNTHETIC = {
    "ascii": "plain text",
    "non-ascii": "ω é 中 😀",
    "control": "\x00\x01\x08\t\n\x0c\r\x1f\x7f \\ \" /",
    "separators": "\u2028\u2029",
    "lone surrogate": "\ud800 and \udfff",
    "big ints": [10**100, -(2**70), 0, -1],
    "floats": [0.5, -1e300, float("inf"), float("-inf"), float("nan")],
    "empty": [[], {}, "", ()],
    "none": None,
    "bools": [True, False],
    "int keys": {3: "c", 1: "a", 2: "b"},
    "nested": [{"b": [None, {"z": 1, "a": 2}], "a": []}],
}


@pytest.fixture(params=["_json", "no _json", "make_encoder refuses"])
def encoder(request, monkeypatch):
    """The C encoder, or ``json.dumps`` in its stead: when ``_json`` cannot
    be imported, and when ``make_encoder`` rejects the arguments."""
    if request.param == "no _json":
        monkeypatch.setitem(sys.modules, "_json", None)
    elif request.param == "make_encoder refuses":
        import _json

        def refuse(*args):
            raise TypeError("make_encoder() takes other arguments")

        monkeypatch.setattr(_json, "make_encoder", refuse)
    return request.param


def test_compact_json_is_json_dumps(capsys, tmp_path, monkeypatch, encoder):
    objects = _emitted_objects(tmp_path, monkeypatch)
    for obj in [*objects, SYNTHETIC, "\u2028 ω", 7, None]:
        cli._emit(obj)
        expected = json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected


def test_compact_json_raises_as_json_dumps(encoder):
    circular = []
    circular.append(circular)
    for obj, error in [({"a": {1, 2}}, TypeError), ({"a": circular}, ValueError),
                       ({"a": 1, 2: "b"}, TypeError)]:
        with pytest.raises(error) as ours:
            cli._compact_json(obj)
        with pytest.raises(error) as theirs:
            json.dumps(obj, separators=(",", ":"), sort_keys=True)
        assert str(ours.value) == str(theirs.value)


def test_pretty_json_is_json_dumps_indented(capsys, tmp_path, monkeypatch):
    for obj in [*_emitted_objects(tmp_path, monkeypatch), SYNTHETIC]:
        cli._emit(obj, pretty=True)
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected
