"""The package surface: what a fresh import loads, the public names, the
value classes' semantics and the README's library example."""

import ast
import collections
import copy
import importlib
import importlib.machinery
import inspect
import json
import os
import pickle
import random
import re
import subprocess
import sys
import types

import pytest

import leavittpath
from leavittpath import (
    BreakingSet,
    HereditarySet,
    Monomial,
    breaking_vertices,
    build_hedgehog,
    classify,
    condense,
    density_check,
    hs_closure,
    ideal_descriptor,
    largest_ideals_report,
    pi_decomposition,
)
from leavittpath.cli import report_payload

from conftest import FIXTURE_NAMES, ROOT, fixture_graph

PACKAGE_ROOT = os.path.dirname(os.path.dirname(leavittpath.__file__))

def fresh_python(code: str) -> str:
    """stdout of ``code`` run by ``python -S`` with the package on the path."""
    prelude = f"import sys; sys.path.insert(0, {PACKAGE_ROOT!r}); "
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def fresh_modules(code: str) -> tuple[str, dict]:
    """What ``code`` prints in a fresh ``python -S``, and the modules it
    loads there beyond the interpreter's own start, each with its file."""
    out = fresh_python(
        "START = set(sys.modules)\n" + code + "\nLOADED = {n: getattr(sys.modules[n],"
        " '__file__', None) for n in set(sys.modules) - START}\n"
        "import json\nprint(json.dumps(LOADED))"
    )
    printed, _, modules = out.rstrip("\n").rpartition("\n")
    return printed, json.loads(modules)


# compiled modules that are still too dear for a plain command
KEPT_OUT = {
    "_hashlib",  # loads OpenSSL; graph_digest takes the built-in sha256
    "math",  # condense counts an ω-bundle as float("inf")
}


def outside_the_allow_rule(modules: dict) -> list:
    """The modules a plain command may not load: all but the package's own,
    the interpreter's built-in modules and extension modules, and of those
    none in ``KEPT_OUT``.  Built-in and extension modules hold compiled
    code; any other standard-library module is Python that every fresh
    ``lpa`` would load and run again, with whatever it imports."""
    suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
    return sorted(
        name for name, path in modules.items()
        if name in KEPT_OUT
        or name != "leavittpath" and not name.startswith("leavittpath.")
        and name not in sys.builtin_module_names
        and not (path or "").endswith(suffixes)
    )


# every analysis subcommand uses these; the rest load on first use
EAGER_MODULES = {
    "leavittpath", "leavittpath.cli", "leavittpath._kernel", "leavittpath.classify",
    "leavittpath.closures", "leavittpath.errors", "leavittpath.graph",
}


def test_cli_import_loads_only_what_every_subcommand_needs():
    _, loaded = fresh_modules("import leavittpath.cli")
    assert outside_the_allow_rule(loaded) == []
    assert {name for name in loaded if name.startswith("leavittpath")} == EAGER_MODULES


# each plain command, and the golden its output matches where it has one;
# eval's coefficients are ints, since a fraction loads `fractions`
PLAIN_COMMANDS = {
    "validate": (["validate", "six"], "validate_six.json"),
    "classify": (["classify", "six"], "classify_six.json"),
    "closure": (["closure", "six", "--seed", "w2"], "closure_six.json"),
    "report": (["report", "six"], "report_six.json"),
    "eval": (["eval", "chain3", "--expr", "2 f1* f1", "--json"], None),
    "eval-indexed": (
        ["eval", "twoloop-oneloop", "--expr", "a1[1] a2[1]* - 3 f[1]* f", "--json"],
        None,
    ),
    "hedgehog": (["hedgehog", "omega-h", "--H", "h", "--S", "u"], None),
    "dot": (["dot", "six"], "dot_six.dot"),
}


@pytest.mark.parametrize("argv,golden", PLAIN_COMMANDS.values(), ids=PLAIN_COMMANDS)
def test_a_fresh_command_loads_neither_shutil_nor_hashlib(argv, golden):
    # nor any other pure-Python module of the standard library
    command, name, *options = argv
    path = str(ROOT / "fixtures" / f"{name}.lpa")
    printed, loaded = fresh_modules(
        f"sys.argv = ['lpa', {command!r}, {path!r}, *{options!r}]\n"
        "from leavittpath.cli import main\n"
        "try:\n    main()\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print(code)"
    )
    output, _, code = printed.rpartition("\n")
    assert code == "0"
    if golden is not None:
        expected = (ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8")
        assert output + "\n" == expected
    if command != "dot":
        assert json.loads(output)["payload"]
    assert outside_the_allow_rule(loaded) == []


PUBLIC_NAMES_PROBE = """
import json, types
import leavittpath as p
print(json.dumps({
    "not_in_dir": sorted(set(p.__all__) - set(dir(p))),
    "unresolved": [n for n in p.__all__ if not hasattr(p, n)],
    "submodules": p.terms is sys.modules["leavittpath.terms"]
    and p.hedgehog is sys.modules["leavittpath.hedgehog"]
    and p.ideals is sys.modules["leavittpath.ideals"],
    "unknown": hasattr(p, "no_such_name"),
    "classify": isinstance(p.classify, types.FunctionType),
}))
"""


def test_public_names_resolve_in_a_fresh_process():
    assert json.loads(fresh_python(PUBLIC_NAMES_PROBE)) == {
        "not_in_dir": [],
        "unresolved": [],
        "submodules": True,
        "unknown": False,
        "classify": True,
    }
    # loading a submodule by name must not rebind the package's names
    out = fresh_python(
        "import types, leavittpath.classify, leavittpath.terms, leavittpath; "
        "print(isinstance(leavittpath.classify, types.FunctionType), "
        "leavittpath.parse_element is sys.modules['leavittpath.terms'].parse_element)"
    )
    assert out.split() == ["True", "True"]


def test_src_does_not_use_dataclasses():
    hits = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "dataclasses" in line
    ]
    assert hits == []


def _tracer_required_names():
    """The REQUIRED tuple of lpabench/tracing.py, read without importing it."""
    tree = ast.parse((ROOT / "lpabench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REQUIRED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("lpabench/tracing.py defines no REQUIRED tuple")


@pytest.mark.parametrize("name", _tracer_required_names())
def test_tracer_required_name_resolves(name):
    # a traced benchmark run reads its per-layer metrics off these functions,
    # defined where the name says, and counts a missing one as absent
    module, *attrs = name.split(".")
    owner = importlib.import_module(f"leavittpath.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    fn = vars(owner).get(attrs[-1])
    assert inspect.isfunction(fn), name
    assert fn.__module__ == f"leavittpath.{module}", name


def _scope_nodes(scope):
    """The nodes of ``scope`` outside the functions and classes nested in it
    (those themselves included)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dotted(node):
    """``a.b.c`` of an attribute chain on a plain name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else None


def _benchmark_references():
    """Each ``leavittpath`` name lpabench imports, or reads as an attribute
    of an imported ``leavittpath`` name (or of a plain alias of one), mapped
    to the "file:line" places that use it."""
    found: dict[str, list[str]] = {}

    def visit(path, scope, bound):
        nodes = list(_scope_nodes(scope))
        bound = dict(bound)

        def use(name, node):
            found.setdefault(name, []).append(f"{path.name}:{node.lineno}")

        for node in nodes:
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "leavittpath":
                        use(a.name, node)
                        if a.asname:
                            bound[a.asname] = a.name
                        else:  # `import leavittpath.cli` binds leavittpath
                            bound["leavittpath"] = "leavittpath"
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "leavittpath"
            ):
                for a in node.names:
                    use(f"{node.module}.{a.name}", node)
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"

        def resolve(node):
            dotted = _dotted(node)
            root, _, rest = (dotted or "").partition(".")
            if root in bound:
                return bound[root] + (f".{rest}" if rest else "")
            return None

        for node in nodes:  # E = terms.AlgebraElement
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
                isinstance(node.targets[0], ast.Name)
            ):
                full = resolve(node.value)
                if full is not None:
                    bound[node.targets[0].id] = full
        for node in nodes:
            full = resolve(node) if isinstance(node, ast.Attribute) else None
            if full is not None:
                use(full, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(path, node, bound)

    for path in sorted((ROOT / "lpabench").glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), {})
    return {name: sorted(set(places)) for name, places in sorted(found.items())}


BENCHMARK_REFERENCES = _benchmark_references()


def test_benchmark_references_are_found():
    assert {
        "leavittpath.cli.report_payload",
        "leavittpath.closures.breaking_vertices",
        "leavittpath.selftest.check_graph",
        "leavittpath.terms.AlgebraElement.edge",
        "leavittpath.graph.to_text",
    } <= BENCHMARK_REFERENCES.keys()
    # phases.py's local dict named `closures` is not the module
    assert "leavittpath.closures.items" not in BENCHMARK_REFERENCES


@pytest.mark.parametrize("name", BENCHMARK_REFERENCES)
def test_benchmark_reference_resolves(name):
    # the benchmark runs the program through these names; one renamed away
    # breaks only the benchmark, so it is caught here
    where = ", ".join(BENCHMARK_REFERENCES[name])
    parts = name.split(".")
    k = len(parts)
    while True:  # the longest importable module prefix, then attributes
        try:
            obj = importlib.import_module(".".join(parts[:k]))
            break
        except ModuleNotFoundError:
            k -= 1
            assert k, f"{name} ({where})"
    for attr in parts[k:]:
        assert hasattr(obj, attr), f"{name} ({where})"
        obj = getattr(obj, attr)


def _names_read_by_module():
    """Per ``leavittpath`` module, every name its code mentions: plain
    names, imported names and attributes of a package module (``_kernel.x``),
    but not a field such as ``result.is_hereditary``."""
    paths = sorted((ROOT / "src" / "leavittpath").glob("*.py"))
    modules = {path.stem for path in paths}

    def named(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.alias):
            return node.name
        if isinstance(node, ast.Attribute) and _dotted(node.value) in modules:
            return node.attr
        return None

    return {
        f"leavittpath.{path.stem}":
            set(map(named, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
        for path in paths
    }


def _readme_library_names():
    """The names README's "Library" section puts in backticks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


NAMES_READ_BY_MODULE = _names_read_by_module()
# what the benchmark reads or times, by the last part of its dotted name
MEASURED_NAMES = {
    key.rsplit(".", 1)[-1] for key in [*BENCHMARK_REFERENCES, *_tracer_required_names()]
}
PUBLIC_FUNCTIONS = sorted(
    name for name in leavittpath.__all__
    if inspect.isfunction(getattr(leavittpath, name))
)


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_public_function_has_a_reader(name):
    # a public function that only its own tests call is a second way to
    # reach code the report already runs
    own = getattr(leavittpath, name).__module__
    callers = [
        module for module, names in NAMES_READ_BY_MODULE.items()
        if module not in (own, "leavittpath.__init__") and name in names
    ]
    assert callers or name in MEASURED_NAMES or name in _readme_library_names(), name


# -- value classes -------------------------------------------------------------


def _values():
    """(name, instance, a field) for one instance of each public value class."""
    g = fixture_graph("omega-h")  # u ⇒ω h, u → x, h has two loops
    report = largest_ideals_report(g)
    return [
        ("EdgeBundle", g.bundles[0], "mult"),
        ("Condensation", condense(g), "masks"),
        ("DensityResult", density_check(g, ("h", "x")), "dense"),
        ("Classification", classify(g), "p_ppi"),
        ("GradedIdealDescriptor", ideal_descriptor(g, ("h",), ("u",)), "H"),
        ("CycleClass", pi_decomposition(g)[0], "tree"),
        ("LargestIdealsReport", report, "pi_classes"),
        ("Monomial", Monomial(("h1",), ("h2",), "h"), "anchor"),
        ("HedgehogGraph", build_hedgehog(g, ("h",), ("u",), 4), "finite"),
        ("HereditarySet", hs_closure(g, ("h",)), "members"),
        ("BreakingSet", breaking_vertices(g, ("h",)), "outside_counts"),
    ]


VALUES = _values()


@pytest.mark.parametrize("name,value,field", VALUES, ids=[v[0] for v in VALUES])
def test_value_classes_pickle_compare_and_freeze(name, value, field):
    assert type(value).__name__ == name
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
    assert repr(copy) == repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


# the record classes as they were once defined, each as a subclass of
# collections.namedtuple(name, fields, defaults=defaults): the reference
# graph._record is held against
NAMEDTUPLE_SPECS = {
    "EdgeBundle": ("id source target mult", (1,)),
    "Condensation": ("scc_of masks dag internal order", None),
    "Classification": (
        "p_l p_c p_ec p_binf p_pi p_ppi p_ec_prime p_pec p_prime p_K p_ex"
        " condition_K condition_L exchange_breaking",
        None,
    ),
    "DensityResult": ("dense witnesses", None),
    "GradedIdealDescriptor": ("graph H S", None),
    "CycleClass": ("kind member_sccs class_vertices tree label", None),
    "LargestIdealsReport": (
        "semisimple_gens loc_noetherian_gens loc_noetherian_no_min_idem_gens"
        " purely_infinite_gens exchange_gens dense_gens dense dense_witnesses"
        " pi_classes exchange_breaking notes",
        None,
    ),
    "HedgehogGraph": ("base H S finite truncated_at path_vertex_table", None),
    "Monomial": ("real ghost anchor", None),
}
RECORD_CLASSES = {name: type(value) for name, value, _ in VALUES}


def _outcome(call):
    """What ``call()`` gives, as (class name, plain tuple) for a tuple, or
    the type and message of what it raises."""
    try:
        result = call()
    except Exception as exc:  # the two sides must raise alike
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return type(result).__name__, tuple(result)
    return result


def _reduced(value, protocol):
    """``value.__reduce_ex__(protocol)`` with its class written "cls"."""
    return tuple(
        tuple("cls" if a is type(value) else a for a in part)
        if isinstance(part, tuple) else part
        for part in value.__reduce_ex__(protocol)
    )


@pytest.mark.parametrize("name", NAMEDTUPLE_SPECS)
def test_records_behave_as_their_namedtuple_twins(name):
    fields, defaults = NAMEDTUPLE_SPECS[name]
    cls = RECORD_CLASSES[name]
    twin = collections.namedtuple(name, fields, defaults=defaults)
    record = cls.__mro__[1]  # what _record built; cls adds methods
    assert cls.__mro__[2:] == (tuple, object)
    assert cls.__slots__ == record.__slots__ == ()
    for attr in ("_fields", "_field_defaults", "__match_args__"):
        assert getattr(cls, attr) == getattr(twin, attr), attr
    assert cls.__new__.__defaults__ == twin.__new__.__defaults__
    for field in twin._fields:
        getter, twin_getter = vars(record)[field], vars(twin)[field]
        assert type(getter) is type(twin_getter)
        assert getter.__doc__ == twin_getter.__doc__
    k = len(twin._fields)
    required = k - len(defaults or ())
    rng = random.Random(name)
    made = []
    for _ in range(30):
        vals = [rng.randrange(3) for _ in range(k)]
        keywords = dict(zip(twin._fields, vals))
        for make in (
            lambda C: C(*vals),
            lambda C: C(**keywords),
            lambda C: C(*vals[:required]),
            lambda C: C(*vals[:-2]),
            lambda C: C(*vals, 0),
            lambda C: C(*vals[:-1], **{twin._fields[0]: 0}),
            lambda C: C(**keywords, extra=0),
            lambda C: C._make(vals),
            lambda C: C._make(iter(vals[:-1])),
        ):
            assert _outcome(lambda: make(cls)) == _outcome(lambda: make(twin))
        x, t = cls(*vals), twin(*vals)
        made.append((x, t))
        field = rng.choice(twin._fields)
        for use in (
            lambda v: v._replace(**{field: 7}),
            lambda v: v._replace(**{field: 7}, nope=1),
            lambda v: v._asdict(),
            lambda v: getattr(v, field),
            lambda v: v == tuple(vals),
            hash,
            lambda v: v[1:],
        ):
            assert _outcome(lambda: use(x)) == _outcome(lambda: use(t))
        assert record.__repr__(x) == repr(t)
        assert x == t
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            unpickled = pickle.loads(pickle.dumps(x, protocol))
            assert type(unpickled) is cls and unpickled == x
            assert _reduced(x, protocol) == _reduced(t, protocol)
        if hasattr(copy, "replace"):  # Python 3.13+
            assert _outcome(lambda: copy.replace(x, **{field: 5})) == (
                _outcome(lambda: copy.replace(t, **{field: 5}))
            )
    for (x, t), (y, u) in zip(made, made[1:]):
        assert (x < y, x <= y, x > y, x == y) == (t < u, t <= u, t > u, t == u)
    with pytest.raises(AttributeError):
        made[0][0].extra = 1


def test_member_sets_iterate_members_and_ignore_rounds():
    a = HereditarySet(("h", "u"), True, True, rounds=0)
    b = HereditarySet(("h", "u"), True, True, rounds=3)
    assert a == b and hash(a) == hash(b)
    assert a != HereditarySet(("h", "u"), True, False, rounds=0)
    assert list(a) == ["h", "u"] and "u" in a and "x" not in a
    assert pickle.loads(pickle.dumps(b)).rounds == 3
    assert repr(b) == (
        "HereditarySet(members=('h', 'u'), is_hereditary=True, "
        "is_saturated=True, rounds=3)"
    )
    s = BreakingSet(("u",), {"u": 1})
    assert list(s) == ["u"] and s == BreakingSet(("u",), {"u": 1})
    assert s != BreakingSet(("u",), {"u": 2})
    with pytest.raises(TypeError):
        hash(s)  # it holds a dict


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_analysed_graph_pickles_with_its_memo(name):
    g = fixture_graph(name)
    before = json.dumps(report_payload(g), sort_keys=True)
    assert g._memo
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._memo == g._memo
    assert json.dumps(report_payload(copy), sort_keys=True) == before
    assert copy._memo.keys() == g._memo.keys()  # answered from the memo


# -- README ------------------------------------------------------------------


def test_readme_library_example(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(ROOT)
    ns = {}
    exec(block, ns)
    printed = capsys.readouterr().out.splitlines()
    # every `name.attribute` the example mentions, comments included
    for name, attr in re.findall(r"\b(\w+)\.(\w+)", block):
        if name in ns and not isinstance(ns[name], types.ModuleType):
            assert hasattr(ns[name], attr), f"{name}.{attr}"
    # a comment on a print line starts with what it prints; any other
    # comment holding "==" is a claim
    expected = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith("print("):
            expected.append(comment.split(":")[0].strip())
        elif "==" in comment:
            assert eval(comment, ns), comment
    assert printed == expected
