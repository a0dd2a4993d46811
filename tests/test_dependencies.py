"""What the package depends on and what depends on it.  The runtime stays
stdlib-only: the package imports nothing else, and its import chain leaves
out the costly stdlib modules it does not need.  Only ``core`` builds a
``HypergraphIndex`` or its pair view, and the benchmark's tracer still finds
every name it wraps."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import dhcolor.algorithms
import dhcolor.bounds
import dhcolor.cli
import dhcolor.fuzzing
import dhcolor.generators
import dhcolor.solver

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dhcolor").glob("*.py"))


def test_every_absolute_import_is_stdlib():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {module}")
    assert outside == []


def _modules_after(statement: str) -> set[str]:
    """The module names a fresh isolated interpreter holds after statement."""
    probe = f"import sys\nsys.path.insert(0, sys.argv[1])\n{statement}\nprint(*sys.modules)"
    src = str(SOURCES[0].parent.parent)
    out = subprocess.run([sys.executable, "-I", "-c", probe, src],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return set(out.split())


def test_the_import_chain_leaves_out_dataclasses_and_inspect():
    # dataclasses loads inspect (and with it ast, dis and tokenize); the
    # value classes are written out so that the cold import pays for neither.
    loaded = _modules_after("import dhcolor, dhcolor.cli, dhcolor.fuzzing")
    assert {"dhcolor.cli", "dhcolor.fuzzing"} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
    # The probe sees the modules when they are imported.
    loaded = _modules_after("import dataclasses, dhcolor, dhcolor.cli, dhcolor.fuzzing")
    assert {"dataclasses", "inspect", "dhcolor.cli"} <= loaded


def calls_to(name):
    """The source file of each call to `name`, plain or module-qualified."""
    calls = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # HypergraphIndex(...) or core.HypergraphIndex(...)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(name):
                calls.append(path.name)
    return calls


def test_only_core_builds_a_hypergraph_index():
    calls = calls_to("HypergraphIndex")
    assert calls and set(calls) == {"core.py"}


def test_only_core_builds_a_pair_view():
    assert calls_to("PairKeys") == ["core.py"]


def test_the_benchmark_tracer_wraps_and_restores_library_names(monkeypatch):
    """The tracer patches names in the library's modules from the outside;
    a renamed or deleted one fails its install here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    cli, generators = dhcolor.cli, dhcolor.generators
    namespaces = [vars(dhcolor.algorithms), vars(dhcolor.bounds), vars(cli),
                  vars(dhcolor.fuzzing), vars(generators), vars(dhcolor.solver),
                  vars(dhcolor.algorithms.RunTrace), cli._ALGOS]
    before = [dict(namespace) for namespace in namespaces]
    algos, gen_random = dict(cli._ALGOS), generators.gen_random

    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.install_generators()
        assert all(cli._ALGOS[name] is not fn for name, fn in algos.items())
        assert generators.gen_random is not gen_random
        assert generators.gen_random.__wrapped__ is gen_random
    finally:
        tracer.uninstall()

    for namespace, saved in zip(namespaces, before):
        assert namespace.keys() == saved.keys()
        assert [name for name, value in namespace.items() if value is not saved[name]] == []
