"""The runtime stays stdlib-only: the package imports nothing else, and its
import chain leaves out the costly stdlib modules it does not need."""

import ast
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dhcolor").glob("*.py"))


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
