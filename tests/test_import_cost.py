"""tools/import_cost.py, the import time CHANGES.md cites."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "import_cost.py"
spec = importlib.util.spec_from_file_location("import_cost", TOOL)
import_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(import_cost)


def test_times_the_statement_and_lists_the_slowest_imports(capsys, monkeypatch):
    monkeypatch.setattr(import_cost, "RUNS", 2)
    monkeypatch.setattr(import_cost, "TOP", 3)
    assert import_cost.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"import dhcolor\.cli, dhcolor\.fuzzing: median \d+\.\d\d ms over 2 "
                        r"fresh interpreters \(min \d+\.\d\d, max \d+\.\d\d\)", lines[0])
    assert len(lines) == 5
    assert all(re.fullmatch(r" *\d+ +\d+  \S+", line) for line in lines[2:])


def test_lists_only_what_the_statement_imports():
    rows = import_cost.slowest_imports(1000)
    names = {name for _, _, name in rows}
    assert {"dhcolor", "dhcolor.cli", "dhcolor.fuzzing", "dhcolor.generators"} <= names
    assert "site" not in names  # imported at start-up, before the statement
    assert all(own <= total for own, total, _ in rows)
