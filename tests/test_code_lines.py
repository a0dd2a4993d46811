"""tools/code_lines.py, the code-line count CHANGES.md cites."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''\
"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is not a docstring"""
        return s
'''


def test_counts_only_code_outside_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import; class; x = (1, / 2); def; s = two lines; return.
    assert code_lines.code_lines(path) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1 {tmp_path / 'a.py'}",
        f"     2 {tmp_path / 'b.py'}",
        "     3 total",
    ]
