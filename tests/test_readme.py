"""README's examples, read from README.md, so that a drifted example fails."""

import shlex
from pathlib import Path

from dhcolor.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block after the heading line."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs_as_written(capsys):
    code = compile(readme_block("## Library quick start", "python"), str(README), "exec")
    exec(code, {})
    assert capsys.readouterr().out == "2\n"  # the chromatic number of its two edges


def test_cli_block_states_what_the_cli_prints(tmp_path, monkeypatch, capsys):
    lines = readme_block("## CLI", "sh").splitlines()

    def line(prefix):
        (found,) = [text for text in lines if text.startswith(prefix)]
        command, _, comment = found.partition("#")
        return shlex.split(command)[1:], comment.split()

    gen, _ = line("dhcolor gen --kind paper-i ")
    chromatic, chromatic_says = line("dhcolor chromatic ")
    bound, bound_says = line("dhcolor bound ")
    assert chromatic_says == ["prints", "3"]
    assert bound_says == ["prints", "f(12)", "=", "116"]

    monkeypatch.chdir(tmp_path)
    assert main(gen) == 0
    capsys.readouterr()
    assert main(chromatic) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(bound) == 0
    assert capsys.readouterr().out == "116\n"
