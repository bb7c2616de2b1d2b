"""README's code, run as written."""

import ast
import shlex
from fractions import Fraction as F
from pathlib import Path

from comrade import Substitution, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The fenced Python block under README's "Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_gives_what_its_comments_state():
    source = quick_start()
    namespace, results = {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), README.name, "eval")
            results.append((eval(code, namespace), source.splitlines()[stmt.lineno - 1]))
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
    values = [value for value, _ in results]
    assert values == [F(24), (F(-7, 6), F(7, 24), F(5, 8), F(-5, 12)),
                      (Substitution("pivot", 1),), 81]
    # a comment that states a value states its repr; the row's names it
    stated = [line.split("# ", 1)[1].split(" == ")[0] for _, line in results]
    assert stated == [repr(values[0]), "first row, exact Fractions", repr(values[2]),
                      repr(values[3])]


def command_lines() -> list:
    """The ``comrade ...`` lines of the fenced block under README's
    "Command line", each split into its arguments, comments dropped."""
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("comrade ")]


def test_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert [argv[1] for argv in lines] == ["gen", "det", "inv", "check", "bench"]
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.csv", "m.json", "m_inv.json"]
