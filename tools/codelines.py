"""Count the physical lines and the code lines of Python sources.

    python3 tools/codelines.py [PATH ...]

For each .py file under each PATH (default: src/comrade, relative to the
root of the checkout), prints its physical lines and its code lines, then
the totals.  A code line is one that is not blank, not a comment alone
and not part of a module, class or function docstring; docstrings are
found with ``ast``.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set:
    """The 1-based line numbers of every module, class and function
    docstring in the parsed tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(physical lines, code lines) of one Python source text."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "comrade"])
    args = parser.parse_args(argv)
    files = []
    for path in args.paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total_physical = total_code = 0
    print(f"{'physical':>9} {'code':>6}  file")
    for path in files:
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        shown = path.resolve()
        shown = shown.relative_to(ROOT) if shown.is_relative_to(ROOT) else path
        print(f"{physical:>9} {code:>6}  {shown}")
    print(f"{total_physical:>9} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
