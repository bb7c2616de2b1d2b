"""``tools/codelines.py``: which lines of a source count as code, and the
table its ``main`` prints."""

import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


@pytest.fixture(scope="module")
def codelines():
    spec = importlib.util.spec_from_file_location("codelines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# code lines: 5, 7-10, 13, 15, 18-19, 22, 24-25
SAMPLE = '''\
"""A module docstring
on two lines."""

# a comment alone
x = (1,  # a trailing comment
     # a comment inside brackets
     2,
)
y = 1 + \\
    2


class C:
    """A class docstring."""
    def f(self):
        """A function
        docstring."""
        """A string expression that is not
        the first statement."""


async def g():
    """An async function docstring."""
    return \'\'\'a string that is
no docstring\'\'\'
'''


def test_sample_counts_physical_and_code_lines(codelines):
    assert codelines.count(SAMPLE) == (25, 12)


@pytest.mark.parametrize("source, code", [
    ("\n\n# a comment\n    # an indented comment\n", 0),
    ("x = [\n    # a comment inside brackets\n    1,\n]\n", 3),
    ('"""A module\n\ndocstring."""\nx = 1\n', 1),
    ('class C:\n    """One."""\n\n    def f(self):\n        """Two\n        lines."""\n', 2),
    ('async def g():\n    """A docstring."""\n    await g()\n', 2),
    ('x = 1\n"""Not the first statement."""\n', 2),
    ('def f():\n    return 1\n    """Not the first statement."""\n', 3),
    ('s = """a\n\nb\n"""\n', 4),
    ("x = 1  # a trailing comment\ny = 1 + \\\n    2\n", 3),
])
def test_each_rule(codelines, source, code):
    assert codelines.count(source) == (len(source.splitlines()), code)


def test_main_totals_the_file_rows(codelines, tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    out = StringIO()
    with redirect_stdout(out):
        assert codelines.main([str(tmp_path)]) == 0
    header, *rows, total = [line.split() for line in out.getvalue().splitlines()]
    assert header == ["physical", "code", "file"]
    assert [(int(p), int(c), Path(f).name) for p, c, f in rows] == [(25, 12, "a.py"),
                                                                    (3, 1, "b.py")]
    assert total == [str(sum(int(row[0]) for row in rows)),
                     str(sum(int(row[1]) for row in rows)), "total"]
