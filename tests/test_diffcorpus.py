"""Smoke test of ``tools/diffcorpus.py``: its records still run against
the package's API, so a diff of two trees' corpora compares results and
not a crash of the script.  A stride of the inputs and every ``cli:`` and
``scalars:`` group are also checked against the committed digest, so a
change of any of those records fails here and names its group.  The
argparse text of later interpreters is mapped to 3.11's layout, and
3.11's passes through unchanged."""

import ast
import importlib.util
import itertools
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import support
from comrade import ComradeMatrix, ScalarMode, example33

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "diffcorpus.py"

#: every _STRIDE-th corpus input is checked against the digest; 11 is
#: prime to the corpus's seed, pattern and size counts, so the sample
#: mixes them
_STRIDE = 11


@pytest.fixture(scope="module")
def diffcorpus():
    # the script puts tests/ and perfbench/ on sys.path as it is imported
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("diffcorpus", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def printed(fn, *args):
    """The text fn(*args) prints."""
    out = StringIO()
    with redirect_stdout(out):
        fn(*args)
    return out.getvalue()


def differing(diffcorpus, *texts):
    """The record names of texts whose lines differ from the digest."""
    digest = diffcorpus.Digest()
    for text in texts:
        digest.write(text)
    want = diffcorpus.read_digest()
    return [name for name, entry in digest.entries().items() if want.get(name) != entry]


@pytest.fixture(scope="module")
def scalar_texts(diffcorpus):
    return printed(diffcorpus.scalar_records), printed(diffcorpus.scalar_form_records)


@pytest.mark.parametrize("mode", list(ScalarMode))
def test_records_run_in_every_mode(diffcorpus, mode, capsys):
    name, C = next(diffcorpus.inputs())
    assert isinstance(name, str) and isinstance(C, ComradeMatrix)
    cases = [("example33", example33(5)), ("singular", support.SINGULAR4),
             ("rescue", support.PROPORTIONAL4)]
    for name, C in cases:
        diffcorpus.records(name, C, mode)
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert all(len(line) == 4 and line[1] == mode.value for line in lines)
    entries = {(name, entry) for name, _, entry, _ in lines}
    for name, _ in cases:
        assert {(name, "invert"), (name, "determinant"), (name, "factorize")} <= entries
    if mode is not ScalarMode.FLOAT:
        assert ("example33", "remaining_columns finalize=True") in entries
    if mode is ScalarMode.SYMBOLIC:
        assert ("rescue", "remaining_columns finalize=True") in entries


def test_inputs_match_digest(diffcorpus):
    def stride():
        for name, C in itertools.islice(diffcorpus.inputs(), 0, None, _STRIDE):
            for mode in ScalarMode:
                diffcorpus.records(name, C, mode)
    assert differing(diffcorpus, printed(stride)) == []


def test_cli_records_run(diffcorpus, tmp_path):
    out = printed(diffcorpus.cli_records, tmp_path)
    assert differing(diffcorpus, out) == []
    assert str(tmp_path) not in out
    lines = [line.split("\t") for line in out.splitlines()]
    assert all(len(line) == 4 and line[0].startswith("cli:") for line in lines)
    records = [(command, ast.literal_eval(value)) for _, _, command, value in lines]
    assert {"gen", "det", "inv", "check", "bench"} <= {command for command, _ in records}
    codes = {code for _, (code, *_) in records}
    assert {0, 2, 3, 4, 6} <= codes
    assert not [code for code in codes if isinstance(code, tuple)]   # no unexpected error
    for command, (code, _, _, written) in records:
        if command in ("gen", "inv"):
            assert (written is not None) == (code == 0)
        if command == "bench" and code == 0:
            assert written[0] == ["n", "mode", "op_count", "epsilon"]
    # the records are the digest's, made with 3.11: its layout passes through
    texts = [v for _, value in records for v in value if isinstance(v, str)]
    assert [diffcorpus.argparse_311(v) for v in texts] == texts


#: ``comrade bench --help`` and a ``--mode`` error as CPython 3.13
#: prints them, with %s for the text whose layout changed
_BENCH_HELP = (
    "usage: comrade bench [-h] --family {example33,random} --sizes SIZES\n"
    "                     [--mode {exact,symbolic,float}] [--seed SEED]\n"
    "                     [--zero-pivot-bias ZERO_PIVOT_BIAS] [-o OUTPUT]\n\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --family {example33,random}\n"
    "  --sizes SIZES         comma-separated, e.g. 50,100,500\n"
    "  --mode {exact,symbolic,float}\n"
    "                        arithmetic mode (default: float)\n"
    "  --seed SEED\n"
    "  --zero-pivot-bias ZERO_PIVOT_BIAS\n"
    "%s\n")
_BAD_MODE = ("usage: comrade det [-h] [--mode {exact,symbolic,float}] file\n"
             "comrade det: error: argument --mode: invalid choice: 'decimal' "
             "(choose from %s)\n")


@pytest.mark.parametrize("later, v311", [
    (_BENCH_HELP % "  -o, --output OUTPUT", _BENCH_HELP % "  -o OUTPUT, --output OUTPUT"),
    (_BAD_MODE % "exact, symbolic, float", _BAD_MODE % "'exact', 'symbolic', 'float'"),
], ids=["3.13 short and long flag", "3.13.13 unquoted choices"])
def test_later_argparse_layouts_become_the_311_bytes(diffcorpus, later, v311):
    assert diffcorpus.argparse_311(later) == v311


def test_scalar_records_match_digest(diffcorpus, scalar_texts):
    # a scalars: group's lines are those of both functions, in this order
    assert differing(diffcorpus, *scalar_texts) == []


def test_scalar_records_run(scalar_texts):
    lines = [line.split("\t") for line in scalar_texts[0].splitlines()]
    assert all(len(line) == 4 and line[0].startswith("scalars:") for line in lines)
    values = {}
    for name, _, entry, value in lines:
        values.setdefault(entry, []).append(ast.literal_eval(value))
    assert set(values) == {"poly_gcd", "rf", "rf add", "rf mul", "rf truediv"}
    gcds = values["poly_gcd"]
    assert ("ValueError", "poly_gcd(0, 0) is undefined") in gcds      # both operands zero
    assert any(len(g) > 2 and g[-1] == "1" for g in gcds)            # planted factors found
    assert any(len(c) > 60 for g in gcds for c in g)                 # coefficients near 2^200


def test_scalar_form_records_run(scalar_texts):
    lines = [line.split("\t") for line in scalar_texts[1].splitlines()]
    assert all(len(line) == 4 and line[0].startswith("scalars:") for line in lines)
    values = {}
    for name, _, entry, value in lines:
        values.setdefault(entry, []).append(ast.literal_eval(value))
    assert set(values) == {"a str", "a monic", "a(-3/7)", "b str", "b monic", "b(-3/7)",
                           "divmod", "f str", "f at_zero", "k str", "k at_zero"}
    assert ("ZeroDivisionError", "polynomial division by zero") in values["divmod"]
    assert "0" in values["a str"] and any("t^" in s for s in values["b str"])
    assert any(isinstance(v, tuple) and v[0] == "PoleAtZeroError" for v in values["f at_zero"])
    assert any(len(c) > 60 for m in values["a monic"] for c in m)     # coefficients near 2^200
