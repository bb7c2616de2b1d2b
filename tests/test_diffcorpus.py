"""Smoke test of ``tools/diffcorpus.py``: its records still run against
the package's API, so a diff of two trees' corpora compares results and
not a crash of the script."""

import importlib.util
import sys
from pathlib import Path

import pytest

import support
from comrade import ComradeMatrix, ScalarMode, example33

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "diffcorpus.py"


@pytest.fixture
def diffcorpus(monkeypatch):
    # the script puts tests/ and perfbench/ on sys.path as it is imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("diffcorpus", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        assert ("rescue", "bumped remaining_columns finalize=True") in entries
