"""Smoke test of ``tools/abbench.py``: with this tree's ``src`` on both
sides, one small kernel runs side by side under two package names for a
few rounds and ``--label`` writes the BENCH record.  A directory side needs no git."""

import importlib.util
import json
import platform
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "tools" / "abbench.py"


@pytest.fixture
def abbench():
    # the script puts src/ and perfbench/ on sys.path as it is imported
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("abbench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if name.startswith(("comrade_base", "comrade_head")):
                del sys.modules[name]


def test_a_against_a_writes_the_bench_record(abbench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    band64, = (k for k in abbench.KERNELS if k.name == "exact-invert-band-64")
    monkeypatch.setattr(abbench, "KERNELS", (band64,))
    monkeypatch.setattr(abbench, "ROUNDS", 3)
    src = str(_ROOT / "src")
    out = StringIO()
    with redirect_stdout(out):
        assert abbench.main([src, src, "--label", "smoke"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[-1].split()[0] == "exact-invert-band-64" and lines[-1].endswith("/3")
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert record["label"] == "smoke"
    assert record["base"] == record["head"] == {"spec": src, "revision": None}
    assert (record["rounds"], record["repeats"]) == (3, abbench.REPEATS)
    assert record["python"] == platform.python_version()
    assert set(record["machine"]) == {"platform", "machine", "cpus"}
    kernel, = record["kernels"].values()
    assert list(record["kernels"]) == ["exact-invert-band-64"]
    assert len(kernel["base_s"]) == len(kernel["head_s"]) == len(kernel["ratios"]) == 3
    assert all(t > 0 for t in kernel["base_s"] + kernel["head_s"])
    assert kernel["ratios"] == [h / b for h, b in zip(kernel["head_s"], kernel["base_s"])]
    assert kernel["q1"] <= kernel["median"] <= kernel["q3"]
    assert 0 <= kernel["head_wins"] <= 3
    # each side ran its own package
    assert {"comrade_base", "comrade_head"} <= set(sys.modules)
    assert sys.modules["comrade_base"].invert is not sys.modules["comrade_head"].invert
