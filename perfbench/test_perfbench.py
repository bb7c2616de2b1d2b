"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import comrade  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import cofactor_det, float_cofactor_det  # noqa: E402
from spans import WRAPPED, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload's ladder cut down to a few tiny sizes, same kinds and families.
TINY = {
    "band-exact": (("inv", "band", 6, 12, 2), ("inv", "example33", 8, 8, 1),
                   ("det", "band", 30, 40, 2), ("det", "example33", 50, 50, 1)),
    "band-float": (("inv", "band", 8, 60, 2), ("inv", "example33", 10, 10, 1),
                   ("det", "band", 100, 100, 1)),
    "cli-mixed": (("inv", "zero-pivot", 6, 8, 2), ("inv", "zero-alpha", 7, 7, 1),
                  ("det", "zero-pivot", 6, 6, 1),
                  ("inv", "band", 10, 10, 1), ("det", "band", 10, 10, 1)),
}
SECONDS = workloads.NOMINAL_SECONDS      # the tiny ladders at their nominal counts


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], ladder=TINY[name])


def run_tiny(name, tmp_path, trace=True):
    return harness.run(tiny(name), seed=3, seconds=SECONDS, trace=trace, out_dir=tmp_path)


def inverse_sizes(name):
    return [n for kind, _, lo, hi, count in TINY[name] if kind == "inv"
            for n in workloads.sizes(lo, hi, count)]


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_emits_every_metric(name, tmp_path):
    report = run_tiny(name, tmp_path)
    names = {m["name"] for m in BENCHMARK["end_to_end"]} | {"fail_share"}
    assert set(report["end_to_end"]) == names
    assert set(report["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert report["unreached"] == []
    assert report["correct"]
    assert (tmp_path / f"trace-{name}-seed3.jsonl").is_file()


def test_band_exact_trace_counts(tmp_path):
    report = run_tiny("band-exact", tmp_path)
    layers = report["per_layer"]
    sizes = inverse_sizes("band-exact")
    assert layers["inversion.op_count"] == sum(7 * n * n - 5 * n - 11 for n in sizes)
    assert layers["inversion.calls"] == len(sizes)
    assert layers["scalars.poly_gcd_calls"] == 0
    assert report["failures"] == []


def test_band_float_records_the_float_defect(tmp_path):
    report = run_tiny("band-float", tmp_path)
    assert 0 < report["end_to_end"]["fail_share"] < 1
    assert all(f.known for f in report["failures"])
    assert report["per_layer"]["scalars.poly_gcd_calls"] == 0


def test_cli_mixed_reaches_cli_io_and_rescue(tmp_path):
    report = run_tiny("cli-mixed", tmp_path)
    layers = report["per_layer"]
    assert report["failures"] == []
    assert layers["scalars.poly_gcd_calls"] > 0
    assert layers["cli.retries"] == 4          # every zero-pivot and zero-alpha file
    assert layers["cli.calls"] == 6
    assert layers["io.bytes_written"] > 0
    assert layers["cli.wasted_s"] > 0


def test_zero_alpha_inverse_wastes_a_whole_factorization(tmp_path):
    run_tiny("cli-mixed", tmp_path)
    lines = (tmp_path / "trace-cli-mixed-seed3.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]     # name, start, end, parent, request, error
    wasted = [i for i, s in enumerate(spans)
              if s[0] == "inversion.invert" and s[5] == "ZeroPivotError"]
    finished = [s for s in spans if s[0] == "factorization.factorize" and s[5] is None
                and s[3] in wasted]
    assert len(wasted) == 3 and len(finished) == 1


def test_rescue_families_have_a_fixed_shape():
    rng = random.Random(5)
    for n in (8, 9, 24):
        pivot = workloads.draw_matrix("zero-pivot", n, rng)
        assert pivot.beta[0] == 0 and all(pivot.alpha[:n - 2])
        alpha = workloads.draw_matrix("zero-alpha", n, rng)
        assert workloads.pivots_nonzero(alpha)
        assert sum(v == 0 for v in alpha.alpha[:n - 2]) == 1
        assert comrade.determinant(alpha, comrade.ScalarMode.EXACT) == cofactor_det(alpha)
        with pytest.raises(comrade.ZeroPivotError):
            comrade.invert(alpha, comrade.ScalarMode.EXACT)


def test_perturbed_inverse_entry_is_a_failure(tmp_path, monkeypatch):
    original = comrade.invert

    def wrong(C, mode):
        result = original(C, mode)
        rows = [list(r) for r in result.inverse.rows]
        rows[0][0] += 1
        return dataclasses.replace(result, inverse=comrade.DenseMatrix.from_rows(rows))

    monkeypatch.setattr(comrade, "invert", wrong)
    report = run_tiny("band-exact", tmp_path, trace=False)
    inverses = len(inverse_sizes("band-exact"))
    assert len(report["failures"]) == inverses
    assert report["end_to_end"]["fail_share"] == inverses / report["attempted"]
    assert not report["correct"]


def test_wrong_determinant_is_a_failure(tmp_path, monkeypatch):
    original = comrade.determinant
    monkeypatch.setattr(comrade, "determinant", lambda C, mode: original(C, mode) + 1)
    report = run_tiny("band-float", tmp_path, trace=False)
    assert any(not f.known and "det" in f.reason for f in report["failures"])
    assert not report["correct"]


def test_cofactor_determinant_matches_dense_det():
    rng = random.Random(7)
    singular = 0
    for n in range(3, 13):
        for family in ("band", "zero-pivot", "zero-alpha", "example33"):
            C = workloads.draw_matrix(family, n, rng)
            assert cofactor_det(C) == comrade.dense_det(comrade.to_dense(C))
        for seed in range(20):
            C = comrade.random_comrade(n, seed, zero_pivot_bias=0.5)
            exact = comrade.dense_det(comrade.to_dense(C))
            assert cofactor_det(C) == exact
            singular += exact == 0
            det, scale = float_cofactor_det(C)
            assert abs(det - float(exact)) <= 1e-12 * scale
    assert singular > 0


def test_speed_scales_to_the_nominal_kernel_time():
    s = speed.Speed()
    s.at, s.took = [0.0, 0.5, 10.0], [2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S, speed.NOMINAL_S]
    assert s.scale(0.2, 1.0) == pytest.approx(0.5)      # the host ran at half speed
    assert s.scale(10.0, 0.2) == pytest.approx(0.2)
    assert s.median_s() == 2 * speed.NOMINAL_S


def test_import_fresh_keeps_the_loaded_modules():
    before = sys.modules["comrade.inversion"]
    harness.import_fresh()
    assert sys.modules["comrade.inversion"] is before
    assert sys.modules["comrade"].invert is comrade.invert


def test_sizes_spread_over_the_range():
    assert workloads.sizes(16, 800, 5) == [16, 43, 113, 301, 800]
    assert workloads.sizes(10, 20, 1) == [10]


def test_tail_percentile():
    assert harness.tail(range(1, 101)) == (90, 90.0, 100)
    assert harness.tail([3, 1, 2]) == (3, 100.0, 3)


def test_plan_is_seeded_and_keeps_the_sizes(tmp_path):
    w = tiny("band-exact")
    key = lambda plan: [(r.kind, r.family, r.matrix) for r in plan]
    first = workloads.build_plan(w, 1, SECONDS, tmp_path)
    assert key(first) == key(workloads.build_plan(w, 1, SECONDS, tmp_path))
    other = workloads.build_plan(w, 2, SECONDS, tmp_path)
    assert key(other) != key(first)
    sizes = lambda plan: sorted((r.kind, r.family, r.n) for r in plan)
    assert sizes(other) == sizes(first)


def test_unreached_wrapper_makes_the_traced_run_fail(monkeypatch, capsys):
    every_key = tuple(f"{m}.{a}" for m, a, _ in WRAPPED)
    monkeypatch.setitem(workloads.WORKLOADS, "band-exact", tiny("band-exact"))
    monkeypatch.setattr(harness, "required_calls", lambda via_cli: every_key)
    code = run.main(["--workload", "band-exact", "--seed", "1", "--seconds", str(SECONDS),
                     "--trace", "1"])
    out = capsys.readouterr()
    assert code == 3
    assert "UNMEASURED" in out.out and "comrade.scalars.poly_gcd" in out.err
    assert not out.out.strip().splitlines()[-1].startswith("{")
    assert Tracer().unreached(["comrade.cli.invert"]) == ["comrade.cli.invert"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_follows_the_result_contract(trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "cli-mixed", tiny("cli-mixed"))
    code = run.main(["--workload", "cli-mixed", "--seed", "4", "--seconds", str(SECONDS),
                     "--trace", trace])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    # A traced run issues each request of half the plan twice.
    assert line["attempted"] == (6 if trace == "0" else 2 * 5)
    spec = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"]
                                                                  for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "band-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
