"""Set-up, measurement loop and metrics of one benchmark run.

The load is a closed loop: one caller in one thread issues the requests
of the plan back to back and times each call.  Every output is checked
after its call, outside the timed region.  In a traced run each request
is issued twice, untraced and then traced, and both outputs are checked;
the end-to-end figures come from the untraced calls and the per-layer
figures from the spans of the traced ones.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import comrade
import comrade.cli
from comrade import ScalarMode

from checks import Checker, Failure
from spans import Tracer, inverse_note, layer_metrics, required_calls
from speed import Speed
from workloads import Request, build_plan, draw_matrix

SETUP_REPEATS = 5
TAIL_BEYOND = 10      # a tail percentile needs this many samples beyond it


def _direct(name, fn, *args, note=None):
    return fn(*args)


def issue(workload, req, call, out_path):
    """Send one request through the workload's entry point.  ``call``
    runs a function, untraced (_direct) or as a span (Tracer.call)."""
    if not workload.via_cli:
        if req.kind == "inv":
            return call("inversion.invert", comrade.invert, req.matrix, workload.mode,
                        note=inverse_note)
        return call("factorization.determinant", comrade.determinant, req.matrix,
                    workload.mode)
    argv = ["inv", req.path, "-o", out_path] if req.kind == "inv" else ["det", req.path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = call("cli.main", comrade.cli.main, argv)
    return code, stdout.getvalue()


def judge(workload, req, outcome, checker, out_path):
    """The check of one outcome: None, or a Failure."""
    if isinstance(outcome, Exception):
        return Failure(f"{req.kind} n={req.n}: raised {type(outcome).__name__}: {outcome}",
                       known=False)
    float_mode = workload.mode is ScalarMode.FLOAT
    if not workload.via_cli:
        if req.kind == "inv":
            return checker.inverse(req.matrix, outcome.inverse, outcome.determinant, float_mode)
        return checker.determinant(req.matrix, outcome, float_mode)
    code, text = outcome
    if code != 0:
        return Failure(f"comrade {req.kind} n={req.n} exited {code}", known=False)
    try:
        first = text.splitlines()[0]
        det = comrade.parse_rational(first.removeprefix("determinant: "))
        if req.kind == "det":
            return checker.determinant(req.matrix, det, False)
        inverse = comrade.load_dense(out_path)
    except (IndexError, ValueError) as exc:
        return Failure(f"comrade {req.kind} n={req.n}: unreadable output ({exc})", known=False)
    return checker.inverse(req.matrix, inverse, det, False)


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as exc:    # a request that raises is a failed request
        outcome = exc
    return time.perf_counter() - start, outcome


def warm_up(workload, workdir: Path) -> None:
    """One tiny request of every kind and family the workload issues."""
    rng = random.Random("perfbench:warm-up")
    for kind, family, *_ in workload.ladder:
        C = draw_matrix(family, 8, rng)
        path = None
        if workload.via_cli:
            path = str(workdir / "warm-up.json")
            comrade.dump_comrade(C, path)
        _timed(issue, workload, Request(-1, kind, family, C, path), _direct,
               str(workdir / "warm-up-out.json"))


def import_fresh() -> None:
    """Import comrade from scratch, as a new process does, then put back
    the modules the run uses."""
    ours = lambda name: name.split(".")[0] == "comrade"
    loaded = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in loaded:
        del sys.modules[name]
    try:
        importlib.import_module("comrade.cli")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(loaded)


def tail(values):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum if there are too few."""
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0, len(xs)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, measure and check one workload; returns the report.
    Temporary matrix files and the span file go under out_dir.  Every
    end-to-end timing is scaled to the nominal host speed (speed.py)."""
    out_dir.mkdir(exist_ok=True)
    speed = Speed()
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        workdir = Path(tmp)
        out_path = str(workdir / "inverse-out.json")
        setup_times = []
        for _ in range(SETUP_REPEATS):
            plan = None
            speed.sample(force=True)
            start = time.perf_counter()
            import_fresh()
            plan = build_plan(workload, seed, seconds, workdir)
            warm_up(workload, workdir)
            setup_times.append((start, time.perf_counter() - start))

        checker, tracer = Checker(), Tracer() if trace else None
        timings = []      # (kind, start, seconds) of the untraced calls
        verdicts, traced_s, bytes_written = [], 0.0, 0
        for req in plan:
            speed.sample()
            start = time.perf_counter()
            lat, outcome = _timed(issue, workload, req, _direct, out_path)
            timings.append((req.kind, start, lat))
            verdicts.append(judge(workload, req, outcome, checker, out_path))
            if tracer is not None:
                tracer.request = req.index
                with tracer.installed():
                    traced, outcome = _timed(tracer.call, "request", issue, workload, req,
                                             tracer.call, out_path)
                traced_s += traced
                verdicts.append(judge(workload, req, outcome, checker, out_path))
            if workload.via_cli and req.kind == "inv" and os.path.exists(out_path):
                bytes_written += os.path.getsize(out_path)
            outcome = None
        speed.sample(force=True)
        for family in sorted({entry[1] for entry in workload.ladder}):
            checker.validate_cofactor(lambda n, rng: draw_matrix(family, n, rng), seed)

    latencies = {"inv": [], "det": []}
    for kind, start, lat in timings:
        latencies[kind].append(speed.scale(start, lat))
    busy = sum(latencies["inv"]) + sum(latencies["det"])
    raw_busy = sum(lat for _, _, lat in timings)
    failures = [v for v in verdicts if v is not None]
    report = {
        "workload": workload.name, "seed": seed,
        "attempted": len(verdicts), "timed_s": raw_busy, "kernel_s": speed.median_s(),
        "failures": failures, "correct": all(f.known for f in failures),
        "end_to_end": {
            "setup_s": statistics.median(speed.scale(*t) for t in setup_times),
            "invert_p50_ms": 1e3 * statistics.median(latencies["inv"]),
            "invert_tail_ms": tail([1e3 * x for x in latencies["inv"]]),
            "det_p50_ms": 1e3 * statistics.median(latencies["det"]),
            "det_tail_ms": tail([1e3 * x for x in latencies["det"]]),
            "model_ops_per_s": sum(r.model_ops for r in plan) / busy,
            "fail_share": len(failures) / len(verdicts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        layers.update({
            "scalars.max_entry_bits": checker.max_entry_bits,
            "io.bytes_written": bytes_written,
            "matrix.check_s": checker.matrix_s,
            "oracle.check_s": checker.oracle_s,
            "trace.overhead_share": traced_s / raw_busy - 1.0,
        })
        report["per_layer"] = layers
        report["unreached"] = tracer.unreached(required_calls(workload.via_cli))
        tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
    return report
