"""Benchmark for comrade-matrix.

    python3 perfbench/run.py --workload band-exact --seed 1 --seconds 15 --trace 0

Runs one workload (band-exact, band-float or cli-mixed; see
workloads.py) and prints one line per metric with its unit, then, as the
last line, a JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones of a traced run (see spans.py).
Run it from the root of a checkout: it imports the library from src/
and writes its scratch files and spans to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def metric_units(section: str) -> dict:
    """name -> unit of one metric list of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def import_library() -> None:
    """Put the checkout's src/ first on the path and import comrade."""
    src = ROOT / "src"
    if not (src / "comrade" / "__init__.py").is_file():
        raise SystemExit(f"error: no comrade sources under {src}")
    sys.path.insert(0, str(src))
    import comrade  # noqa: F401


def print_report(report, trace: bool) -> None:
    from spans import layer_of
    from speed import NOMINAL_S

    units = dict(metric_units("end_to_end"), fail_share="ratio")
    e2e = report["end_to_end"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"requests {report['attempted']}  timed {report['timed_s']:.2f} s  "
          f"(closed loop, 1 caller)")
    print(f"  speed kernel {1e3 * report['kernel_s']:.3f} ms (median), nominal "
          f"{1e3 * NOMINAL_S:.3f} ms: times below are scaled to the nominal speed")
    for name in units:
        value, extra = e2e[name], ""
        if isinstance(value, tuple):
            value, pct, count = value
            extra = f"  (p{pct:.1f} of {count} samples)"
        elif name == "fail_share":
            extra = f"  ({len(report['failures'])} of {report['attempted']})"
        print(f"  {name:<30} {value:>14.6g} {units[name]}{extra}")
    if trace:
        unmeasured = {layer_of(key) for key in report["unreached"]}
        for name, unit in metric_units("per_layer").items():
            mark = "  UNMEASURED" if name.split(".")[0] in unmeasured else ""
            print(f"  {name:<30} {report['per_layer'][name]:>14.6g} {unit}{mark}")
    failures = report["failures"]
    if failures:
        known = sum(f.known for f in failures)
        print(f"failures: {len(failures)}, of which {known} are float inverses above the "
              f"residual bound (the documented float instability)", file=sys.stderr)
        for f in failures[:5]:
            print(f"  {f.reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from harness import run
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    trace = bool(args.trace)
    # A traced run issues every request twice, untraced and then traced, so
    # it gets half the plan and takes about as long as an untraced run.
    plan_seconds = args.seconds / 2 if trace else args.seconds
    report = run(WORKLOADS[args.workload], args.seed, plan_seconds, trace,
                 ROOT / ".perfbench")
    print_report(report, trace)
    if trace and report["unreached"]:
        print("error: layers unmeasured, these wrapped functions recorded no calls: "
              + ", ".join(report["unreached"]), file=sys.stderr)
        return 3
    section, source = (("per_layer", report["per_layer"]) if trace
                       else ("end_to_end", report["end_to_end"]))
    metrics = {}
    for name, unit in metric_units(section).items():
        value = source[name]
        metrics[name] = {"value": value[0] if isinstance(value, tuple) else value, "unit": unit}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": len(report["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
