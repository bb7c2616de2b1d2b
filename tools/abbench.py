"""Paired in-process A/B timing of two trees of the comrade package.

    python3 tools/abbench.py BASE HEAD [--label L]

Each side is a git revision of this checkout, extracted with
``git archive REV src/comrade`` into a temporary directory, so nothing
is written to the checkout, or a directory that holds ``comrade/``, such
as ``src``.  Both trees load into one process, each under its own
package name (``comrade_base`` and ``comrade_head``): the package
imports itself only relatively, so that is all it takes.  Every kernel
runs on inputs built once from perfbench's generators and shared by
both sides, each side calling its own functions with its own
``ScalarMode``.

Calls alternate between the two trees, and the order flips every one of
``ROUNDS`` rounds.  A side's time in a round is the min of ``REPEATS``
calls of the kernel, and the round's ratio is head/base.  For each
kernel the script prints the median ratio, its quartiles and the number
of rounds the head won.
With ``--label L`` it also writes ``BENCH_L.json`` to the current
directory: each side's per-round minimums, the ratios and their
summary, both revisions, the Python version and the machine.  Both
trees share one heap, one set of caches and one clock speed, so a ratio
is far steadier than the difference of two separate benchmark runs.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import comrade  # noqa: E402
import workloads  # noqa: E402
from checks import cofactor_det  # noqa: E402

ROUNDS = 15
REPEATS = 3


class Kernel(NamedTuple):
    name: str
    inputs: Callable    # () -> the shared ComradeMatrix list
    run: Callable       # (tree, that tree's matrices, files, fresh output path) -> None


def _band(n: int):
    return lambda: [workloads.band_matrix(n, random.Random(f"abbench:band:{n}"))]


def _rescues():
    """Nonsingular zero-alpha and zero-pivot rescue matrices, one of each
    at five sizes from n = 8 to 24."""
    rng, matrices = random.Random("abbench:rescue"), []
    for n in workloads.sizes(8, 24, 5):
        for zero_pivot in (False, True):
            C = workloads.rescue_matrix(n, rng, zero_pivot)
            while cofactor_det(C) == 0:
                C = workloads.rescue_matrix(n, rng, zero_pivot)
            matrices.append(C)
    return matrices


def _invert(mode: str):
    def run(tree, matrices, files, out):
        for C in matrices:
            tree.invert(C, tree.ScalarMode[mode])
    return run


def _determinant(mode: str):
    def run(tree, matrices, files, out):
        for C in matrices:
            tree.determinant(C, tree.ScalarMode[mode])
    return run


def _cli_inv(tree, matrices, files, out):
    """``comrade inv FILE -o OUT`` in process, to a fresh OUT each call."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        for path in files:
            if tree.cli.main(["inv", path, "-o", out]) != 0:
                raise RuntimeError(f"comrade inv {path} failed")


KERNELS = (
    Kernel("exact-invert-band-64", _band(64), _invert("EXACT")),
    Kernel("exact-invert-band-128", _band(128), _invert("EXACT")),
    Kernel("exact-invert-example33-160", lambda: [comrade.example33(160)], _invert("EXACT")),
    Kernel("exact-det-band-2000", _band(2000), _determinant("EXACT")),
    Kernel("symbolic-invert-rescue-8-24", _rescues, _invert("SYMBOLIC")),
    Kernel("float-invert-band-200", _band(200), _invert("FLOAT")),
    Kernel("cli-inv-band-128", _band(128), _cli_inv),
)


class Side(NamedTuple):
    name: str           # "base" or "head"
    spec: str           # as given on the command line
    revision: str | None
    tree: object        # the loaded package


def load_tree(name: str, directory: Path):
    """Import ``directory/comrade`` as the package ``name``."""
    package = directory / "comrade"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def load_side(name: str, spec: str, scratch: Path) -> Side:
    """The side ``spec``: a directory holding ``comrade/``, else a
    revision, extracted under scratch."""
    directory = Path(spec)
    if (directory / "comrade" / "__init__.py").is_file():
        return Side(name, spec, None, load_tree(f"comrade_{name}", directory))
    git = ["git", "-C", str(ROOT)]
    revision = subprocess.run([*git, "rev-parse", "--verify", f"{spec}^{{commit}}"],
                              check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run([*git, "archive", revision, "src/comrade"],
                             check=True, capture_output=True).stdout
    into = scratch / name
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return Side(name, spec, revision, load_tree(f"comrade_{name}", into / "src"))


def compare(sides, kernels, rounds: int, scratch: Path) -> dict:
    """Per kernel: each side's per-round min of ``REPEATS`` timed calls,
    the head/base ratios and their median, quartiles and head wins."""
    out = scratch / "out.json"

    def call(kernel, side):
        """The time of one call; the file it wrote is removed untimed, so
        that the next call writes a fresh one."""
        start = time.perf_counter()
        kernel.run(side.tree, *prepared[kernel, side.name], str(out))
        elapsed = time.perf_counter() - start
        out.unlink(missing_ok=True)
        return elapsed

    prepared = {}
    for kernel in kernels:
        shared = kernel.inputs()
        files = [str(scratch / f"{kernel.name}-{k}.json") for k in range(len(shared))]
        for C, path in zip(shared, files):
            comrade.dump_comrade(C, path)
        for side in sides:
            prepared[kernel, side.name] = (
                [side.tree.ComradeMatrix(C.n, C.beta, C.alpha, C.gamma, C.a) for C in shared],
                files)
            call(kernel, side)                          # warm up, untimed
    best = {key: [] for key in prepared}
    for r in range(rounds):
        order = sides if r % 2 == 0 else sides[::-1]
        for kernel in kernels:
            times = [(side.name, call(kernel, side)) for _ in range(REPEATS) for side in order]
            for side in sides:
                best[kernel, side.name].append(min(t for name, t in times if name == side.name))
    summary = {}
    for kernel in kernels:
        base, head = best[kernel, "base"], best[kernel, "head"]
        ratios = [h / b for h, b in zip(head, base)]
        q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                          else ratios * 3)
        summary[kernel.name] = {"base_s": base, "head_s": head, "ratios": ratios,
                                "median": median, "q1": q1, "q3": q3,
                                "head_wins": sum(h < b for h, b in zip(head, base))}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="revision, or directory holding comrade/")
    parser.add_argument("head", help="revision, or directory holding comrade/")
    parser.add_argument("--label", help="also write BENCH_LABEL.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="abbench-") as scratch:
        scratch = Path(scratch)
        sides = (load_side("base", args.base, scratch), load_side("head", args.head, scratch))
        summary = compare(sides, KERNELS, ROUNDS, scratch)
    print(f"{args.base} -> {args.head}: {ROUNDS} rounds, min of {REPEATS}")
    print(f"{'kernel':<28} {'base ms':>9} {'head ms':>9} {'head/base':>9} "
          f"{'q1':>6} {'q3':>6}  wins")
    for name, s in summary.items():
        print(f"{name:<28} {1e3 * statistics.median(s['base_s']):>9.3f} "
              f"{1e3 * statistics.median(s['head_s']):>9.3f} {s['median']:>9.3f} "
              f"{s['q1']:>6.3f} {s['q3']:>6.3f}  {s['head_wins']}/{ROUNDS}")
    if args.label:
        record = {
            "label": args.label,
            **{side.name: {"spec": side.spec, "revision": side.revision} for side in sides},
            "rounds": ROUNDS, "repeats": REPEATS,
            "python": platform.python_version(),
            "machine": {"platform": platform.platform(), "machine": platform.machine(),
                        "cpus": os.cpu_count()},
            "kernels": summary,
        }
        Path(f"BENCH_{args.label}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
