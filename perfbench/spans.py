"""Spans around the calls into each layer of ``comrade``, for the traced run.

The tracer wraps public functions at the module attribute their caller
looks them up from, so the library itself is not changed.  Per-entry
functions such as ``ScalarMode.finalize`` are deliberately not wrapped:
a span per matrix entry would cost more than the work it measures.
Their time shows up as the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name); the span name is "<layer>.<function>".
WRAPPED = (
    ("comrade.inversion", "factorize", "factorization.factorize"),
    ("comrade.inversion", "last_two_columns", "inversion.last_two_columns"),
    ("comrade.inversion", "remaining_columns", "inversion.remaining_columns"),
    ("comrade.factorization", "factorize", "factorization.factorize"),
    ("comrade.scalars", "poly_gcd", "scalars.poly_gcd"),
    ("comrade.cli", "invert", "inversion.invert"),
    ("comrade.cli", "determinant", "factorization.determinant"),
    ("comrade.cli", "load_comrade", "io.load_comrade"),
    ("comrade.cli", "dump_dense", "io.dump_dense"),
)

_COMPUTE = ("inversion.invert", "factorization.determinant")


class Tracer:
    """In-memory span recorder for one thread.

    A span is [name, start, end, parent, request, error, note]: parent
    is the index of the enclosing span (-1 at the top), request the id
    of the request it belongs to, error the exception type name if the
    call raised, and note what ``note(result)`` returned."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self.calls = defaultdict(int)    # "module.attribute" -> wrapped calls

    def call(self, name, fn, *args, note=None, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.request, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if note is not None:
            rec[6] = note(result)
        return result

    def _wrapper(self, key, name, fn):
        note = inverse_note if name == "inversion.invert" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            return self.call(name, fn, *args, note=note, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Swap every WRAPPED attribute for a traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(f"{module_name}.{attr}", name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def unreached(self, required) -> list:
        """The required "module.attribute" keys whose wrapper saw no call."""
        return [key for key in required if self.calls[key] == 0]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec[:6]) + "\n")


def layer_of(key: str) -> str:
    """Layer of the spans a wrapped "module.attribute" records."""
    return next(name for m, a, name in WRAPPED if f"{m}.{a}" == key).split(".")[0]


def inverse_note(result):
    return result.op_count, len(result.substitutions)


def required_calls(via_cli: bool) -> tuple:
    """Wrapped attributes a workload must reach; the band workloads call
    invert/determinant directly and never build a RationalFunction."""
    keys = [f"{m}.{a}" for m, a, _ in WRAPPED]
    if via_cli:
        return tuple(keys)
    return tuple(k for k in keys if k.startswith(("comrade.inversion.",
                                                  "comrade.factorization.")))


def layer_metrics(spans) -> dict:
    """Per-layer sums over the spans of a traced run, in seconds and counts."""
    children, by_name = defaultdict(list), defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)
        if rec[3] >= 0:
            children[rec[3]].append(i)
    dur = lambda rec: rec[2] - rec[1]
    total = lambda name: sum(dur(spans[i]) for i in by_name[name])

    inv = by_name["inversion.invert"]
    inv_self = sum(dur(spans[i]) - sum(dur(spans[c]) for c in children[i]) for i in inv)
    notes = [spans[i][6] for i in inv if spans[i][6] is not None]
    factorize_outside_det = sum(
        dur(spans[i]) for i in by_name["factorization.factorize"]
        if spans[i][3] < 0 or spans[spans[i][3]][0] != "factorization.determinant")

    cli = by_name["cli.main"]
    attempts = [[c for c in children[i] if spans[c][0] in _COMPUTE] for i in cli]
    first_ok = sum(1 for a in attempts if a and spans[a[0]][5] is None)
    wasted = sum(dur(spans[c]) for a in attempts for c in a if spans[c][5] == "ZeroPivotError")
    return {
        "inversion.remaining_columns_s": total("inversion.remaining_columns"),
        "inversion.last_two_columns_s": total("inversion.last_two_columns"),
        "inversion.calls": len(inv),
        "inversion.busy_s": total("inversion.invert"),
        "inversion.self_s": inv_self,
        "inversion.op_count": sum(ops for ops, _ in notes),
        "inversion.substitutions": sum(subs for _, subs in notes),
        "factorization.busy_s": total("factorization.determinant") + factorize_outside_det,
        "factorization.calls": len(by_name["factorization.factorize"]),
        "scalars.poly_gcd_calls": len(by_name["scalars.poly_gcd"]),
        "scalars.poly_gcd_s": total("scalars.poly_gcd"),
        "io.load_s": total("io.load_comrade"),
        "io.dump_s": total("io.dump_dense"),
        "cli.calls": len(cli),
        "cli.busy_s": total("cli.main"),
        "cli.retries": sum(1 for a in attempts if len(a) > 1),
        "cli.first_try_ratio": first_ok / len(cli) if cli else 0.0,
        "cli.wasted_s": wasted,
    }
