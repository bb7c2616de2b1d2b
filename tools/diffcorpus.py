"""Differential corpus: one ``repr`` record per (input, mode, entry point).

Runs the ``comrade`` package found on the import path over a fixed set of
seeded inputs and prints one line per call: the input's name, the mode,
the entry point and the result, or the exception and the op tally at the
raise.  Two trees are compared by diffing their outputs:

    PYTHONPATH=old/src python3 tools/diffcorpus.py > old.txt
    PYTHONPATH=new/src python3 tools/diffcorpus.py > new.txt
    diff old.txt new.txt

The inputs come from this checkout's ``tests/support.py`` and the
generators of ``perfbench/workloads.py``, so both runs see the same
matrices.  Fractions print as p/q, floats as their hex bit patterns and
RationalFunctions as the coefficient tuples of their canonical num and
den.  The script is not a test module; pytest does not collect it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "tests"), str(_ROOT / "perfbench")]

import comrade  # noqa: E402
import support  # noqa: E402
import workloads  # noqa: E402
from comrade import (OpCounter, RationalFunction, ScalarMode,  # noqa: E402
                     Substitution, determinant, factorize, invert,
                     last_two_columns, remaining_columns)
from comrade.factorization import bumped_beta  # noqa: E402
from comrade.inversion import lu_columns  # noqa: E402

_T = RationalFunction.t()


def inputs():
    """(name, matrix) pairs, over 900 of them."""
    for n in range(3, 15):
        for pattern in support.ZERO_PATTERNS:
            for seed in range(5):
                yield f"zeros:{n}:{pattern}:{seed}", support.zero_patterned_comrade(n, pattern, seed)
    for n in range(3, 13):
        for bias in (0.0, 0.5, 1.0):
            for seed in range(8):
                yield f"random:{n}:{bias}:{seed}", comrade.random_comrade(n, seed, bias)
    for n in (*range(3, 13), 20, 33):
        yield f"example33:{n}", comrade.example33(n)
    for n in (4, 6, 9, 14, 24, 40):
        for seed in range(16):
            yield f"band:{n}:{seed}", workloads.band_matrix(n, random.Random(f"corpus:{n}:{seed}"))
    for zero_pivot in (True, False):
        for n in (4, 6, 8, 12, 16, 24):
            for seed in range(16):
                rng = random.Random(f"corpus:{zero_pivot}:{n}:{seed}")
                yield f"rescue:{zero_pivot}:{n}:{seed}", workloads.rescue_matrix(n, rng, zero_pivot)
    for name, value in vars(support).items():
        if isinstance(value, comrade.ComradeMatrix):
            yield f"support:{name}", value


def rec(v):
    """A canonical, comparable form of a result."""
    if isinstance(v, (list, tuple)):
        return tuple(map(rec, v))
    if isinstance(v, Substitution):
        return (v.kind, v.index)
    if isinstance(v, RationalFunction):
        return ("rf", rec(v.num.coeffs), rec(v.den.coeffs))
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, comrade.InverseResult):
        return rec((v.inverse.rows, v.determinant, v.substitutions, v.op_count))
    return repr(v)


def call(fn, *args, **kwargs):
    """(result, tally) of fn(*args, ops, **kwargs), or the exception and
    the tally at the raise."""
    ops = OpCounter()
    try:
        return rec(fn(*args, ops, **kwargs)), ops.count
    except (ArithmeticError, AssertionError) as exc:
        return (type(exc).__name__, str(exc)), ops.count


def symbolic_work(C):
    """C with each zero alpha_1 .. alpha_{n-2} replaced by t, as ``invert``
    builds it in SYMBOLIC mode."""
    alpha = tuple(_T if j0 < C.n - 2 and v == 0 else v for j0, v in enumerate(C.alpha))
    return replace(C, alpha=alpha)


def records(name, C, mode):
    line = lambda entry, value: print(f"{name}\t{mode.value}\t{entry}\t{value!r}")
    try:
        line("invert", rec(invert(C, mode)))
    except (ArithmeticError, ValueError) as exc:
        line("invert", (type(exc).__name__, str(exc)))
    line("determinant", call(determinant, C, mode))
    work = symbolic_work(C) if mode is ScalarMode.SYMBOLIC else C
    ops = OpCounter()
    try:
        F = factorize(work, mode, ops)
    except ArithmeticError as exc:
        line("factorize", ((type(exc).__name__, str(exc)), ops.count))
        return
    line("factorize", (rec((F.mu, F.x, F.substitutions)), ops.count))
    works = [("", work)]
    if F.substitutions:
        works.append(("bumped ", replace(work, beta=bumped_beta(F, work))))
    for label, M in works:
        columns = call(last_two_columns, F, M)
        line(f"{label}last_two_columns", columns)
        if mode is ScalarMode.FLOAT or not isinstance(columns[0][0], tuple):
            continue
        col_n, col_n1 = last_two_columns(F, M)
        for finalize in (False, True):
            line(f"{label}remaining_columns finalize={finalize}",
                 call(remaining_columns, col_n, col_n1, M, mode, finalize=finalize))
    if mode is not ScalarMode.SYMBOLIC or C.n <= 8:
        line("lu_columns", call(lu_columns, F, work))


def main():
    count = 0
    for name, C in inputs():
        count += 1
        for mode in ScalarMode:
            records(name, C, mode)
    print(f"# {count} inputs", file=sys.stderr)


if __name__ == "__main__":
    main()
