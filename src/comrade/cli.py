"""Command-line front end.

Exit codes: 0 success, 2 unreadable or invalid matrix file, 3 singular
matrix, 4 zero pivot (or zero divisor alpha) in a mode without symbolic
rescue, 6 non-finite float determinant or inverse entry (overflow or nan
from a tiny pivot) or an input entry beyond binary64 range, 1 a bad --n
or --sizes or an output file that cannot be written (each one line on
stderr) or an unexpected failure.  5, a pole at t = 0, is reserved: no
command reaches it, since ``invert`` refuses a singular input before it
reads any value at t = 0.

When --mode is not given, commands run EXACT first and retry once in
SYMBOLIC mode on a zero pivot/alpha, with a note on stderr; an explicit
--mode disables that fallback.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import nullcontext
from functools import cache

from .factorization import NonFiniteResultError, ZeroPivotError, determinant
from .inversion import invert
from .io import MatrixFormatError, dump_comrade, dump_dense, load_comrade
from .matrix import (DenseMatrix, SingularMatrixError, comrade_times_dense,
                     example33, random_comrade, to_dense)
from .oracle import dense_invert
from .scalars import PoleAtZeroError, ScalarMode, format_rational


class _BadArgument(Exception):
    """A --n or --sizes value that names no comrade matrix order."""


#: the errors ``main`` reports as ``error: ...``, with their exit codes,
#: which the module docstring explains; an OSError is an output file that
#: cannot be written (an unreadable input is a MatrixFormatError), a
#: _BadArgument a bad --n or --sizes
_EXIT_CODES = {MatrixFormatError: 2, SingularMatrixError: 3, ZeroPivotError: 4,
               PoleAtZeroError: 5, NonFiniteResultError: 6, OSError: 1, _BadArgument: 1}

#: n above which the exact oracle is skipped in `bench` (residual instead).
ORACLE_LIMIT = 200


def _solve(args, compute):
    """Load args.file as C and return (C, compute(C, mode)) under the mode
    policy: the explicit --mode, or EXACT with one SYMBOLIC retry."""
    C = load_comrade(args.file)
    if args.mode is not None:
        return C, compute(C, ScalarMode(args.mode))
    try:
        return C, compute(C, ScalarMode.EXACT)
    except ZeroPivotError as exc:
        print(f"note: {exc}", file=sys.stderr)
        return C, compute(C, ScalarMode.SYMBOLIC)


def _format_scalar(value) -> str:
    return repr(value) if isinstance(value, float) else format_rational(value)


def _cmd_det(args) -> None:
    _, det = _solve(args, determinant)
    print(_format_scalar(det))


def _cmd_inv(args) -> None:
    _, result = _solve(args, invert)
    dump_dense(result.inverse, args.output)
    print(f"determinant: {_format_scalar(result.determinant)}")
    if result.substitutions:
        log = ", ".join(f"{kind}[{index}]" for kind, index in result.substitutions)
    else:
        log = "none"
    print(f"substitutions: {log}")


def _residual(C, inverse):
    """||C S - I||_inf for an inverse S of C: exactly 0 on the exact paths."""
    return (comrade_times_dense(C, inverse) - DenseMatrix.identity(C.n)).inf_norm()


def _cmd_check(args) -> None:
    C, result = _solve(args, invert)
    print(_format_scalar(_residual(C, result.inverse)))


def _family(args, n: int):
    """The order-n matrix of the --family, --seed and --zero-pivot-bias
    arguments."""
    if args.family == "example33":
        return example33(n)
    return random_comrade(n, args.seed, args.zero_pivot_bias)


def _cmd_gen(args) -> None:
    if args.n < 3:
        raise _BadArgument(f"bad --n {args.n}: a comrade matrix needs n >= 3")
    dump_comrade(_family(args, args.n), args.output)


def _bench_epsilon(C, inverse):
    """Accuracy column: vs the exact oracle up to ORACLE_LIMIT, residual
    norm above it.  A Fraction minus a float is their binary64
    difference, so FLOAT inverses need no conversion."""
    if C.n <= ORACLE_LIMIT:
        return (dense_invert(to_dense(C)) - inverse).inf_norm()
    return _residual(C, inverse)


def _cmd_bench(args) -> None:
    mode = ScalarMode(args.mode)
    sizes = []
    for chunk in args.sizes.split(","):
        try:
            sizes.append(int(chunk))
        except ValueError:
            raise _BadArgument(f"bad --sizes entry {chunk!r}") from None
        if sizes[-1] < 3:
            raise _BadArgument(f"bad --sizes entry {chunk!r}: a comrade matrix needs n >= 3")
    rows = [["n", "mode", "op_count", "wall_time_seconds", "epsilon"]]
    for n in sizes:
        C = _family(args, n)
        start = time.perf_counter()
        result = invert(C, mode)
        wall = time.perf_counter() - start
        rows.append([n, mode.value, result.op_count, f"{wall:.6f}",
                     _format_scalar(_bench_epsilon(C, result.inverse))])
    with (open(args.output, "w", encoding="utf-8", newline="") if args.output
          else nullcontext(sys.stdout)) as out:
        csv.writer(out).writerows(rows)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="comrade",
        description="Determinants and inverses of comrade matrices "
                    "(tridiagonal plus a dense last row).")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, text in (
            ("det", _cmd_det, "print the determinant of a comrade matrix file"),
            ("inv", _cmd_inv, "write the inverse as a dense matrix file"),
            ("check", _cmd_check, "print the inf-norm of C*C^-1 - I "
                                  "(exactly 0 on the exact paths)")):
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        if name == "inv":
            p.add_argument("-o", "--output", required=True)
        p.add_argument("--mode", choices=[m.value for m in ScalarMode], default=None,
                       help="arithmetic mode (default: exact with one symbolic retry)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("gen", help="generate a matrix file from a built-in family")
    p.add_argument("--family", choices=["example33", "random"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-pivot-bias", type=float, default=0.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("bench", help="time inversions and write a CSV report")
    p.add_argument("--family", choices=["example33", "random"], required=True)
    p.add_argument("--sizes", required=True, help="comma-separated, e.g. 50,100,500")
    p.add_argument("--mode", choices=[m.value for m in ScalarMode], default="float",
                   help="arithmetic mode (default: float)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-pivot-bias", type=float, default=0.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    return 0


if __name__ == "__main__":
    sys.exit(main())
