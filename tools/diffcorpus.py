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
den.  The ``cli:`` records run ``comrade.cli.main`` in process on a few
generated, fixture, perfbench band and malformed files, each command in
each mode, and give its exit code, stdout, stderr and the file it wrote
(``bench`` rows without the wall-time column), with the scratch
directory's path replaced by ``<tmp>``.  The ``scalars:`` records call
``poly_gcd`` and the RationalFunction sum, product and quotient on
seeded polynomials with planted common factors and coefficients up to
2^200, and give canonical coefficient tuples.  Printed last, after
every other record, are the ``scalars:`` records of the same
polynomials' str, monic, divmod and value at -3/7, and of the rational
functions' str and value at t = 0.  The script is not a test module;
pytest does not collect it.

The records are pinned by ``diffcorpus.digest`` next to this script: one
line per record name (the first tab field) with the number of its
records and the sha256 of their lines.  ``--check`` runs the corpus,
names every group that differs from the digest and exits 1;
``--update`` rewrites the digest, for a change that alters records on
purpose and names the groups it altered.  ``tests/test_diffcorpus.py`` checks a
stride of the inputs and all ``cli:`` and ``scalars:`` groups against it.
The ``cli:`` records hold argparse's text in the layout of CPython 3.11,
so one digest holds on 3.10 to 3.13.  ``argparse_311`` maps the two
layouts later versions print back to it: 3.13 writes an option with a
short and a long flag as ``-o, --output OUTPUT``, where 3.11 writes
``-o OUTPUT, --output OUTPUT``, and 3.13.13 lists invalid-choice
alternatives unquoted, ``(choose from exact, symbolic, float)``, where
3.11 quotes each one.  Both rules keep every flag, metavar and choice
name as printed, so a changed option, help string or choice still
changes its record.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import operator
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "tests"), str(_ROOT / "perfbench")]

import comrade  # noqa: E402
import support  # noqa: E402
import workloads  # noqa: E402
from comrade import (OpCounter, Polynomial, RationalFunction,  # noqa: E402
                     ScalarMode, Substitution, determinant, factorize, invert,
                     last_two_columns, poly_gcd, remaining_columns)
from comrade import cli  # noqa: E402
from comrade.inversion import lu_columns  # noqa: E402


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


def records(name, C, mode):
    line = lambda entry, value: print(f"{name}\t{mode.value}\t{entry}\t{value!r}")
    try:
        line("invert", rec(invert(C, mode)))
    except (ArithmeticError, ValueError) as exc:
        line("invert", (type(exc).__name__, str(exc)))
    line("determinant", call(determinant, C, mode))
    ops = OpCounter()
    try:
        F = factorize(C, mode, ops)
    except ArithmeticError as exc:
        line("factorize", ((type(exc).__name__, str(exc)), ops.count))
        return
    line("factorize", (rec((F.mu, F.x, F.substitutions)), ops.count))
    columns = call(last_two_columns, F)
    line("last_two_columns", columns)
    if mode is not ScalarMode.FLOAT and isinstance(columns[0][0], tuple):
        for finalize in (False, True):
            line(f"remaining_columns finalize={finalize}",
                 call(remaining_columns, F, finalize=finalize))
    if mode is not ScalarMode.SYMBOLIC or C.n <= 8:
        line("lu_columns", call(lu_columns, F))


def argparse_311(text):
    """text with argparse's later layouts put back in that of CPython
    3.11: the metavar repeated after a short flag that shares it with a
    long one, and invalid-choice alternatives quoted."""
    text = re.sub(r"(-\w), (--[\w-]+) ([A-Z_]+)\b", r"\1 \3, \2 \3", text)
    return re.sub(r"\(choose from ([^')][^)]*)\)",
                  lambda m: f"(choose from {', '.join(map(repr, m[1].split(', ')))})",
                  text)


def cli_call(tmp, argv, out=None):
    """(exit code, stdout, stderr, text of ``out`` or None) of the command
    line argv run in process, in argparse's 3.11 layout; ``out`` is
    removed afterwards."""
    stdout, stderr = StringIO(), StringIO()
    # argparse wraps help to the terminal: pin the width it gets off one
    with redirect_stdout(stdout), redirect_stderr(stderr), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:                # an unexpected failure
            code = (type(exc).__name__, str(exc))
    written = None
    if out is not None and out.exists():
        written = out.read_text()
        out.unlink()
    return tuple(argparse_311(v.replace(str(tmp), "<tmp>")) if isinstance(v, str) else v
                 for v in (code, stdout.getvalue(), stderr.getvalue(), written))


def cli_files(tmp):
    """(name, path, record) of the matrix files the ``cli:`` records
    read: the record of the ``gen`` call that wrote the file, or None."""
    generated = [("example33:5", ["--family", "example33", "--n", "5"]),
                 ("example33:40", ["--family", "example33", "--n", "40"]),
                 ("random:6:1", ["--family", "random", "--n", "6", "--seed", "1"]),
                 ("random:5:2", ["--family", "random", "--n", "5", "--seed", "2"]),
                 ("random:8:3:1.0", ["--family", "random", "--n", "8", "--seed", "3",
                                     "--zero-pivot-bias", "1.0"])]
    for name, argv in generated:
        path = tmp / f"{name.replace(':', '_')}.json"
        record = cli_call(tmp, ["gen", *argv, "-o", str(path)], path)
        path.write_text(record[3] or "")
        yield name, path, record
    for path in sorted((_ROOT / "tests" / "fixtures").glob("*.json")):
        yield f"fixture:{path.stem}", path, None
    for name in ("TINY_PIVOT3", "HUGE_DIAGONAL3", "UNDERFLOW3"):
        path = tmp / f"{name}.json"
        comrade.dump_comrade(getattr(support, name), path)
        yield f"support:{name}", path, None
    # a perfbench band: big entries with many distinct denominators
    path = tmp / "band_64.json"
    comrade.dump_comrade(workloads.band_matrix(64, random.Random("corpus:cli:64")), path)
    yield "band:64", path, None
    entries = '"beta": ["1", "1", "1"], "gamma": ["1", "1"], "a": ["1"]'
    malformed = [("not-json", "{"), ("n-2", '{"n": 2}'),
                 ("short-alpha", '{"n": 3, "alpha": ["1"], %s}' % entries),
                 ("decimal", '{"n": 3, "alpha": ["1", "1.5"], %s}' % entries),
                 ("non-ascii", '{"n": 3, "alpha": ["1", "\\u0663"], %s}' % entries),
                 ("unicode-space", '{"n": 3, "alpha": ["1", "\\u30001"], %s}' % entries),
                 ("repeated-bad", '{"n": 3, "alpha": ["x", "x"], %s}' % entries),
                 ("list-entry", '{"n": 3, "alpha": ["1", [1]], %s}' % entries),
                 ("object-entry", '{"n": 3, "alpha": ["1", {"p": 1}], %s}' % entries),
                 ("null-entry", '{"n": 3, "alpha": ["1", null], %s}' % entries)]
    for name, text in malformed:
        path = tmp / f"{name}.json"
        path.write_text(text)
        yield f"malformed:{name}", path, None
    yield "missing", tmp / "missing.json", None


def cli_records(tmp):
    """The ``cli:`` records, with tmp as the scratch directory."""
    line = lambda name, mode, command, value: print(f"cli:{name}\t{mode}\t{command}\t{value!r}")
    out = tmp / "out"
    settings = [("default", [])] + [(m.value, ["--mode", m.value]) for m in ScalarMode]
    for name, path, gen_record in cli_files(tmp):
        if gen_record is not None:
            line(name, "-", "gen", gen_record)
        for mode, mode_argv in settings:
            line(name, mode, "det", cli_call(tmp, ["det", str(path), *mode_argv]))
            line(name, mode, "inv", cli_call(tmp, ["inv", str(path), "-o", str(out),
                                                   *mode_argv], out))
            line(name, mode, "check", cli_call(tmp, ["check", str(path), *mode_argv]))
    for name, argv in [("help", ["--help"]), ("help", ["det", "--help"]),
                       ("help", ["bench", "--help"]), ("no-command", []),
                       ("bad-mode", ["det", "x.json", "--mode", "decimal"]),
                       ("n-2", ["gen", "--family", "random", "--n", "2", "-o", str(out)]),
                       ("bad-sizes", ["bench", "--family", "random", "--sizes", "4,x"]),
                       ("sizes-2", ["bench", "--family", "random", "--sizes", "4,2"])]:
        line(name, "-", " ".join(argv[:2]), cli_call(tmp, argv, out))
    families = [("example33", ["--family", "example33", "--sizes", "3,5,12"]),
                ("random", ["--family", "random", "--sizes", "4,6"]),
                ("random:1.0", ["--family", "random", "--sizes", "5,7", "--seed", "3",
                                "--zero-pivot-bias", "1.0"])]
    oracle_limit = cli.ORACLE_LIMIT
    for limit in (oracle_limit, 4):
        cli.ORACLE_LIMIT = limit                # 4: the residual branch above n = 4
        try:
            for name, argv in families:
                for mode, mode_argv in settings:
                    code, stdout, stderr, text = cli_call(
                        tmp, ["bench", *argv, *mode_argv, "-o", str(out)], out)
                    rows = [row[:3] + row[4:] for row in csv.reader(StringIO(text or ""))]
                    line(f"{name}:limit={limit}", mode, "bench", (code, stdout, stderr, rows))
        finally:
            cli.ORACLE_LIMIT = oracle_limit


def scalar_inputs():
    """(name, a, b, f, k) for each seed: two polynomials a and b of
    degree <= 5, either of which may be zero, with a common factor g of
    degree 0-3, and the rational functions f = a / (g d1) and
    k = b / (g d2)."""
    def poly(rng, degree, span):
        # degree -1 is the zero polynomial; otherwise the leading term is nonzero
        lead = [rng.choice((-1, 1)) * rng.randint(1, span)] if degree >= 0 else []
        cs = [rng.randint(-span, span) for _ in range(degree)] + lead
        return Polynomial([Fraction(c, rng.randint(1, 9)) for c in cs])

    for bits in (2, 67, 200):
        for seed in range(100):
            name = f"scalars:{bits}:{seed}"
            rng = random.Random(name)
            span = 1 << bits
            g = poly(rng, rng.randint(0, 3), span)
            a, b, d1, d2 = (g * poly(rng, rng.randint(low, 5 - g.degree), span)
                            for low in (-1, -1, 0, 0))
            yield name, a, b, RationalFunction(a, d1), RationalFunction(b, d2)


def outcome(fn, *args):
    try:
        return rec(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def scalar_line(name, entry, value):
    print(f"{name}\t-\t{entry}\t{value!r}")


def scalar_records():
    """The ``scalars:`` records of ``poly_gcd`` and the rational
    functions' sum, product and quotient."""
    for name, a, b, f, k in scalar_inputs():
        scalar_line(name, "poly_gcd", outcome(lambda p, q: poly_gcd(p, q).coeffs, a, b))
        scalar_line(name, "rf", rec((f, k)))
        for op in (operator.add, operator.mul, operator.truediv):
            scalar_line(name, f"rf {op.__name__}", outcome(op, f, k))


#: the point at which the ``scalars:`` polynomials are evaluated
_POINT = Fraction(-3, 7)


def scalar_form_records():
    """The ``scalars:`` records of the polynomials' and the rational
    functions' own forms: str, monic and value at -3/7 of a and b, their
    divmod, and str and value at t = 0 of f and k."""
    for name, a, b, f, k in scalar_inputs():
        for label, p in (("a", a), ("b", b)):
            scalar_line(name, f"{label} str", str(p))
            scalar_line(name, f"{label} monic", rec(p.monic().coeffs))
            scalar_line(name, f"{label}({_POINT})", rec(p(_POINT)))
        scalar_line(name, "divmod", outcome(lambda p, q: [r.coeffs for r in divmod(p, q)], a, b))
        for label, r in (("f", f), ("k", k)):
            scalar_line(name, f"{label} str", str(r))
            scalar_line(name, f"{label} at_zero", outcome(r.at_zero))


#: the committed digest of the records
DIGEST = _ROOT / "tools" / "diffcorpus.digest"


class Digest:
    """A text stream that keeps, for each record name (the first tab
    field of a line), the number of its lines and the sha256 of them in
    the order written."""

    def __init__(self):
        self._groups = {}
        self._partial = ""

    def write(self, text):
        *lines, self._partial = (self._partial + text).split("\n")
        for line in lines:
            group = self._groups.setdefault(line.partition("\t")[0], [0, hashlib.sha256()])
            group[0] += 1
            group[1].update(f"{line}\n".encode())
        return len(text)

    def entries(self):
        """{name: (record count, sha256 hex digest)}, in first-written order."""
        return {name: (count, h.hexdigest()) for name, (count, h) in self._groups.items()}


def read_digest():
    """The committed digest, in the form of ``Digest.entries``."""
    entries = {}
    for line in DIGEST.read_text().splitlines():
        name, count, sha = line.split("\t")
        entries[name] = (int(count), sha)
    return entries


def corpus():
    """Print every record."""
    count = 0
    for name, C in inputs():
        count += 1
        for mode in ScalarMode:
            records(name, C, mode)
    with tempfile.TemporaryDirectory() as tmp:
        cli_records(Path(tmp))
    scalar_records()
    scalar_form_records()
    print(f"# {count} inputs, the cli and the scalars records", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print the differential corpus, "
                                     f"or compare it with {DIGEST.name}.")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--check", action="store_true",
                        help="name every record group that differs from the digest")
    action.add_argument("--update", action="store_true", help="rewrite the digest")
    args = parser.parse_args(argv)
    if not (args.check or args.update):
        corpus()
        return 0
    digest = Digest()
    with redirect_stdout(digest):
        corpus()
    got = digest.entries()
    if args.update:
        DIGEST.write_text("".join(f"{name}\t{count}\t{sha}\n"
                                  for name, (count, sha) in got.items()))
        return 0
    want = read_digest()
    differ = [name for name in {**want, **got} if got.get(name) != want.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"# {len(differ)} of {len(want)} digest groups differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
