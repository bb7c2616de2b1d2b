"""JSON matrix files.

Comrade form:  {"n": 4, "beta": [...], "alpha": [...], "gamma": [...], "a": [...]}
Dense form:    {"n": 4, "rows": [["p/q", ...], ...]}

Every entry is a rational string, "p" or "p/q" (ASCII, optional sign),
read and written with any number of digits.  Each distinct string of a
comrade file, or of a dense row, is parsed once and its repeats share
the Fraction: the entries of a comrade matrix often repeat, across its
four lists too, as the coefficients of a three-term recurrence or a
band drawn from a few values do.  Float entries, as FLOAT mode makes
them, are written as the exact rational value of each binary64, so a
dense or comrade file round-trips losslessly whichever mode produced
it; a nan or infinite entry has no rational value, so both writers
raise ValueError for it and write no file.  All validation failures
raise MatrixFormatError with a diagnostic naming the offending field
and the first offending index.

The written bytes are those of ``json.dumps(data, indent=2) + "\n"``:
two-space indentation and one entry per line, the stable byte format.
They are written without the JSON encoder, whose indenting form is pure
Python: an ASCII rational string needs no escaping, so each list of
entries is joined directly (``_strings``).  A comrade file's text is
O(n), and ``dump_comrade`` writes it at once.  ``dump_dense`` writes the
rows one at a time, formatting each only when the row before it is
written, so it holds one row's text, not the O(n^2) of the file; it
checks the float entries for a nan or an infinity before it opens the
file.  Both writers read p/q off each entry with ``as_integer_ratio``
through one formatter, which converts each distinct denominator to a
string once per call.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .matrix import ComradeMatrix, DenseMatrix
from .scalars import format_rational, parse_rational

_COMRADE_FIELDS = ("beta", "alpha", "gamma", "a")
#: Entry types that always have a rational value
_EXACT_TYPES = frozenset((Fraction, int, bool))


class MatrixFormatError(ValueError):
    """A matrix file could not be read: syntax, schema, or entry problem."""


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an int past the int/str digit limit
        raise MatrixFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise MatrixFormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise MatrixFormatError(f"{path}: expected a JSON object")
    return data


def _order(data, path) -> int:
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise MatrixFormatError(f"{path}: field 'n' must be an integer")
    if n < 3:
        raise MatrixFormatError(f"{path}: order n must be >= 3, got {n}")
    return n


def _rationals(values: list, where: str, parsed: dict) -> tuple:
    """The rational strings of one list or row as Fractions; ``where``
    names the list in a diagnostic, e.g. "m.json: beta" or "m.json:
    rows[2]".  One in-order pass checks each entry and parses each string
    not yet in ``parsed``, the string -> Fraction table it shares with the
    lists read before it, so repeats share one Fraction; the first entry
    that is not a string or not a rational literal is named at its index."""
    for i, v in enumerate(values):
        if type(v) is not str:
            raise MatrixFormatError(f"{where}[{i}]: expected a rational string")
        if v not in parsed:
            try:
                parsed[v] = parse_rational(v)
            except ValueError as exc:
                raise MatrixFormatError(f"{where}[{i}]: {exc}") from exc
    return tuple(map(parsed.__getitem__, values))


def _rational_list(data, field: str, want: int, path, parsed: dict) -> tuple:
    values = data.get(field)
    if not isinstance(values, list):
        raise MatrixFormatError(f"{path}: field {field!r} must be a list")
    if len(values) != want:
        raise MatrixFormatError(
            f"{path}: field {field!r} must have {want} entries, got {len(values)}")
    return _rationals(values, f"{path}: {field}", parsed)


def load_comrade(path) -> ComradeMatrix:
    """Read a comrade-form matrix file; its four lists share one
    string -> Fraction table."""
    data = _load_json(path)
    n = _order(data, path)
    parsed = {}
    return ComradeMatrix(n, *(_rational_list(data, f, want, path, parsed)
                              for f, want in zip(_COMRADE_FIELDS, (n, n - 1, n - 1, n - 2))))


def _strings(values: list, indent: str) -> str:
    """The list of ASCII rational strings ``values``, never empty, as
    ``json.dumps(indent=2)`` lays it out at the depth of ``indent``: one
    entry a line, joined directly, since no entry needs escaping."""
    return f'[\n{indent}  "' + f'",\n{indent}  "'.join(values) + f'"\n{indent}]'


def dump_comrade(C: ComradeMatrix, path) -> None:
    """Write a comrade-form matrix file; float entries become their exact rationals."""
    text = _Text({1: ""})
    fields = "".join(f',\n  "{f}": {_strings(text(getattr(C, f)), "  ")}' for f in _COMRADE_FIELDS)
    Path(path).write_text(f'{{\n  "n": {C.n}{fields}\n}}\n', encoding="utf-8")


def load_dense(path) -> DenseMatrix:
    """Read a dense matrix file."""
    data = _load_json(path)
    n = _order(data, path)
    rows = data.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixFormatError(f"{path}: field 'rows' must be a list of {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"{path}: rows[{i}] must be a list of {n} entries")
        out.append(_rationals(row, f"{path}: rows[{i}]", {}))
    return DenseMatrix(n, tuple(out))


class _Text(dict):
    """Denominator q -> "/q", made on first use, with 1 -> "".  Called on
    a list of Fractions, ints, bools or floats, it gives their rational
    strings f"{p}{self[q]}", p/q = ``v.as_integer_ratio()``."""

    def __missing__(self, q):
        self[q] = suffix = f"/{q}"
        return suffix

    def __call__(self, values) -> list:
        try:
            try:
                return [f"{p}{self[q]}" for p, q in (v.as_integer_ratio() for v in values)]
            except ValueError:  # an int past the int/str digit limit, or a nan (raises again)
                return [format_rational(Fraction(v)) for v in values]
        except OverflowError as exc:    # an inf has no rational value either
            raise ValueError(exc) from None


def dump_dense(M: DenseMatrix, path) -> None:
    """Write a dense matrix file, formatting one row at a time; float
    entries become their exact rationals.  The floats are checked first,
    so a nan or infinite entry in any row raises ValueError before the
    file is opened."""
    for i, row in enumerate(M.rows, 1):
        if not _EXACT_TYPES.issuperset(map(type, row)):
            for j, v in enumerate(row, 1):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"entry ({i}, {j}) is {v!r}, which has no rational value")
    text = _Text({1: ""})
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(f'{{\n  "n": {M.n},\n  "rows": [')
        for i, row in enumerate(M.rows):
            out.write(f'{"," if i else ""}\n    {_strings(text(row), "    ")}')
        out.write("\n  ]\n}\n" if M.rows else "]\n}\n")
