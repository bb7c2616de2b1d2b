"""JSON matrix files.

Comrade form:  {"n": 4, "beta": [...], "alpha": [...], "gamma": [...], "a": [...]}
Dense form:    {"n": 4, "rows": [["p/q", ...], ...]}

Every entry is a rational string, "p" or "p/q" (ASCII, optional sign).
FLOAT-mode results are written as the exact rational value of each
binary64, so a dense file round-trips losslessly no matter which mode
produced it.  All validation failures raise MatrixFormatError with a
diagnostic naming the offending field and index.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .matrix import ComradeMatrix, DenseMatrix
from .scalars import format_rational, parse_rational

_COMRADE_FIELDS = ("beta", "alpha", "gamma", "a")


class MatrixFormatError(ValueError):
    """A matrix file could not be read: syntax, schema, or entry problem."""


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: not valid JSON ({exc})") from exc
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


def _rationals(values: list, where: str) -> tuple:
    """The rational strings of one list or row, parsed; ``where`` names
    the list in a diagnostic, e.g. "m.json: beta" or "m.json: rows[2]"."""
    out = []
    for i, v in enumerate(values):
        if not isinstance(v, str):
            raise MatrixFormatError(f"{where}[{i}]: expected a rational string")
        try:
            out.append(parse_rational(v))
        except ValueError as exc:
            raise MatrixFormatError(f"{where}[{i}]: {exc}") from exc
    return tuple(out)


def _rational_list(data, field: str, want: int, path) -> tuple:
    values = data.get(field)
    if not isinstance(values, list):
        raise MatrixFormatError(f"{path}: field {field!r} must be a list")
    if len(values) != want:
        raise MatrixFormatError(
            f"{path}: field {field!r} must have {want} entries, got {len(values)}")
    return _rationals(values, f"{path}: {field}")


def load_comrade(path) -> ComradeMatrix:
    """Read a comrade-form matrix file."""
    data = _load_json(path)
    n = _order(data, path)
    lengths = {"beta": n, "alpha": n - 1, "gamma": n - 1, "a": n - 2}
    return ComradeMatrix(n, *(_rational_list(data, f, lengths[f], path)
                              for f in _COMRADE_FIELDS))


def dump_comrade(C: ComradeMatrix, path) -> None:
    """Write a comrade-form matrix file."""
    data = {"n": C.n}
    for field in _COMRADE_FIELDS:
        data[field] = [format_rational(v) for v in getattr(C, field)]
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


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
        out.append(_rationals(row, f"{path}: rows[{i}]"))
    return DenseMatrix(n, tuple(out))


def dump_dense(M: DenseMatrix, path) -> None:
    """Write a dense matrix file; float entries become their exact rationals."""
    rows = [[format_rational(v if isinstance(v, Fraction) else Fraction(v)) for v in row]
            for row in M.rows]
    Path(path).write_text(json.dumps({"n": M.n, "rows": rows}, indent=2) + "\n")
