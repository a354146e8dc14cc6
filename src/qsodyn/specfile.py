"""Operator spec files: sparse JSON coefficient lists, or a selector of the
paper's two-state family (p[1,1,1] = a free, state 2 absorbing), whose
coefficients are written out here. Keys other than ``n``, ``coefficients``
and ``va``, such as a ``metadata`` block, are ignored."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .operator import QsoOperator, make_operator, tensor_from_entries


class SpecFileError(ValueError):
    """Spec file is unreadable or structurally invalid."""


@dataclass(frozen=True)
class OperatorSpec:
    n: int
    coefficients: Optional[dict] = None  # {(i, j, k): p} with i <= j
    va: Optional[float] = None

    def build(self, symmetrize: bool = False) -> QsoOperator:
        entries = self.coefficients
        if self.va is not None:
            a = check_weight(self.va)
            entries = {(1, 1, 1): a, (1, 1, 2): 1.0 - a, (1, 2, 2): 1.0, (2, 2, 2): 1.0}
        return make_operator(tensor_from_entries(self.n, entries), symmetrize=symmetrize)


def check_weight(a: float) -> float:
    """The family's weight a, which must lie in [0, 1]."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    return a


def _as_float(value, message: str) -> float:
    """A JSON number as a double: never a boolean or a string, and within the
    double range (JSON integers are unbounded)."""
    if type(value) not in (int, float):
        raise SpecFileError(message)
    try:
        return float(value)
    except OverflowError as exc:
        raise SpecFileError(f"{message}: {exc}") from exc


def parse_spec(data: dict, source: str = "<memory>") -> OperatorSpec:
    if not isinstance(data, dict):
        raise SpecFileError(f"{source}: top level must be an object")
    va = data.get("va")
    coeffs = data.get("coefficients")
    if (va is None) == (coeffs is None):
        raise SpecFileError(f"{source}: exactly one of 'va' or 'coefficients' required")
    if va is not None:
        a = va.get("a") if isinstance(va, dict) else None
        a = _as_float(a, f"{source}: 'va' needs a numeric field 'a'")
        return OperatorSpec(n=2, va=a)
    n = data.get("n")
    if not isinstance(n, int) or n < 2:
        raise SpecFileError(f"{source}: 'n' must be an integer >= 2")
    if not isinstance(coeffs, list):
        raise SpecFileError(f"{source}: 'coefficients' must be a list of records")
    entries, record_of = {}, {}
    for rec_no, rec in enumerate(coeffs):
        try:
            i, j, k, p = rec["i"], rec["j"], rec["k"], rec["p"]
        except (KeyError, TypeError) as exc:
            raise SpecFileError(f"{source}: coefficient record {rec_no}: {exc}") from exc
        # nothing is coerced: a JSON true, a string or a fractional index
        # is an error, not a number
        if not all(type(v) is int for v in (i, j, k)):
            raise SpecFileError(f"{source}: coefficient record {rec_no}: i, j and k must be integers")
        p = _as_float(p, f"{source}: coefficient record {rec_no}: p must be a number")
        if (i, j, k) in record_of:
            raise SpecFileError(
                f"{source}: coefficient records {record_of[i, j, k]} and {rec_no}"
                f" both give p({i},{j},{k})"
            )
        record_of[i, j, k] = rec_no
        entries[i, j, k] = p
    return OperatorSpec(n=n, coefficients=entries)


def load_spec(path: str) -> OperatorSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return parse_spec(data, source=path)


def spec_hash(path: str) -> str:
    import hashlib  # only the JSON reports of a spec file pay for OpenSSL
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
