"""Operator spec files: sparse JSON coefficient lists, or a one-parameter
family selector, with round-trip-exact serialization."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .abscont import va_operator
from .operator import QsoOperator, TensorError, make_operator, tensor_from_entries


class SpecFileError(ValueError):
    """Spec file is unreadable or structurally invalid."""


@dataclass(frozen=True)
class OperatorSpec:
    n: int
    coefficients: Optional[dict] = None  # {(i, j, k): p} with i <= j
    va: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def build(self, symmetrize: bool = False) -> QsoOperator:
        if self.va is not None:
            return va_operator(self.va)
        return make_operator(
            tensor_from_entries(self.n, self.coefficients), symmetrize=symmetrize
        )


def parse_spec(data: dict, source: str = "<memory>") -> OperatorSpec:
    if not isinstance(data, dict):
        raise SpecFileError(f"{source}: top level must be an object")
    va = data.get("va")
    coeffs = data.get("coefficients")
    if (va is None) == (coeffs is None):
        raise SpecFileError(f"{source}: exactly one of 'va' or 'coefficients' required")
    metadata = data.get("metadata", {})
    if va is not None:
        a = va.get("a") if isinstance(va, dict) else None
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise SpecFileError(f"{source}: 'va' needs a numeric field 'a'")
        return OperatorSpec(n=2, va=float(a), metadata=metadata)
    n = data.get("n")
    if not isinstance(n, int) or n < 2:
        raise SpecFileError(f"{source}: 'n' must be an integer >= 2")
    if not isinstance(coeffs, list):
        raise SpecFileError(f"{source}: 'coefficients' must be a list of records")
    entries, record_of = {}, {}
    for rec_no, rec in enumerate(coeffs):
        try:
            i, j, k, p = int(rec["i"]), int(rec["j"]), int(rec["k"]), float(rec["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFileError(f"{source}: coefficient record {rec_no}: {exc}") from exc
        if (i, j, k) in record_of:
            raise SpecFileError(
                f"{source}: coefficient records {record_of[i, j, k]} and {rec_no}"
                f" both give p({i},{j},{k})"
            )
        record_of[i, j, k] = rec_no
        entries[i, j, k] = p
    return OperatorSpec(n=n, coefficients=entries, metadata=metadata)


def load_spec(path: str) -> OperatorSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return parse_spec(data, source=path)


def serialize_spec(spec: OperatorSpec) -> str:
    """Canonical JSON: sparse i <= j records, sorted, 17-significant-digit floats."""
    if spec.va is not None:
        body = {"va": {"a": float(f"{spec.va:.17g}")}}
    else:
        records = []
        for (i, j, k), p in sorted(spec.coefficients.items()):
            if i > j or p == 0.0:
                continue
            records.append({"i": i, "j": j, "k": k, "p": float(f"{p:.17g}")})
        body = {"n": spec.n, "coefficients": records}
    if spec.metadata:
        body["metadata"] = spec.metadata
    return json.dumps(body, indent=2, sort_keys=True)


def spec_from_operator(V: QsoOperator, metadata: Optional[dict] = None) -> OperatorSpec:
    entries = {}
    n = V.n
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                p = V.tensor.entry(i, j, k)
                if p != 0.0:
                    entries[(i, j, k)] = p
    return OperatorSpec(n=n, coefficients=entries, metadata=metadata or {})


def spec_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
