"""Experiment reports with bit-stable serialization.

Floats are rounded to 12 significant digits before JSON emission and keys
are sorted, so identical (config, seed) runs serialize to identical bytes.
Wall-clock time lives outside the canonical block for exactly that reason.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _canonical_value(x: Any) -> Any:
    if isinstance(x, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(f"{v:.12g}")
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_canonical_value(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _canonical_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canonical_value(v) for v in x]
    if x is None or isinstance(x, str):
        return x
    return str(x)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(_canonical_value(obj), sort_keys=True, indent=2)


@dataclass
class ExperimentReport:
    """Inputs echo, computed quantities and pass/fail checks for one run.

    Every check entry carries an ``id`` and ``passed``; every estimate in
    the results payload should either carry a standard error or be tagged
    exact by construction.
    """

    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_clock_s: float | None = None

    def all_passed(self) -> bool:
        return all(c.get("passed", False) for c in self.checks)

    def canonical_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": _canonical_value(self.inputs),
            "results": _canonical_value(self.results),
            "checks": _canonical_value(self.checks),
        }

    def to_json(self, include_timing: bool = False) -> str:
        payload: dict[str, Any] = self.canonical_dict()
        if include_timing and self.wall_clock_s is not None:
            payload["meta"] = {"wall_clock_s": self.wall_clock_s}
        return json.dumps(payload, sort_keys=True, indent=2)
