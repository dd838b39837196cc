"""Structured result of a verification experiment."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["ExperimentReport"]

REPORT_SCHEMA = "gwtrees.report/2"


@dataclass
class ExperimentReport:
    """Statistics, gates and provenance of one experiment run.

    ``passed`` is a pure function of ``statistics`` versus ``tolerances``; all
    randomized entries are reproducible from (parameters, seed).  ``wall_time_s``
    and ``created_utc`` are the only non-reproducible fields.
    """

    name: str
    parameters: Dict[str, Any]
    statistics: Dict[str, Any]
    tolerances: Dict[str, Any]
    passed: bool
    seed: Optional[int] = None
    notes: str = ""
    wall_time_s: float = 0.0
    created_utc: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        # timing is the only non-reproducible content; keep it under one key so
        # reports from identical (config, seed) runs differ in that key alone
        return {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "parameters": self.parameters,
            "statistics": self.statistics,
            "tolerances": self.tolerances,
            "passed": self.passed,
            "seed": self.seed,
            "notes": self.notes,
            "timing": {"wall_time_s": self.wall_time_s, "created_utc": self.created_utc},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=jsonify)

    def summary_line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"


def jsonify(obj):
    """``json.dumps`` default: numpy arrays and scalars as plain Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
