"""Machine-readable run reports.

A report echoes the effective configuration (defaults included, so it is
self-reproducing), carries per-check verdicts with witnesses or the
certified constants backing them, and lists every artifact written.
Every check result exposes ``verdict``, ``witness`` (a string or None) and
``constants()``; :meth:`RunReport.add_check` is the one writer of verdicts.
JSON output is deterministic up to the timestamp field, which comparers
must exclude.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import SCHEMA_VERSION

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CHECKS_FAILED = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


@dataclass
class RunReport:
    command: str
    config: dict
    verdicts: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def add_check(self, name: str, check):
        """Record ``check``'s verdict, witness and constants under ``name``."""
        entry = {"verdict": check.verdict}
        if check.witness is not None:
            entry["witness"] = check.witness
        constants = check.constants()
        if constants:
            entry["constants"] = _jsonable(constants)
        self.verdicts[name] = entry

    @property
    def all_passed(self) -> bool:
        """True when there is at least one verdict and every verdict passes."""
        return bool(self.verdicts) and all(
            v["verdict"] == PASS for v in self.verdicts.values())

    def to_dict(self, with_timestamp=True) -> dict:
        out = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": _jsonable(self.config),
            "verdicts": _jsonable(self.verdicts),
            "constants": _jsonable(self.constants),
            "details": _jsonable(self.details),
            "artifacts": list(self.artifacts),
            "all_passed": self.all_passed,
        }
        if with_timestamp:
            out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return out

    def write(self, path) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.artifacts.append(os.path.basename(str(path)))
        return str(path)


class RaisedCheck:
    """A check that raised before it could decide: indeterminate, with the
    error's message as witness; it serializes to None (null in details)."""

    verdict = INDETERMINATE

    def __init__(self, error: Exception):
        self.witness = str(error)

    def constants(self):
        return {}

    def to_dict(self):
        return None


def passes(check) -> bool:
    return check.verdict == PASS


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# floats are compared at the scale max(|x|, REPORT_ABS_SCALE): a constant
# nearer zero than this (H3's rate b = -8.9e-5, say) is held to an absolute
# rtol * REPORT_ABS_SCALE, so a rounding-level move does not fail a tight
# comparison; at rtol = 0 the comparison stays exact
REPORT_ABS_SCALE = 1e-3


def reports_equal(left: dict, right: dict, rtol=1e-8) -> bool:
    """Semantic comparison that ignores timestamps and allows float slack:
    ``|a - b| <= rtol * (|b| + REPORT_ABS_SCALE)``."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "timestamp"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    def close(a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
        if isinstance(a, float) or isinstance(b, float):
            try:
                return bool(np.isclose(float(a), float(b), rtol=rtol,
                                       atol=rtol * REPORT_ABS_SCALE))
            except (TypeError, ValueError):
                return a == b
        return a == b

    return close(strip(left), strip(right))
