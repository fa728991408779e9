"""Uniform check records produced by the verification harnesses.

Every check emits records of the shape
{check, params, measured, bound, margin, status, witness}; a report is an
ordered collection of records with pass/fail bookkeeping.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

# relative tolerance of every exact identity the checks verify
IDENTITY_RTOL = 1e-12


@dataclass
class CheckRecord:
    name: str
    params: dict
    measured: float | None
    bound: float | None
    margin: float
    status: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
            "status": self.status,
            "witness": self.witness,
        }


def record(name, params, measured, bound, margin, ok, witness=None) -> CheckRecord:
    """Build a pass/fail record from a boolean verdict."""
    return CheckRecord(
        name=name,
        params=params,
        measured=None if measured is None else float(measured),
        bound=None if bound is None else float(bound),
        margin=float(margin),
        status=PASS if ok else FAIL,
        witness=witness,
    )


def vacuous(name, params) -> CheckRecord:
    """Record for a check whose hypothesis is empty on this input."""
    return CheckRecord(name, params, None, None, 0.0, VACUOUS)


@dataclass
class CheckReport:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, rec: CheckRecord) -> CheckRecord:
        self.records.append(rec)
        return rec

    def extend(self, other: "CheckReport") -> "CheckReport":
        self.records.extend(other.records)
        return self

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == FAIL]

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, VACUOUS: 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def json_text(obj) -> str:
    """`obj` as the written artifacts hold it: indented JSON with sorted keys,
    numpy values as plain ones, and a non-finite float as its repr string."""
    plain = _jsonable(obj)
    del obj  # a temporary of the caller need not outlive its conversion
    return json.dumps(plain, indent=2, sort_keys=True)
