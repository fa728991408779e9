"""Uniform check records produced by the verification harnesses.

Every check emits records of the shape
{check, params, measured, bound, margin, status, witness}; a report is an
ordered collection of records with pass/fail bookkeeping.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

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

    def to_dict(self, check: str | None = None) -> dict:
        """The record as written; a `check` is added to a copy of its params."""
        return {
            "name": self.name,
            "params": self.params if check is None else {**self.params, "check": check},
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


def positive_times(time_grid) -> np.ndarray:
    """`time_grid` as a float array, checked to hold at least one time and
    only finite times > 0: the checks that read it divide by t."""
    times = np.asarray(time_grid, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time, got an empty grid")
    return _checked_times(times, times > 0, "> 0")


def evaluation_times(t) -> np.ndarray:
    """`t`, one time or a sequence, as a float array checked to hold only
    finite times >= 0: the rule of the semigroup evaluators, for which
    t = 0 gives the identity."""
    times = np.asarray(t, dtype=float)
    if times.ndim == 0 and 0.0 <= float(times) < math.inf:  # one good time, decided at once
        return times
    return _checked_times(times, times >= 0, ">= 0")


def _checked_times(times: np.ndarray, ok: np.ndarray, rule: str) -> np.ndarray:
    """`times`, or a ValueError naming the first that is not finite or
    breaks `rule` (`ok` is False there)."""
    ok &= times < np.inf
    if not ok.all():
        bad = float(times[~ok][0])
        raise ValueError(f"times must be {rule if math.isfinite(bad) else 'finite'}, got {bad!r}")
    return times


def log_time_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    """Log-spaced grid including both endpoints, which must be `positive_times`
    with t_min <= t_max."""
    positive_times([t_min, t_max])
    if t_max < t_min:
        raise ValueError(f"need t_min <= t_max, got [{t_min}, {t_max}]")
    return np.exp(np.linspace(math.log(t_min), math.log(t_max), points))


def json_text(obj) -> str:
    """`obj` as the written artifacts hold it, the bytes of
    `json.dumps(obj, indent=2, sort_keys=True)` after two conversions: a
    numpy scalar or array becomes the plain value or nested list, and a
    non-finite float (numpy or not) its repr string ("nan", "inf", "-inf").
    A key that is not a str is written as its str.  Any other type, a 0-d
    array or `np.bool_` among them, raises TypeError.

    One recursive pass: each container returns its own string."""
    return _emit(obj, "\n")


def json_chunks(obj: dict, key: str, items) -> Iterator[str]:
    """The text of `json_text({**obj, key: list(items)})` in pieces, one per
    item of the iterable `items`, so that a writer never holds the whole
    text, and each item is only read when its turn comes.  The keys of
    `obj` are str."""
    sep = "{\n  "
    for k in sorted([*obj, key]):
        yield sep + _quote(k) + ": "
        sep = ",\n  "
        if k != key:
            yield _emit(obj[k], "\n  ")
            continue
        empty = True
        for item in items:
            yield ("[\n    " if empty else ",\n    ") + _emit(item, "\n    ")
            empty = False
        yield "[]" if empty else "\n  ]"
    yield "\n}"


def _emit(obj, nl: str) -> str:
    """`obj` at the indent that `nl` (a newline and the indent) opens."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is float:
        return _float(obj)
    if kind is dict:
        return _dict(obj, nl)
    if obj is None:
        return "null"
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        return _list(obj, nl)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # subclasses, numpy values, and the rest
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        return _dict(obj, nl)
    if isinstance(obj, (list, tuple)):
        return _list(obj, nl)
    if isinstance(obj, np.ndarray) and obj.ndim:
        return _list(obj.tolist(), nl)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else _quote(repr(value))


def _dict(obj: dict, nl: str) -> str:
    if not obj:
        return "{}"
    try:
        items = sorted(obj.items())
        plain = type(items[0][0]) is str  # sorted, so all keys are str
    except TypeError:  # keys of types that do not compare
        plain = False
    if not plain:
        items = sorted({str(k): v for k, v in obj.items()}.items())
    inner = nl + "  "
    return ("{" + inner + ("," + inner).join([_quote(k) + ": " + _emit(v, inner)
                                               for k, v in items]) + nl + "}")


def _list(obj, nl: str) -> str:
    if not obj:
        return "[]"
    inner = nl + "  "
    if type(obj[0]) is str:
        try:
            return "[" + inner + ("," + inner).join(map(_quote, obj)) + nl + "]"
        except TypeError:  # not all str
            pass
    return "[" + inner + ("," + inner).join([_emit(v, inner) for v in obj]) + nl + "]"
