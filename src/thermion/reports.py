"""Structured results: bound checks, time series, experiment reports.

Every numeric check records its value, the bound it is tested against,
the slack (positive on the passing side) and enough parameter context
to reproduce it.  Reports serialize to JSON deterministically (sorted
keys, no timestamps) so identical runs are byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass, field, asdict, is_dataclass

import numpy as np

SCHEMA_VERSION = "thermion-report-1"

_COMPARE = {"<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


@dataclass
class BoundReport:
    """One inequality or convergence check; build it with `of`."""

    check: str
    value: float
    bound: float
    slack: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @classmethod
    def of(cls, check: str, value, op: str, bound, detail: dict | None = None,
           also: bool = True) -> "BoundReport":
        """The check `value op bound` (op one of <, <=, >, >=): slack is
        bound - value for < and <=, value - bound for > and >=; it passes
        iff `value op bound` and `also` (a side condition whose inputs are
        in `detail`), so a strict check fails at slack 0 and nan fails."""
        value, bound = float(value), float(bound)
        slack = bound - value if op[0] == "<" else value - bound
        return cls(check, value, bound, slack,
                   bool(_COMPARE[op](value, bound) and also), detail or {})


@dataclass
class TimeSeries:
    """Sampled observable along a trajectory; times strictly increasing."""

    times: np.ndarray
    values: np.ndarray
    observable: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, float)
        self.values = np.asarray(self.values)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")

    def ergodic_mean(self) -> np.ndarray:
        """Running Cesaro average (1/T) integral_0^T, trapezoidal."""
        v = np.real(self.values)
        t = self.times
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))))
        span = t - t[0]
        out = np.empty_like(cum)
        out[0] = v[0]
        out[1:] = cum[1:] / span[1:]
        return out


@dataclass
class Report:
    """Full output of one experiment run."""

    kind: str
    config: dict
    checks: list = field(default_factory=list)
    series: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    schema: str = field(default=SCHEMA_VERSION, init=False)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):    # bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def report_to_json(report: Report) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def series_to_csv(series: TimeSeries) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time", "value"])
    for t, v in zip(series.times, series.values):
        w.writerow([repr(float(t)), repr(float(np.real(v)))])
    return buf.getvalue()


def table_to_csv(columns: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([repr(float(x)) if isinstance(x, (int, float, np.floating))
                    else str(x) for x in row])
    return buf.getvalue()
