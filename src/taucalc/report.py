"""Structured outcome of one verification: id, parameters, both sides, pass flag.

A report passes iff lhs == rhs exactly (rational equality, no tolerance).
Sweep-style checks (monotonicity, witness searches) encode themselves in
the same shape by putting the number of comparisons run on the lhs and
the number satisfied on the rhs.

Reports have one canonical order, `Report.sort_key`.  Every `tau verify` token
yields its reports in that order, each evaluated when it is pulled, so
`json_chunks` writes them as they come and no token's whole list is held;
the CLI counts its "PASS k/N" summary as they go out.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Report", "json_chunks", "reports_to_json", "timed_report"]


def _fraction_text(value: Any) -> str:
    # the encoder's hook for values JSON has no type for: only Fraction
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# tuples encode as lists, a Fraction at any depth as "num/den"; reports are trees
_ENCODER = json.JSONEncoder(default=_fraction_text, check_circular=False)

# encoded reports per piece of json_chunks
_CHUNK = 256


class Report:
    def __init__(self, id: str, params: dict[str, Any], lhs: Fraction, rhs: Fraction,
                 ms: float = 0.0, extra: dict[str, Any] | None = None) -> None:
        self.id, self.params, self.lhs, self.rhs, self.ms = id, params, lhs, rhs, ms
        self.extra = {} if extra is None else extra
        # lhs == rhs, compared once when the report is built: its JSON, the
        # summary line and the exit code all read the flag
        self.passed = lhs == rhs

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Report and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"Report({self.id!r}, {self.params!r}, lhs={self.lhs}, rhs={self.rhs})"

    def to_dict(self, timing: bool = True) -> dict[str, Any]:
        """The fields json_chunks encodes; params and extra are handed
        over as they are, tuples and Fractions included."""
        out = {
            "id": self.id,
            "params": self.params,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }
        if self.extra:
            out["extra"] = self.extra
        if timing:
            out["ms"] = round(self.ms, 3)
        return out

    def sort_key(self) -> tuple:
        """The canonical order of reports: by id, then numerically by params,
        whose values in sorted-name order line up within an id (ints, tuples)."""
        return (self.id, *[self.params[k] for k in sorted(self.params)])


def timed_report(
    id: str, params: dict[str, Any], sides: Callable[[], tuple[Fraction, Fraction, dict[str, Any]]]
) -> Report:
    """The report of sides() -> (lhs, rhs, extra), with the milliseconds
    that sides() took as its ms."""
    start = time.perf_counter()
    lhs, rhs, extra = sides()
    ms = (time.perf_counter() - start) * 1000.0
    return Report(id=id, params=params, lhs=lhs, rhs=rhs, ms=ms, extra=extra)


def json_chunks(reports: Iterable[Report], timing: bool = True) -> Iterator[str]:
    """The reports as one JSON array in pieces, in the order they come: "[",
    then per piece one encode of `_CHUNK` reports' dicts as a list, its
    brackets cut (the separator is ", "), then "]".  A piece pulls its reports
    when asked for, so a writer holds one piece's reports, never a sweep's."""
    pending = iter(reports)
    yield "["
    sep = ""
    while chunk := list(islice(pending, _CHUNK)):
        yield sep + _ENCODER.encode([r.to_dict(timing=timing) for r in chunk])[1:-1]
        sep = ", "
    yield "]"


def reports_to_json(reports: list[Report], timing: bool = True) -> str:
    """The reports in canonical order as one JSON array, the join of
    `json_chunks`; the text equals the encoding of the whole list."""
    return "".join(json_chunks(sorted(reports, key=Report.sort_key), timing))
