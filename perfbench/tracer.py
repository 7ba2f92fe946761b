"""Spans around the public functions of each taucalc layer.

The tracer wraps functions from the outside; nothing in the package
changes.  `from .brackets import bracket` binds a separate copy of the
name in every importing module, so `install` replaces the function under
every name, in every loaded taucalc module, that refers to it.  A target
that no longer exists raises, so a renamed layer cannot silently read 0.

Each call records a span (name, start, end, parent) in flat arrays that
`write_spans` dumps at exit, and adds to per-name totals:
- calls: number of spans;
- total: inclusive seconds of the outermost spans of that name, so
  re-entrant calls are not counted twice;
- self: seconds minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

# (module, function, span name); several functions may share a span name,
# which makes them one layer for the totals
FUNCTIONS = (
    ("brackets", "bracket", "brackets.bracket"),
    ("brackets", "bracket_any_genus", "brackets.bracket"),
    ("brackets", "cache_load", "brackets.cache_load"),
    ("brackets", "cache_save", "brackets.cache_save"),
    ("combinat", "submultiset_splits", "combinat.splits"),
    ("reduction", "kappa_to_psi", "reduction.kappa_to_psi"),
    ("denominators", "compute_D", "denominators"),
    ("denominators", "compute_script_D", "denominators"),
    ("denominators", "conjecture41_check", "denominators"),
    ("denominators", "threshold_check", "denominators"),
    ("denominators", "compare_D_S", "denominators"),
    ("denominators", "divisibility_check", "denominators"),
    ("identities", "verify", "identities.verify"),
    ("identities", "split_sum", "identities.split_sum"),
    ("report", "reports_to_json", "report.json"),
    ("rationals", "format_rational", "rationals.format"),
    ("npoint", "npoint_series", "npoint.build"),
    ("npoint", "merged_series", "npoint.build"),
    ("monotone", "two_point_row", "monotone.two_point_row"),
    ("monotone", "psi_swap_check", "monotone.sweep"),
    ("monotone", "psi_swap_deep", "monotone.sweep"),
    ("monotone", "lambda_g_swap_check", "monotone.sweep"),
    ("monotone", "kappa_swap_check", "monotone.sweep"),
    ("monotone", "bounds_check", "monotone.sweep"),
    ("monotone", "psi_floor_check", "monotone.sweep"),
)

# generators: one span per resume, so the consumer's self time excludes them
GENERATORS = (("combinat", "set_partitions", "combinat.set_partitions"),)

# (module, class, attribute, span name); properties wrap their getter
METHODS = (
    ("npoint", "NPointSeries", "f", "npoint.f"),
    ("npoint", "NPointSeries", "dump_lines", "npoint.dump"),
    ("npoint", "MergedSeries", "dump_lines", "npoint.dump"),
)


def _module(name: str):
    return sys.modules[f"taucalc.{name}"]


def _rebind(original, replacement) -> None:
    """Point every taucalc module global bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "taucalc" or mod_name.startswith("taucalc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self._depth: list[int] = []
        self.counters: dict[str, int] = {}

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return nid

    def _open(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        stack.append([idx, nid, 0.0])
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.total[nid] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, after=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, counter: str):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.count(counter, 1)
                yield item

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        def saved(args, entries):
            self.count("brackets.cache_entries", entries)
            if isinstance(args[1], str):
                self.count("brackets.cache_bytes", os.path.getsize(args[1]))

        hooks = {
            "cache_save": saved,
            "reports_to_json": lambda args, text: self.count("report.bytes", len(text.encode())),
        }
        for mod, fn_name, span in FUNCTIONS:
            original = getattr(_module(mod), fn_name)
            _rebind(original, self.wrap(original, span, hooks.get(fn_name)))
        for mod, fn_name, span in GENERATORS:
            original = getattr(_module(mod), fn_name)
            _rebind(original, self.wrap_generator(original, span, span + "_yielded"))

        def dumped(args, lines):
            self.count("npoint.terms", len(lines))

        for mod, cls_name, attr, span in METHODS:
            cls = getattr(_module(mod), cls_name)
            member = cls.__dict__[attr]
            if isinstance(member, property):
                setattr(cls, attr, property(self.wrap(member.fget, span)))
            else:
                setattr(cls, attr, self.wrap(member, span, dumped))

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer figures of this invocation (names as in BENCHMARK.json)."""
        ids = self._ids
        calls = lambda name: self.calls[ids[name]]  # noqa: E731
        total = lambda name: self.total[ids[name]]  # noqa: E731
        own = lambda name: self.self_s[ids[name]]  # noqa: E731
        table = _module("brackets").default_table()
        return {
            "brackets.calls": calls("brackets.bracket"),
            "brackets.s": total("brackets.bracket"),
            "brackets.self_s": own("brackets.bracket"),
            "brackets.memo_entries": len(table),
            "brackets.memo_hits": table.hits,
            "brackets.memo_misses": table.misses,
            "brackets.cache_load_s": total("brackets.cache_load"),
            "brackets.cache_save_s": total("brackets.cache_save"),
            "brackets.cache_entries": self.counters.get("brackets.cache_entries", 0),
            "brackets.cache_bytes": self.counters.get("brackets.cache_bytes", 0),
            "combinat.splits_calls": calls("combinat.splits"),
            "combinat.splits_s": total("combinat.splits"),
            "combinat.set_partitions_yielded": self.counters.get(
                "combinat.set_partitions_yielded", 0),
            "combinat.set_partitions_s": total("combinat.set_partitions"),
            "reduction.kappa_calls": calls("reduction.kappa_to_psi"),
            "reduction.kappa_s": total("reduction.kappa_to_psi"),
            "reduction.kappa_self_s": own("reduction.kappa_to_psi"),
            "denominators.s": total("denominators"),
            "denominators.self_s": own("denominators"),
            "identities.verify_calls": calls("identities.verify"),
            "identities.verify_s": total("identities.verify"),
            "identities.self_s": own("identities.verify") + own("identities.split_sum"),
            "identities.split_sum_s": total("identities.split_sum"),
            "report.json_s": total("report.json"),
            "report.bytes": self.counters.get("report.bytes", 0),
            "rationals.format_calls": calls("rationals.format"),
            "rationals.format_s": total("rationals.format"),
            "npoint.build_s": total("npoint.build"),
            "npoint.f_s": total("npoint.f"),
            "npoint.dump_s": total("npoint.dump"),
            "npoint.terms": self.counters.get("npoint.terms", 0),
            "monotone.two_point_row_s": total("monotone.two_point_row"),
            "monotone.rows": calls("monotone.two_point_row"),
            "monotone.sweep_s": total("monotone.sweep"),
            "cli.main_s": total("cli.main"),
            "trace.spans": len(self.span_name),
        }

    def write_spans(self, path: str) -> None:
        """One JSON header line, then the name, start, end and parent arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "clock": "time.perf_counter seconds",
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "i"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)
