"""Exact psi-class intersection numbers <tau_{d_1} ... tau_{d_n}>_g.

Genus 0 uses the closed form (n-3)!/prod(d_j!).  In higher genus every key
is first brought to canonical form, with all exponents >= 2, by the string
and dilaton equations:

  <tau_0 prod tau_{d_j}>_g = sum_j <... tau_{d_j - 1} ...>_g
  <tau_1 prod tau_{d_j}>_{g,n+1} = (2g-2+n) <prod tau_{d_j}>_{g,n}

A canonical key then descends on its largest exponent with the DVV form of
the KdV/Virasoro recursion:

  (2k+3)!! <tau_{k+1} prod tau_{d_j}>_g =
      sum_j [(2d_j+1)(2d_j+3)...(2d_j+2k+1)] <... tau_{d_j+k} ...>_g
    + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!! <tau_r tau_s prod tau_d>_{g-1}
    + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!!
          sum_{I ⊔ J, g'} <tau_r prod_I>_{g'} <tau_s prod_J>_{g-g'}

with ordered pairs (I, J) and unstable or dimension-violating brackets
equal to 0.  Sub-keys with a tau_0 or tau_1 are canonicalized in turn, and
every key visited is memoized under its own exponents.  The one base case
is <tau_1>_1 = 1/24, which neither equation reaches; the test suite checks
it, and both equations, against the n-point series engine.

Brackets are total functions: out-of-range input returns 0, never raises.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from fractions import Fraction
from math import factorial
from typing import IO, Iterable, NamedTuple

from .combinat import submultiset_splits
from .rationals import format_rational, odd_double_factorial, parse_rational

__all__ = [
    "TauKey",
    "BracketTable",
    "CacheError",
    "bracket",
    "bracket_any_genus",
    "genus0_closed",
    "one_point",
    "cache_save",
    "cache_load",
    "default_table",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_TAU11 = Fraction(1, 24)

# genus-0 brackets this small are cheaper to recompute than to store
_GENUS0_CACHE_THRESHOLD = 8


class TauKey(NamedTuple):
    """Canonical (genus, ascending exponent tuple) key for a bracket."""

    genus: int
    exponents: tuple[int, ...]

    @classmethod
    def make(cls, genus: int, exponents: Iterable[int]) -> "TauKey":
        return cls(genus, tuple(sorted(exponents)))

    @property
    def npoints(self) -> int:
        return len(self.exponents)

    def is_stable(self) -> bool:
        return 2 * self.genus - 2 + self.npoints > 0

    def dimension_matches(self) -> bool:
        return sum(self.exponents) == 3 * self.genus - 3 + self.npoints


class BracketTable:
    """Memo table mapping TauKey -> Fraction, with persistence support.

    Insertions are idempotent (recomputation always yields the same exact
    value), so concurrent fills are safe under the interpreter's atomic
    dict operations.

    The table also owns the derived one-sided rows that the identity
    sweeps read (see `row`).  Rows are filled from brackets computed
    through this table, are emptied by `clear`, and are never persisted:
    `cache_save` writes the memo entries only.
    """

    VERSION = "v1"

    def __init__(self) -> None:
        self._data: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._rows: dict[tuple[int, ...], dict[int, tuple[int, int]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._data

    def get(self, key):
        v = self._data.get(tuple(key))
        if v is None:
            self.misses += 1
        else:
            self.hits += 1
        return v

    def put(self, key, value: Fraction) -> None:
        self._data[tuple(key)] = value

    def items(self):
        return self._data.items()

    def row(self, extras: tuple[int, ...]) -> dict[int, tuple[int, int]]:
        """The row for the ascending multiset `extras`: a dict, filled by the
        caller, mapping j to the integer ratio of <tau_j prod tau_extras> at
        the one genus that fits its dimension."""
        r = self._rows.get(extras)
        if r is None:
            r = self._rows[extras] = {}
        return r

    def clear(self) -> None:
        self._data.clear()
        self._rows.clear()
        self.hits = self.misses = 0


_DEFAULT_TABLE = BracketTable()


def default_table() -> BracketTable:
    """The process-wide shared memo table."""
    return _DEFAULT_TABLE


def genus0_closed(exponents: Iterable[int]) -> Fraction:
    """<tau_{d_1}...tau_{d_n}>_0 = (n-3)!/prod(d_j!) when sum d_j = n-3."""
    d = tuple(exponents)
    n = len(d)
    if n < 3 or any(x < 0 for x in d) or sum(d) != n - 3:
        return _ZERO
    denom = 1
    for x in d:
        denom *= factorial(x)
    return Fraction(factorial(n - 3), denom)


def one_point(genus: int) -> Fraction:
    """<tau_{3g-2}>_g = 1/(24^g g!) for g >= 1."""
    if genus < 1:
        raise ValueError("there is no stable one-pointed genus-0 moduli space")
    return Fraction(1, 24**genus * factorial(genus))


def bracket(
    genus: int,
    exponents: Iterable[int],
    table: BracketTable | None = None,
    pivot: str = "max",
) -> Fraction:
    """Exact value of <prod tau_{d_j}>_genus; 0 outside the stable range.

    pivot selects which exponent the recursion descends on ("max" or
    "min"); the result is pivot-independent and the suite checks that.
    """
    if genus < 0:
        return _ZERO
    d = tuple(sorted(exponents))
    if d and (d[0] < 0):
        return _ZERO
    t = table if table is not None else _DEFAULT_TABLE
    return _bracket(genus, d, t, pivot == "min")


def bracket_any_genus(exponents: Iterable[int], table: BracketTable | None = None) -> Fraction:
    """Bracket at the unique genus fitting the dimension constraint, else 0."""
    d = tuple(sorted(exponents))
    if d and d[0] < 0:
        return _ZERO
    num = sum(d) - len(d) + 3
    g, rem = divmod(num, 3)
    if rem or g < 0:
        return _ZERO
    t = table if table is not None else _DEFAULT_TABLE
    return _bracket(g, d, t, False)


def _bracket(g: int, d: tuple[int, ...], t: BracketTable, pivot_min: bool) -> Fraction:
    n = len(d)
    if 2 * g - 2 + n <= 0:
        return _ZERO
    if sum(d) != 3 * g - 3 + n:
        return _ZERO
    if g == 0:
        if n <= _GENUS0_CACHE_THRESHOLD:
            return genus0_closed(d)
        key = (0, d)
        v = t.get(key)
        if v is None:
            v = genus0_closed(d)
            t.put(key, v)
        return v
    if g == 1 and d == (1,):
        return _TAU11

    key = (g, d)
    v = t.get(key)
    if v is not None:
        return v

    if d[0] == 0:
        value = _string(g, d[1:], t, pivot_min)
    elif d[0] == 1:
        value = (2 * g - 3 + n) * _bracket(g, d[1:], t, pivot_min)
    else:
        value = _dvv(g, d, t, pivot_min)
    t.put(key, value)
    return value


def _string(g: int, rest: tuple[int, ...], t: BracketTable, pivot_min: bool) -> Fraction:
    """<tau_0 prod tau_{rest}>_g = sum_j <... tau_{rest_j - 1} ...>_g (g >= 1)."""
    total = _ZERO
    i = 0
    while i < len(rest):
        j = i
        while j < len(rest) and rest[j] == rest[i]:
            j += 1
        if rest[i] >= 1:
            # lowering the first of a run of equal values keeps the tuple sorted
            sub = rest[:i] + (rest[i] - 1,) + rest[i + 1 :]
            total += (j - i) * _bracket(g, sub, t, pivot_min)
        i = j
    return total


def _dvv(g: int, d: tuple[int, ...], t: BracketTable, pivot_min: bool) -> Fraction:
    """DVV descent for g >= 1 on a key whose exponents are all >= 2.

    Every sub-key with a tau_0 or tau_1 goes back through _bracket, which
    strips it by the string or dilaton equation.  No boundary factor is
    ever genus 0: <tau_r prod_I>_0 needs exponents summing to |I| - 2,
    but each exponent of rest is >= 2.
    """
    # pivot: largest exponent by default
    idx = 0 if pivot_min else len(d) - 1
    k = d[idx] - 1
    rest = d[:idx] + d[idx + 1 :]

    total = _ZERO

    # descent: raise one remaining exponent by k (group equal values)
    i = 0
    while i < len(rest):
        j = i
        while j < len(rest) and rest[j] == rest[i]:
            j += 1
        v0 = rest[i]
        coeff = 1
        for m in range(v0, v0 + k + 1):
            coeff *= 2 * m + 1
        sub = tuple(sorted(rest[:i] + rest[i + 1 :] + (v0 + k,)))
        total += (j - i) * coeff * _bracket(g, sub, t, pivot_min)
        i = j

    # boundary terms (k >= 1 since every exponent is >= 2)
    splits = submultiset_splits(rest)
    for r in range(k):
        s = k - 1 - r
        w = odd_double_factorial(r) * odd_double_factorial(s)
        # irreducible: genus drops, both new insertions on one component
        total += _HALF * w * _bracket(g - 1, tuple(sorted(rest + (r, s))), t, pivot_min)
        # reducible: ordered splits; the left factor's genus is forced
        # by its dimension, other genera contribute 0
        for left, right, count in splits:
            gl, rem = divmod(r + sum(left) - len(left) + 2, 3)
            if rem or gl < 0 or gl > g:
                continue
            lv = _bracket(gl, tuple(sorted((r,) + left)), t, pivot_min)
            if lv:
                rv = _bracket(g - gl, tuple(sorted((s,) + right)), t, pivot_min)
                if rv:
                    total += _HALF * w * count * lv * rv

    return total / odd_double_factorial(k + 1)


class CacheError(ValueError):
    """Raised when a cache file fails to parse or verify."""


_TRAILER = "#sha256="


def _cache_lines(table: BracketTable) -> list[str]:
    entries = sorted(table.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))
    return [
        f"{g}|{','.join(map(str, exps))}|{format_rational(v)}"
        for (g, exps), v in entries
    ]


def cache_save(table: BracketTable, destination: str | IO[str]) -> int:
    """Write the table in the TAUCACHE v1 text format; returns entry count.

    A path is written through a temporary file in the same directory that
    then replaces the target, so a crash mid-write never leaves a
    truncated cache behind.
    """
    lines = _cache_lines(table)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    body = f"TAUCACHE {BracketTable.VERSION}\n"
    body += "".join(line + "\n" for line in lines)
    body += f"{_TRAILER}{digest}\n"
    if isinstance(destination, str):
        tmp = f"{destination}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, destination)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    else:
        destination.write(body)
    return len(lines)


def cache_load(source: str | IO[str], verify: bool = False) -> BracketTable:
    """Parse a TAUCACHE file into a fresh table.

    The file must end with the checksum trailer that cache_save writes;
    a file without it, or with entries after it, is rejected.
    With verify=True every entry is recomputed from scratch (through a
    private empty table) and compared; any disagreement aborts the load.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()

    lines = text.splitlines()
    if not lines:
        raise CacheError("line 1: empty cache file (missing TAUCACHE header)")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "TAUCACHE":
        raise CacheError(f"line 1: not a TAUCACHE header: {lines[0]!r}")
    if header[1] != BracketTable.VERSION:
        raise CacheError(
            f"line 1: cache version {header[1]!r} does not match {BracketTable.VERSION!r}"
        )

    table = BracketTable()
    # recomputations share one private table that only ever holds verified
    # recomputed values, never the file's claims
    scratch = BracketTable()
    entry_lines: list[str] = []
    sealed = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if sealed:
            raise CacheError(f"line {lineno}: entry after the checksum trailer")
        if line.startswith(_TRAILER):
            digest = hashlib.sha256("\n".join(entry_lines).encode()).hexdigest()
            if line[len(_TRAILER) :].strip() != digest:
                raise CacheError(f"line {lineno}: checksum failure")
            sealed = True
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise CacheError(f"line {lineno}: malformed entry {line!r}")
        try:
            g = int(parts[0])
            exps = tuple(int(x) for x in parts[1].split(",")) if parts[1] else ()
            value = parse_rational(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise CacheError(f"line {lineno}: malformed entry {line!r}: {exc}") from None
        if tuple(sorted(exps)) != exps:
            raise CacheError(f"line {lineno}: exponents not ascending in {line!r}")
        if verify:
            recomputed = bracket(g, exps, scratch)
            if recomputed != value:
                raise CacheError(
                    f"line {lineno}: stored value {parts[2]} contradicts "
                    f"recomputation {format_rational(recomputed)}"
                )
        entry_lines.append(line)
        table.put((g, exps), value)
    if not sealed:
        raise CacheError(
            f"line {len(lines) + 1}: missing {_TRAILER} trailer (truncated file?)"
        )
    return table


def cache_dumps(table: BracketTable) -> str:
    buf = io.StringIO()
    cache_save(table, buf)
    return buf.getvalue()
