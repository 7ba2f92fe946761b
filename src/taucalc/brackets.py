"""Exact psi-class intersection numbers <tau_{d_1} ... tau_{d_n}>_g.

The engine works on S_g(d) = prod_j (2d_j+1)!! <tau_{d_1} ... tau_{d_n}>_g,
the bracket of sigma_d = (2d+1)!! tau_d.  Three families are closed:

  genus 0:    <tau_d>_0 = (n-3)!/prod(d_j!)
  one point:  <tau_{3g-2}>_g = 1/(24^g g!)
  two points: <tau_a tau_{3g-1-a}>_g, one row per genus from the seed
              <tau_0 tau_{3g-1}>_g by an order-5 recurrence on integers
              (see _two_point_numerators)

The two-point row is kept on the table, one per genus, and never saved.
Every other key of genus >= 1 (so n >= 3) takes one step of the DVV form
of the KdV/Virasoro recursion, which in this normalization has integer
coefficients and one 1/2 (no division by (2k+3)!!):

  S_g(k+1, d) = sum_j (2d_j+1) S_g(... d_j + k ...)
    + 1/2 sum_{r+s=k-1} [S_{g-1}(r, s, d)
                         + sum_{I ⊔ J, g'} S_{g'}(r, d_I) S_{g-g'}(s, d_J)]

with ordered pairs (I, J), and brackets that are unstable, violate the
dimension or hold a negative exponent equal to 0.  The pivot tau_{k+1} is
a tau_0 if the key has one (k = -1: the string equation, with no boundary
terms), else a tau_1 (k = 0: the dilaton equation, whose descent terms all
read d, so the step is 3(2g-2+|d|) S_g(d)), else the largest exponent, so
the boundary terms only ever meet exponents >= 2.  A boundary term
equals its mirror, with (r, I) and (s, J) swapped, so the sum is taken over
mirror pairs at weight 1, and a self-mirror term at 1/2.  A reducible
factor S_{g'}(r, d_I), its genus fixed by the dimension, is entry r of
the table's one-sided row of d_I (BracketTable._rows), which the step
reads first; an entry it misses, and every other sub-key, goes to the
memo.  Every key of genus >= 1 visited, closed or not, is memoized under
its own exponents, but S_1(1) = 3 <tau_1>_1 = 1/8.  The memo is read
first, since nearly every read is a hit (so a genus-0 key that `put` or a
cache file placed there is read from it); on a miss, genus-0 keys and
S_1(1) are closed and never stored, so no cache file written here holds
them.
The test suite checks the closed forms and the recursion against the
n-point series engine.

Integrality.  V_g(d) = 2^B S_g(d), B = sigma_scale(g, n) = 4g + n - 2, is
an integer for every key, and the memo holds V.  By induction on the
recursion: the closed forms are integers (genus 0: V = 2 (n-3)! prod
(2x+1) C(2x, x); S_1(1): V = 1; n <= 2 by exact division), and a descent
term's scale is B - 1, an irreducible term's B - 3 and the sum of a
reducible term's two B - 1, so every term, its 1/2 included, enters the
step at a shift that only the shape of the step fixes (see _descent).
At n = 1, V = (6g-3)!! 2^(g-1)/(3^g g!) is odd when g is a power of 2, so
the bound is sharp.  Every sum here, in the kappa step (reduction) and in
the identities adds ints.  Fractions are built only at the boundary:
`bracket` returns V/(2^B prod (2d_j+1)!!), and the cache file and
BracketTable.put/items hold <tau_d>_g.

Brackets are total functions: out-of-range input returns 0, never raises.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod
from typing import IO, Iterable

from .combinat import submultiset_splits
from .rationals import format_rational, odd_double_factorial, parse_ratio

__all__ = [
    "BracketTable",
    "CacheError",
    "bracket",
    "one_point",
    "cache_save",
    "cache_load",
    "default_table",
]

_ZERO = Fraction(0)


def sigma_weight(exponents: Iterable[int]) -> int:
    """prod (2d_j+1)!!, the factor between <prod tau_{d_j}> and S(d)."""
    return prod(map(odd_double_factorial, exponents))


def sigma_scale(genus: int, n: int) -> int:
    """B = 4g + n - 2: 2^B S_g(d) is an integer for every key with n points."""
    return 4 * genus + n - 2


def _scaled(key: tuple[int, tuple[int, ...]], weight: int, num: int, den: int) -> int:
    """2^B weight num/den, B the scale of key; ValueError unless an int."""
    B = sigma_scale(key[0], len(key[1]))
    q, r = divmod((num * weight) << B, den)
    if r:
        odd = den >> ((den & -den).bit_length() - 1)
        why = "is not dyadic" if (num * weight) % odd else f"leaves no integer at scale 2^{B}"
        raise ValueError(f"value {num}/{den} {why} in sigma form")
    return q


def _storable(g: int, d: tuple[int, ...]) -> bool:
    """Whether the engine could store the key (g, d); computes no weight."""
    n = len(d)
    return (g >= 0 and 2 * g - 2 + n > 0 and sum(d) == 3 * g - 3 + n
            and list(d) == sorted(d) and (not d or d[0] >= 0))


class BracketTable:
    """Memo table of brackets keyed by (genus, ascending exponents), with
    persistence support.

    The memo holds the integer V = 2^B S_g(d) (see Integrality in the
    module docstring); `put` and `items` convert to and from Fraction
    <tau_d>_g, and `put` raises ValueError for a value whose V is no int.

    Insertions are idempotent: recomputation always yields the same exact
    value, and `put` raises ValueError for a value other than the one the
    key holds, which the rows below may already have read.

    The table also owns derived data, in plain dicts that their callers
    index and fill directly, every value an int at its own scale 2^B:

      _pairs  genus -> the closed two-point row that the engine reads its
              n = 2 keys from
      _rows   ascending multiset E -> {j: S(j, E)}, the one-sided rows
              <sigma_j prod sigma_E> at the genus that fits the dimension,
              read by the reducible terms of _descent and by
              identities.split_sum, and filled by `fill_row` on a miss
      _conv   K -> {key: C_K(A, B)}, A <= B, the convolutions split_sum
              builds from two rows, keyed by the Cantor pair of the ids
              that identities._sides gives A and B; those ids are
              process-global and never persisted.  The slot of every K is
              kept, since a sweep comes back to a K it has left: c35 at
              --gmax 6 --nmax 4 runs 57 stretches of K over 17 values.
      _kappa  the kappa sub-integrals of reduction.kappa_to_psi

    All of it lives as long as the table, is emptied by `clear` and is
    never persisted: `cache_save` writes the memo entries only.
    """

    VERSION = "v1"

    def __init__(self) -> None:
        self._data: dict[tuple[int, tuple[int, ...]], int] = {}
        self._rows: defaultdict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
        self._pairs: dict[int, tuple[list[int], int]] = {}
        self._conv: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self._kappa: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def put(self, key, value: Fraction) -> None:
        key = tuple(key)
        if not _storable(*key):
            raise ValueError(f"no bracket has the key {key}")
        w = sigma_weight(key[1])
        v = _scaled(key, w, value.numerator, value.denominator)
        held = self._data.setdefault(key, v)
        if held != v:
            held = Fraction(held, w << sigma_scale(key[0], len(key[1])))
            raise ValueError(f"the key {key} holds {held}, not {value}")

    def items(self):
        for (g, d), v in self._data.items():
            yield (g, d), Fraction(v, sigma_weight(d) << sigma_scale(g, len(d)))

    def update(self, other: "BracketTable") -> None:
        """Copy every memo entry of `other` into this table."""
        self._data.update(other._data)

    def clear(self) -> None:
        self._data.clear()
        self._rows.clear()
        self._pairs.clear()
        self._conv.clear()
        self._kappa.clear()
        self.hits = self.misses = 0


_DEFAULT_TABLE = BracketTable()


def default_table() -> BracketTable:
    """The process-wide shared memo table."""
    return _DEFAULT_TABLE


def one_point(genus: int) -> Fraction:
    """<tau_{3g-2}>_g = 1/(24^g g!) for g >= 1."""
    if genus < 1:
        raise ValueError("there is no stable one-pointed genus-0 moduli space")
    return Fraction(1, 24**genus * factorial(genus))


def sigma_bracket(genus: int, exponents: Iterable[int], table: BracketTable | None = None) -> int:
    """2^B S_genus(d) = 2^B prod (2d_j+1)!! <prod tau_{d_j}>_genus, B =
    sigma_scale(genus, len(d)); 0 outside the stable range."""
    d = tuple(sorted(exponents))
    if genus < 0 or (d and d[0] < 0):
        return 0
    t = table if table is not None else _DEFAULT_TABLE
    return _bracket(genus, d, t)


def bracket(genus: int, exponents: Iterable[int], table: BracketTable | None = None) -> Fraction:
    """Exact value of <prod tau_{d_j}>_genus; 0 outside the stable range."""
    d = tuple(exponents)
    v = sigma_bracket(genus, d, table)
    return Fraction(v, sigma_weight(d) << sigma_scale(genus, len(d))) if v else _ZERO


def bracket_any_genus(exponents: Iterable[int], table: BracketTable | None = None) -> Fraction:
    """Bracket at the unique genus fitting the dimension constraint, else 0."""
    d = tuple(exponents)
    g, rem = divmod(sum(d) - len(d) + 3, 3)
    return _ZERO if rem else bracket(g, d, table)


def _genus0(d: tuple[int, ...]) -> int:
    # (2d+1)!!/d! = (2d+1) C(2d, d)/2^d, sum(d) = n - 3 (so n >= 3), B = n - 2
    return 2 * factorial(len(d) - 3) * prod((2 * x + 1) * comb(2 * x, x) for x in d)


def _bracket(g: int, d: tuple[int, ...], t: BracketTable) -> int:
    key = (g, d)  # a hit needs no range check: the memo holds _storable keys
    v = t._data.get(key)
    if v is not None:
        t.hits += 1
        return v
    if g == 0:
        return _genus0(d) if sum(d) == len(d) - 3 else 0
    if g == 1 and d == (1,):
        return 1  # S_1(1) = 3 * 1/24 = 1/2^3, and B = 3
    n = len(d)
    if 2 * g - 2 + n <= 0 or sum(d) != 3 * g - 3 + n:
        return 0
    t.misses += 1

    if n == 1:
        value = _scaled(key, sigma_weight(d), 1, 24**g * factorial(g))
    elif n == 2:
        row = t._pairs.get(g)
        if row is None:
            row = t._pairs[g] = _two_point_numerators(g)
        value = _scaled(key, sigma_weight(d), row[0][d[0]], row[1])
    else:
        value = _descent(g, d, t)
    t._data[key] = value
    return value


def _two_point_numerators(g: int) -> tuple[list[int], int]:
    """<tau_a tau_{3g-1-a}>_g for a = 0 .. (3g-1)//2 (g >= 1), as integer
    numerators over whole = 4^g (2g+1)!! 24^g g!, and whole.

    At y = 1 the genus-g slice of Dijkgraaf's two-point function is
    sum_a v_a x^a = (1+x)^(g-1) (1-x+x^2)^g 2F1(-g, 1; 3/2; z) / (24^g g!)
    with z = -3x/(1-x+x^2), v_a = <tau_a tau_{3g-1-a}>_g.  Gauss's equation
    pulled back along z(x) is a second-order ODE with polynomial
    coefficients, whose x^a coefficient gives, for a >= -4 and v_b = 0 at
    b < 0, sum_{i=0..5} q_i(a) v_{a+i} = 0 with
      q_0 = -(a-3g+1)(2a-6g+1),    q_1 = -3(2ag-2a-6g^2+8g-3),
      q_2 = 2a^2-6ag+9a-3g+10,     q_3 = -2a^2+6ag-15a+12g-28,
      q_4 = -3(2ag-2a+10g-9),      q_5 = (a+5)(2a+11) != 0.
    The half row follows from the seed v_0 = 1/(24^g g!), numerator
    4^g (2g+1)!!, in O(g) integer steps, each dividing exactly by q_5: a
    remainder would mean a wrong recurrence, and raises.
    """
    seed = 4**g * odd_double_factorial(g)
    v = [0, 0, 0, 0, seed]  # numerators of v_{-4} .. v_0
    for a in range(-4, (3 * g - 1) // 2 - 4):
        # q_5 v_{a+5} = -(q_0 v_a + .. + q_4 v_{a+4}), v_a .. v_{a+4} = v[-5:]
        rest = (a - 3 * g + 1) * (2 * a - 6 * g + 1) * v[-5]
        rest += 3 * (2 * a * g - 2 * a - 6 * g * g + 8 * g - 3) * v[-4]
        rest -= (2 * a * a - 6 * a * g + 9 * a - 3 * g + 10) * v[-3]
        rest += (2 * a * a - 6 * a * g + 15 * a - 12 * g + 28) * v[-2]
        rest += 3 * (2 * a * g - 2 * a + 10 * g - 9) * v[-1]
        num, rem = divmod(rest, (a + 5) * (2 * a + 11))
        if rem:
            raise ArithmeticError(f"two-point recurrence leaves a remainder at g={g}, a={a + 5}")
        v.append(num)
    return v[4:], seed * 24**g * factorial(g)


def _descent(g: int, d: tuple[int, ...], t: BracketTable) -> int:
    """One DVV step (see the module docstring) on a key of genus >= 1 with
    n >= 3 exponents, on the pivot its rule picks.  A reducible term reads
    its factors as entries r of row d_I and k-1-r of row d_J, looked up once
    per split and filled by `fill_row` on a miss; every other sub-key goes
    through _bracket, which closes those with n <= 2.  So every sub-key is
    computed and memoized once, in the order the step reads it.  Each term
    is shifted up by the bits its scale lacks against the key's (see
    Integrality), one fewer for the 1/2 of a self-mirror term.
    """
    if d[0] == 1:
        # k = 0, the dilaton equation: every descent term reads d[1:]
        return 6 * (2 * g - 3 + len(d)) * _bracket(g, d[1:], t)
    k, rest = (-1, d[1:]) if d[0] == 0 else (d[-1] - 1, d[:-1])
    total = 0

    # descent: move one remaining exponent by k (group equal values); the
    # first of a run stays in place when lowered, so only k >= 1 sorts
    for i, x in enumerate(rest):
        if x + k >= 0 and (i == 0 or rest[i - 1] != x):
            sub = rest[:i] + (x + k,) + rest[i + 1 :]
            total += rest.count(x) * (2 * x + 1) * _bracket(g, tuple(sorted(sub)) if k > 0 else sub, t)
    total <<= 1
    if k < 0:  # the string equation has no boundary terms
        return total

    # boundary terms (k >= 1 since every exponent is >= 2), one per mirror
    # pair; a self-mirror term keeps the 1/2, one shift less
    for r in range((k + 1) // 2):
        # irreducible: genus drops, both new insertions on one component
        total += _bracket(g - 1, tuple(sorted(rest + (r, k - 1 - r))), t) << (2 + (2 * r != k - 1))
    # reducible: the left genus (r + c)/3 is forced by its dimension, so r
    # runs over one residue class mod 3; c > 0 as every exponent of rest is
    # >= 2, so that genus is >= 1 (and so is the right one, likewise)
    for left, right, count in submultiset_splits(rest):
        if left <= right:
            c = sum(left) - len(left) + 2
            rs = range(-c % 3, min((k - 1) // 2 if left == right else k - 1, 3 * g - c) + 1, 3)
            if rs:  # no row for a split without terms
                lrow = t._rows[left]
                rrow = t._rows[right]
                for r in rs:
                    lv = lrow.get(r)
                    if lv is None:
                        lv = fill_row(t, left, r)
                    rv = rrow.get(k - 1 - r)
                    if rv is None:
                        rv = fill_row(t, right, k - 1 - r)
                    total += (count * lv * rv) << (2 * r != k - 1 or left != right)
    return total


def fill_row(t: BracketTable, E: tuple[int, ...], j: int) -> int:
    """Store and return the missing entry j of row E (BracketTable._rows):
    2^B S(j, E) at the genus (j + sum(E) - |E| + 2)/3 that the dimension
    fixes, whole for every caller's j, read through sigma_bracket."""
    v = t._rows[E][j] = sigma_bracket((j + sum(E) - len(E) + 2) // 3, (j,) + E, t)
    return v


class CacheError(ValueError):
    """Raised when a cache file fails to parse or verify."""


_TRAILER = "#sha256="


def _cache_lines(table: BracketTable) -> list[str]:
    lines = []
    entries = sorted(table._data.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))
    for (g, exps), v in entries:
        den = sigma_weight(exps) << sigma_scale(g, len(exps))
        c = gcd(v, den)
        value = f"{v // c}/{den // c}" if den != c else str(v // c)
        lines.append(f"{g}|{','.join(map(str, exps))}|{value}")
    return lines


def cache_save(table: BracketTable, destination: str | IO[str]) -> int:
    """Write the table in the TAUCACHE v1 text format; returns entry count.

    A path is written through a temporary file in the same directory that
    then replaces the target, so a crash mid-write never leaves a
    truncated cache behind.  An OSError on that file names the destination,
    not the temporary file, and leaves neither behind.
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
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            if isinstance(exc, OSError) and exc.filename == tmp:
                raise type(exc)(exc.errno, exc.strerror, destination) from None
            raise
    else:
        destination.write(body)
    return len(lines)


def cache_load(source: str | IO[str], verify: bool = False) -> BracketTable:
    """Parse a TAUCACHE file into a fresh table.

    The file must end with the checksum trailer that cache_save writes;
    a file without it, or with entries after it, is rejected, and so are a
    second line with the key of an earlier one and a value whose V (see
    Integrality in the module docstring) is no int.  A key the engine never
    stores (see _storable), and a one-point key whose value is not
    1/(24^g g!), are rejected before a weight is computed, and the weights
    are computed in a memo local to the load, so a hostile file cannot fill
    the process-wide factorial caches.  A file that is not UTF-8 is rejected
    with the line of its first bad byte.
    With verify=True every entry is recomputed on a private empty table and a
    mismatch aborts the load.  A line is split once, its ints read by `map`.
    """
    try:
        if isinstance(source, str):
            with open(source, "rb") as fh:
                text = fh.read().decode("utf-8")
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        # a fresh text stream's decoder raises with all of its bytes
        raw = exc.object
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise CacheError(f"line {lineno}: not UTF-8: byte {raw[exc.start]:#04x} ({exc.reason})") from None

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
    # the line each key was read from; cache_save never writes a key twice
    first_line: dict[tuple[int, tuple[int, ...]], int] = {}
    # (2d+1)!! memoized for this load only, not in odd_double_factorial
    weight = lru_cache(maxsize=None)(lambda d: prod(range(2 * d + 1, 0, -2)))
    sealed = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
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
            exps = tuple(map(int, parts[1].split(","))) if parts[1] else ()
            num, den = parse_ratio(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise CacheError(f"line {lineno}: malformed entry {line!r}: {exc}") from None
        if not _storable(g, exps):
            raise CacheError(f"line {lineno}: no bracket has the key of {line!r}")
        first = first_line.setdefault((g, exps), lineno)
        if first != lineno:
            raise CacheError(f"line {lineno}: the key of {line!r} was already read on line {first}")
        # 1/(24^g g!) has over 4g bits of denominator: check that first
        if len(exps) == 1 and (den.bit_length() <= 4 * g or Fraction(num, den) != one_point(g)):
            raise CacheError(f"line {lineno}: stored value {parts[2]} is not 1/(24^g g!)")
        if verify:
            recomputed = bracket(g, exps, scratch)
            if recomputed != Fraction(num, den):
                raise CacheError(
                    f"line {lineno}: stored value {parts[2]} contradicts "
                    f"recomputation {format_rational(recomputed)}"
                )
        try:
            table._data[(g, exps)] = _scaled((g, exps), prod(map(weight, exps)), num, den)
        except ValueError as exc:
            raise CacheError(f"line {lineno}: {exc} in {line!r}") from None
        entry_lines.append(line)
    if not sealed:
        raise CacheError(
            f"line {len(lines) + 1}: missing {_TRAILER} trailer (truncated file?)"
        )
    return table
