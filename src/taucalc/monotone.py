"""Monotonicity sweeps: moving one unit of psi- or kappa-exponent from a
larger index to a smaller one never decreases the integral.

Each sweep checks single-unit ("adjacent") swaps only; a general
comparison with d_i < d_j decomposes into a chain of such moves, so
adjacent coverage implies the full statement on the swept range.  Sweep
reports carry the comparison count on the lhs and the satisfied count on
the rhs, so pass still means lhs == rhs; violating tuples are listed
verbatim.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from .brackets import BracketTable, _two_point_numerators, bracket
from .combinat import multinomial, multisets_with_sum, partitions
from .rationals import Rational
from .reduction import kappa_to_psi
from .report import Report

__all__ = [
    "psi_swap_check",
    "psi_swap_deep",
    "two_point_row",
    "lambda_g_swap_check",
    "kappa_swap_check",
    "bounds_check",
    "psi_floor_check",
]


def _single_unit_moves(d: tuple[int, ...]):
    """Pairs (i, j) with d_i < d_j: move one unit from j to i."""
    for i in range(len(d)):
        for j in range(len(d)):
            if d[i] < d[j]:
                yield i, j


def _swap_sweep(
    ident: str,
    params: dict,
    cases: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
    value: Callable[[tuple[int, ...]], Rational],
) -> Report:
    """Compare value(low) <= value(high) for every case, in case order.

    Each distinct multiset is evaluated once per sweep: a case shares its
    multisets with many others, so the values live in a dict that is
    dropped when the sweep returns.
    """
    start = time.perf_counter()
    checked = satisfied = 0
    violations = []
    seen: dict[tuple[int, ...], Rational] = {}

    def at(d: tuple[int, ...]) -> Rational:
        v = seen.get(d)
        if v is None:
            v = seen[d] = value(d)
        return v

    for low, high in cases:
        checked += 1
        if at(low) <= at(high):
            satisfied += 1
        else:
            violations.append({"smaller_side": low, "larger_side": high})
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        id=ident,
        params=params,
        lhs=Fraction(checked),
        rhs=Fraction(satisfied),
        ms=ms,
        extra={"violations": violations} if violations else {},
    )


def _psi_cases(genus: int, n: int, spectators_min: int):
    """All (d, d-after-move) pairs over exponent multisets of the stratum.

    Exponents not taking part in the move must be >= spectators_min; the
    string/dilaton argument reduces the general case to spectators >= 2.
    """
    total = 3 * genus - 3 + n
    for d in multisets_with_sum(n, total):
        for i, j in _single_unit_moves(d):
            rest = [d[k] for k in range(n) if k not in (i, j)]
            if any(x < spectators_min for x in rest):
                continue
            moved = list(d)
            moved[i] += 1
            moved[j] -= 1
            yield d, tuple(sorted(moved))


def psi_swap_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """Pure psi-bracket monotonicity on one (g, n) stratum."""
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: g={genus}, n={n}")
    return _swap_sweep(
        "c51",
        {"g": genus, "n": n},
        _psi_cases(genus, n, spectators_min=2),
        lambda d: bracket(genus, d, table),
    )


def two_point_row(g: int) -> list[Fraction]:
    """All two-point brackets of one genus, cheapest first exponent up to
    the balanced middle: [<tau_d tau_{3g-1-d}>_g for d = 0 .. (3g-1)//2].

    Read from the closed two-point family one genus at a time, so deep
    sweeps stream results instead of building one giant series first.
    """
    num, whole = _two_point_numerators(g)
    return [Fraction(c, whole) for c in num]


def psi_swap_deep(g_max: int, progress: Callable[[str], None] | None = None) -> Report:
    """Two-point monotonicity for every genus up to g_max, one genus at a
    time so interruption keeps the completed prefix meaningful."""
    start = time.perf_counter()
    checked = satisfied = 0
    violations = []
    for g in range(1, g_max + 1):
        values = two_point_row(g)
        total = 3 * g - 1
        for d in range(len(values) - 1):
            checked += 1
            if values[d] <= values[d + 1]:
                satisfied += 1
            else:
                violations.append({"g": g, "d": (d, total - d)})
        if progress is not None:
            progress(f"g={g} checked={checked} violations={len(violations)}")
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        id="c51deep",
        params={"n": 2, "g_max": g_max},
        lhs=Fraction(checked),
        rhs=Fraction(satisfied),
        ms=ms,
        extra={"violations": violations} if violations else {},
    )


def lambda_g_swap_check(genus: int, n: int) -> Report:
    """With the top lambda class the comparison reduces to multinomial
    monotonicity: the constant factor cancels from both sides."""
    if genus < 1 or 2 * genus - 2 + n <= 0:
        raise ValueError(f"needs g >= 1 and stability, got g={genus}, n={n}")
    total = 2 * genus - 3 + n
    if total < 0:
        raise ValueError("empty stratum")

    cases = []
    for d in multisets_with_sum(n, total):
        for i, j in _single_unit_moves(d):
            moved = list(d)
            moved[i] += 1
            moved[j] -= 1
            cases.append((d, tuple(sorted(moved))))
    return _swap_sweep(
        "c51lambda",
        {"g": genus, "n": n},
        cases,
        lambda d: Fraction(multinomial(d)),
    )


def kappa_swap_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """kappa-pair swaps inside lambda-free mixed integrals: compare
    <kappa_p kappa_q rest> with <kappa_{p+1} kappa_{q-1} rest>."""
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: g={genus}, n={n}")
    total = 3 * genus - 3 + n
    cases = []
    for m in range(2, total + 1):
        for a in multisets_with_sum(m, total, min_part=0):
            for i, j in _single_unit_moves(a):
                moved = list(a)
                moved[i] += 1
                moved[j] -= 1
                cases.append((a, tuple(sorted(moved))))
    psi = (0,) * n
    return _swap_sweep(
        "c52",
        {"g": genus, "n": n},
        cases,
        lambda a: kappa_to_psi(genus, psi, a, table),
    )


def bounds_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """Weil-Petersson-style bounds:

      (2g-2+n)^{m-1} / (24^g g!)  <=  <kappa_{a_1}..kappa_{a_m}>_{g,n}
                                  <=  <kappa_1^{3g-3+n}>_{g,n} / (2g-2+n)^{3g-3+n-m}

    over positive kappa multisets, plus the pure-psi floor
    <tau_d>_g >= 1/(24^g g!).
    """
    if genus < 1 or 2 * genus - 2 + n <= 0:
        raise ValueError(f"needs g >= 1 and stability, got g={genus}, n={n}")
    start = time.perf_counter()
    dim = 3 * genus - 3 + n
    floor_const = Fraction(1, 24**genus * factorial(genus))
    base = 2 * genus - 2 + n
    top = kappa_to_psi(genus, (0,) * n, (1,) * dim, table) if dim else None

    checked = satisfied = 0
    violations = []
    for a in partitions(dim):
        m = len(a)
        v = kappa_to_psi(genus, (0,) * n, a, table)
        lower = Fraction(base ** (m - 1)) * floor_const
        checked += 1
        if lower <= v:
            satisfied += 1
        else:
            violations.append({"kappa": a, "side": "lower"})
        if top is not None:
            checked += 1
            if v <= Fraction(top, base ** (dim - m)):
                satisfied += 1
            else:
                violations.append({"kappa": a, "side": "upper"})
    for d in multisets_with_sum(n, dim):
        checked += 1
        if bracket(genus, d, table) >= floor_const:
            satisfied += 1
        else:
            violations.append({"psi": d, "side": "psi-floor"})
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        id="c53",
        params={"g": genus, "n": n},
        lhs=Fraction(checked),
        rhs=Fraction(satisfied),
        ms=ms,
        extra={"violations": violations} if violations else {},
    )


def psi_floor_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """Every pure psi-bracket on the stratum is at least 1/(24^g g!)."""
    if genus < 1 or 2 * genus - 2 + n <= 0:
        raise ValueError(f"needs g >= 1 and stability, got g={genus}, n={n}")
    start = time.perf_counter()
    floor_const = Fraction(1, 24**genus * factorial(genus))
    checked = satisfied = 0
    violations = []
    for d in multisets_with_sum(n, 3 * genus - 3 + n):
        checked += 1
        if bracket(genus, d, table) >= floor_const:
            satisfied += 1
        else:
            violations.append({"psi": d})
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        id="c54",
        params={"g": genus, "n": n},
        lhs=Fraction(checked),
        rhs=Fraction(satisfied),
        ms=ms,
        extra={"violations": violations} if violations else {},
    )
