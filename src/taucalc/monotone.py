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

from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator

from .brackets import BracketTable, _two_point_numerators, bracket, one_point
from .combinat import multinomial, multisets_with_sum, partitions
from .reduction import kappa_to_psi
from .report import Report, timed_report

__all__ = [
    "comparing",
    "psi_swap_check",
    "psi_swap_deep",
    "two_point_row",
    "lambda_g_swap_check",
    "kappa_swap_check",
    "bounds_check",
    "psi_floor_check",
    "stable_strata",
]


def stable_strata(g_lo: int, g_max: int, n_lo: int, n_max: int, min_dim: int = 0):
    """The stable (g, n) of the grid with 3g - 3 + n >= min_dim.  Stability,
    2g - 2 + n > 0, already gives 3g - 3 + n >= 0 and 2g - 3 + n >= 0."""
    return [
        (g, n)
        for g in range(g_lo, g_max + 1)
        for n in range(n_lo, n_max + 1)
        if 2 * g - 2 + n > 0 and 3 * g - 3 + n >= min_dim
    ]


def _single_unit_moves(d: tuple[int, ...]):
    """Pairs (i, j) with d_i < d_j: move one unit from j to i."""
    for i in range(len(d)):
        for j in range(len(d)):
            if d[i] < d[j]:
                yield i, j


def _moves(multisets: Iterable[tuple[int, ...]], spectators_min: int = 0):
    """(d, sorted d after the move) for every single-unit move of every d.

    Exponents not taking part in a move must be >= spectators_min; the
    string/dilaton argument reduces the general psi case to spectators >= 2.
    """
    for d in multisets:
        for i, j in _single_unit_moves(d):
            if spectators_min and any(d[k] < spectators_min for k in range(len(d)) if k not in (i, j)):
                continue
            moved = list(d)
            moved[i] += 1
            moved[j] -= 1
            yield d, tuple(sorted(moved))


def _tally(outcomes: Iterable[dict | None]) -> tuple[Fraction, Fraction, dict]:
    """(comparisons, comparisons satisfied, extra) of a sweep whose outcomes
    are None for a satisfied comparison and a violation record otherwise."""
    checked = 0
    violations = []
    for v in outcomes:
        checked += 1
        if v is not None:
            violations.append(v)
    extra = {"violations": violations} if violations else {}
    return Fraction(checked), Fraction(checked - len(violations)), extra


def comparing(reports: Iterable[Report]) -> Iterator[Report]:
    """The reports if one of them compares something (a nonzero lhs, see
    `_tally`), else none, so that a run comparing nothing is an empty grid."""
    reports = iter(reports)
    held = []
    for r in reports:
        held.append(r)
        if r.lhs:
            yield from chain(held, reports)
            return


def _swap_sweep(
    ident: str,
    params: dict,
    cases: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
    value: Callable[[tuple[int, ...]], Fraction],
) -> Report:
    """Compare value(low) <= value(high) for every case, in case order.

    Each distinct multiset is evaluated once per sweep: a case shares its
    multisets with many others, so the values live in a dict that is
    dropped when the sweep returns.
    """
    seen: dict[tuple[int, ...], Fraction] = {}

    def at(d: tuple[int, ...]) -> Fraction:
        v = seen.get(d)
        if v is None:
            v = seen[d] = value(d)
        return v

    def outcomes():
        for low, high in cases:
            yield None if at(low) <= at(high) else {"smaller_side": low, "larger_side": high}

    return timed_report(ident, params, lambda: _tally(outcomes()))


def psi_swap_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """Pure psi-bracket monotonicity on one (g, n) stratum."""
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: g={genus}, n={n}")
    return _swap_sweep(
        "c51",
        {"g": genus, "n": n},
        _moves(multisets_with_sum(n, 3 * genus - 3 + n), spectators_min=2),
        lambda d: bracket(genus, d, table),
    )


def two_point_row(g: int) -> list[Fraction]:
    """All two-point brackets of one genus, cheapest first exponent up to
    the balanced middle: [<tau_d tau_{3g-1-d}>_g for d = 0 .. (3g-1)//2].

    Read as Fractions from the bracket engine's row builder, which runs
    the order-5 recurrence from the seed <tau_0 tau_{3g-1}>_g; psi_swap_deep
    compares the same row's integer numerators.
    """
    num, whole = _two_point_numerators(g)
    return [Fraction(c, whole) for c in num]


def psi_swap_deep(g_max: int, progress: Callable[[str], None] | None = None) -> Report:
    """Two-point monotonicity for every genus up to g_max, one genus at a
    time so interruption keeps the completed prefix meaningful."""

    def outcomes():
        checked = bad = 0
        for g in range(1, g_max + 1):
            # the row's brackets share the denominator whole > 0, so their
            # order is the order of the integer numerators
            values, _ = _two_point_numerators(g)
            for d in range(len(values) - 1):
                checked += 1
                ok = values[d] <= values[d + 1]
                bad += not ok
                yield None if ok else {"g": g, "d": (d, 3 * g - 1 - d)}
            if progress is not None:
                progress(f"g={g} checked={checked} violations={bad}")

    return timed_report("c51deep", {"n": 2, "g_max": g_max}, lambda: _tally(outcomes()))


def lambda_g_swap_check(genus: int, n: int) -> Report:
    """With the top lambda class the comparison reduces to multinomial
    monotonicity: the constant factor cancels from both sides."""
    if genus < 1 or 2 * genus - 2 + n <= 0:
        raise ValueError(f"needs g >= 1 and stability, got g={genus}, n={n}")
    # stability makes the degree 2g - 3 + n nonnegative
    return _swap_sweep(
        "c51lambda",
        {"g": genus, "n": n},
        _moves(multisets_with_sum(n, 2 * genus - 3 + n)),
        lambda d: Fraction(multinomial(d)),
    )


def kappa_swap_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """kappa-pair swaps inside lambda-free mixed integrals: compare
    <kappa_p kappa_q rest> with <kappa_{p+1} kappa_{q-1} rest>."""
    if 2 * genus - 2 + n <= 0:
        raise ValueError(f"unstable: g={genus}, n={n}")
    total = 3 * genus - 3 + n
    kappas = (a for m in range(2, total + 1) for a in multisets_with_sum(m, total))
    return _swap_sweep(
        "c52",
        {"g": genus, "n": n},
        _moves(kappas),
        lambda a: kappa_to_psi(genus, (0,) * n, a, table),
    )


def _psi_floor(genus: int, n: int, table: BracketTable | None, record: Callable[[tuple], dict]):
    """The outcomes of <tau_d>_g >= 1/(24^g g!) over the stratum's d."""
    floor_const = one_point(genus)
    for d in multisets_with_sum(n, 3 * genus - 3 + n):
        yield None if bracket(genus, d, table) >= floor_const else record(d)


def bounds_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """Weil-Petersson-style bounds:

      (2g-2+n)^{m-1} / (24^g g!)  <=  <kappa_{a_1}..kappa_{a_m}>_{g,n}
                                  <=  <kappa_1^{3g-3+n}>_{g,n} / (2g-2+n)^{3g-3+n-m}

    over positive kappa multisets, plus the pure-psi floor
    <tau_d>_g >= 1/(24^g g!).
    """
    if genus < 1 or 2 * genus - 2 + n <= 0:
        raise ValueError(f"needs g >= 1 and stability, got g={genus}, n={n}")

    def outcomes():
        dim = 3 * genus - 3 + n
        base = 2 * genus - 2 + n
        floor_const = one_point(genus)
        # g >= 1 and stability make dim >= 1
        top = kappa_to_psi(genus, (0,) * n, (1,) * dim, table)
        for a in partitions(dim):
            m = len(a)
            v = kappa_to_psi(genus, (0,) * n, a, table)
            lower = Fraction(base ** (m - 1)) * floor_const
            yield None if lower <= v else {"kappa": a, "side": "lower"}
            yield None if v <= Fraction(top, base ** (dim - m)) else {"kappa": a, "side": "upper"}
        yield from _psi_floor(genus, n, table, lambda d: {"psi": d, "side": "psi-floor"})

    return timed_report("c53", {"g": genus, "n": n}, lambda: _tally(outcomes()))


def psi_floor_check(genus: int, n: int, table: BracketTable | None = None) -> Report:
    """Every pure psi-bracket on the stratum is at least 1/(24^g g!)."""
    if genus < 1 or 2 * genus - 2 + n <= 0:
        raise ValueError(f"needs g >= 1 and stability, got g={genus}, n={n}")
    return timed_report(
        "c54", {"g": genus, "n": n},
        lambda: _tally(_psi_floor(genus, n, table, lambda d: {"psi": d})),
    )
