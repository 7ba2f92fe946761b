"""Exact two-sided evaluation of the intersection-number identities.

Every verifier computes its closed-form side from factorials and double
factorials only, and its bracket side through the recursion engine, then
reports exact rational equality.  Conjectural identities are *reported*,
never assumed: a failing tuple comes back with both values for triage.

The splitting sums behind the c32-c35 families and the eq3/eq5/eq7/eq8
insertion combinations all go through `split_sum`.  It returns 0 at once
unless the genus fits both factors' dimensions, reads each factor from a
row <tau_j prod tau_E>, in the engine's dyadic (num, e) form, that the
bracket table keeps per sorted extras multiset E (derived data, never
saved), accumulates integer numerators, and builds one Fraction per call.

Identity ids (also the CLI tokens):

  eq4   alternating pair sum with d_j >= 1, sum(d_j - 1) = g - 1 equals
        (2g-1+n)! / (2^{2g} (2g+1)! prod (2d_j-1)!!)
  eq6   the same alternating sum vanishes for K > g
  eq5   tau_{2g} insertion written through descent and genus splittings
  eq7   the K > g complement of eq5
  eq8   tau_{2g-2} insertion variant with an explicit constant
  eq3   the lambda_g lambda_{g-1} proportionality in pure-psi form
  c32   paired-insertion splitting identities (a: vanishing-range, b: constant)
  c33   tau_{2K+2} with m spectator insertions (a, b as above)
  c34   tau_{2K+s+1} with m spectators and one tau_s partner (a, b)
  c35   two-sided spectator convolutions with dimension-inferred genera (a, b)
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, islice
from math import factorial, lcm
from typing import Any, Iterable, Iterator

from .brackets import (
    BracketTable, bracket, default_table, dyadic_ratio, sigma_bracket, sigma_weight,
)
from .combinat import multisets_with_sum, submultiset_splits
from .rationals import odd_double_factorial
from .report import Report

__all__ = [
    "ParameterError",
    "SweepLimits",
    "IDENTITY_IDS",
    "alt_pair_sum",
    "split_sum",
    "verify",
    "instances",
    "run_sweep",
    "decomposition_check",
    "n1_proof_sums",
    "n1_sum_reports",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class ParameterError(ValueError):
    """A verifier was handed parameters violating the identity's constraints."""


def alt_pair_sum(K: int, genus: int, d: Iterable[int], table: BracketTable | None = None) -> Fraction:
    """sum_{j=0}^{2K} (-1)^j <tau_{2K-j} tau_j prod tau_d>_genus."""
    if K < 0:
        raise ParameterError("K must be nonnegative")
    d = tuple(d)
    total = _ZERO
    for j in range(2 * K + 1):
        v = bracket(genus, (2 * K - j, j) + d, table)
        total += v if j % 2 == 0 else -v
    return total


@lru_cache(maxsize=None)
def _splits(d: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """submultiset_splits(d), kept per sorted d: a sweep meets few distinct d."""
    return tuple(submultiset_splits(d))


@lru_cache(maxsize=None)
def _pair_scale(K: int) -> tuple[int, tuple[int, ...]]:
    """(L, ((-1)^j L / ((2j+1)!! (2K-2j+1)!!) for j = 0..K)), L their lcm."""
    w = [odd_double_factorial(j) * odd_double_factorial(K - j) for j in range(K + 1)]
    L = lcm(*w)
    return L, tuple((-1) ** j * (L // x) for j, x in enumerate(w))


def split_sum(
    K: int,
    left_extras: Iterable[int],
    right_extras: Iterable[int],
    genus: int,
    d: Iterable[int],
    table: BracketTable | None = None,
) -> Fraction:
    """sum over ordered pairs I ⊔ J of {1..n}, genus splittings and j of

        (-1)^j <tau_j prod(left_extras) prod_I tau_d>_{g'}
               <tau_{K-j} prod(right_extras) prod_J tau_d>_{g-g'}

    Unstable or dimension-violating factors vanish.  Both factors fit their
    dimensions only if K + sum(extras) + sum(d) + 4 - |extras| - |d| = 3g,
    so any other call is 0 before a bracket is read.  Then each factor sits
    at the one genus its own dimension fixes, g' is determined by j, and
    only the j in one residue class mod 3 contribute.

    Each factor is read from the row B(j, E) = <tau_j prod tau_E>, in the
    engine's sigma form (num, e), that the table keeps per sorted E (see
    BracketTable.row), filled on first use in the same order as the bracket
    lookups it replaces.  The sigma weights of d and the extras are the same
    for every split, and `_pair_scale` puts those of tau_j and tau_{K-j} over
    one denominator, so terms add as integers per e into one Fraction.
    """
    if K < 0:
        raise ParameterError("K must be nonnegative")
    left = tuple(left_extras)
    right = tuple(right_extras)
    d = tuple(sorted(d))
    if K + sum(left) + sum(right) + sum(d) + 4 - len(left) - len(right) - len(d) != 3 * genus:
        return _ZERO
    t = table if table is not None else default_table()
    den, scale = _pair_scale(K)
    acc: dict[int, int] = {}
    for dI, dJ, count in _splits(d):
        left_e = tuple(sorted(left + dI))
        right_e = tuple(sorted(right + dJ))
        lrow = t.row(left_e)
        rrow = t.row(right_e)
        # the left factor fits its dimension at genus g' iff j = lo + 3 g'
        lo = len(left_e) - 2 - sum(left_e)
        start = lo if lo >= 0 else lo % 3
        for j in range(start, min(K, lo + 3 * genus) + 1, 3):
            lv = lrow.get(j)
            if lv is None:
                lv = lrow[j] = sigma_bracket((j - lo) // 3, (j,) + left_e, t)
            ln, le = lv
            if not ln:
                continue
            rv = rrow.get(K - j)
            if rv is None:
                rv = rrow[K - j] = sigma_bracket(genus - (j - lo) // 3, (K - j,) + right_e, t)
            rn, re = rv
            if not rn:
                continue
            e = le + re
            acc[e] = acc.get(e, 0) + count * ln * rn * scale[j]
    if not acc:
        return _ZERO
    top = max(acc)
    num = sum(v << (top - e) for e, v in acc.items())
    return Fraction(*dyadic_ratio((num, top), den * sigma_weight(left + right + d)))


def _dfact_prod(d: Iterable[int]) -> int:
    out = 1
    for x in d:
        out *= odd_double_factorial(x - 1)
    return out


def _insertion_combo(genus: int, X: int, d: tuple[int, ...], table) -> Fraction:
    """<tau_d tau_{2X}>_g - sum_j <..tau_{d_j+2X-1}..>_g + 1/2 * split(2X-2)."""
    combo = bracket(genus, d + (2 * X,), table)
    for j in range(len(d)):
        combo -= bracket(genus, d[:j] + (d[j] + 2 * X - 1,) + d[j + 1 :], table)
    if X >= 1:
        combo += _HALF * split_sum(2 * X - 2, (), (), genus, d, table)
    return combo


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _norm_d(params: dict) -> tuple[int, ...]:
    return tuple(sorted(params["d"]))


# ---------------------------------------------------------------------------
# per-identity evaluators: params -> (lhs, rhs, extra)

def _eval_eq4(p, table):
    g, d = p["g"], _norm_d(p)
    n = len(d)
    _require(n >= 1, "eq4 needs n >= 1")
    _require(all(x >= 1 for x in d), "eq4 needs d_j >= 1")
    _require(sum(x - 1 for x in d) == g - 1, "eq4 needs sum(d_j - 1) = g - 1")
    lhs = alt_pair_sum(g, g, d, table)
    rhs = Fraction(
        factorial(2 * g - 1 + n), 2 ** (2 * g) * factorial(2 * g + 1) * _dfact_prod(d)
    )
    return lhs, rhs, {}


def _eval_eq6(p, table):
    g, K, d = p["g"], p["K"], _norm_d(p)
    n = len(d)
    _require(n >= 1, "eq6 needs n >= 1")
    _require(K > g, "eq6 needs K > g")
    _require(all(x >= 0 for x in d), "eq6 needs d_j >= 0")
    _require(sum(d) == 3 * g + n - 2 * K - 1, "eq6 needs sum d = 3g + n - 2K - 1")
    return alt_pair_sum(K, g, d, table), _ZERO, {}


def _eval_eq5(p, table):
    g, d = p["g"], _norm_d(p)
    n = len(d)
    _require(g >= 1, "eq5 needs g >= 1")
    _require(n >= 1, "eq5 needs n >= 1")
    _require(all(x >= 0 for x in d), "eq5 needs d_j >= 0")
    _require(sum(d) == g + n - 2, "eq5 needs sum d = g + n - 2")
    return _insertion_combo(g, g, d, table), _ZERO, {}


def _eval_eq7(p, table):
    g, K, d = p["g"], p["K"], _norm_d(p)
    n = len(d)
    _require(n >= 1, "eq7 needs n >= 1")
    _require(K > g, "eq7 needs K > g")
    _require(all(x >= 0 for x in d), "eq7 needs d_j >= 0")
    _require(sum(d) == 3 * g + n - 2 * K - 2, "eq7 needs sum d = 3g + n - 2K - 2")
    return _insertion_combo(g, K, d, table), _ZERO, {}


def _eval_eq8(p, table):
    g, d = p["g"], _norm_d(p)
    n = len(d)
    _require(g >= 2, "eq8 needs g >= 2")
    _require(n >= 1, "eq8 needs n >= 1")
    _require(all(x >= 1 for x in d), "eq8 needs d_j >= 1")
    _require(sum(x - 1 for x in d) == g, "eq8 needs sum(d_j - 1) = g")
    lhs = _insertion_combo(g, g - 1, d, table)
    rhs = Fraction(
        factorial(2 * g - 3 + n),
        2 ** (2 * g + 1) * factorial(2 * g - 3) * _dfact_prod(d),
    )
    return lhs, rhs, {}


def _eval_eq3(p, table):
    g, d = p["g"], _norm_d(p)
    n = len(d)
    _require(g >= 2, "eq3 needs g >= 2")
    _require(n >= 1, "eq3 needs n >= 1")
    _require(all(x >= 1 for x in d), "eq3 needs d_j >= 1")
    _require(sum(x - 1 for x in d) == g - 2, "eq3 needs sum(d_j - 1) = g - 2")
    lhs = _insertion_combo(g, g, d, table) + _HALF * alt_pair_sum(g - 1, g - 1, d, table)
    rhs = Fraction(
        factorial(2 * g - 3 + n),
        2 ** (2 * g - 1) * factorial(2 * g - 1) * _dfact_prod(d),
    )
    return lhs, rhs, {}


def _eval_c32a(p, table):
    g, K, r, s, d = p["g"], p["K"], p["r"], p["s"], _norm_d(p)
    n = len(d)
    _require(K >= g, "c32a needs K >= g")
    _require(r >= 0 and s >= 0, "c32a needs r, s >= 0")
    _require(all(x >= 0 for x in d), "c32a needs d_j >= 0")
    _require(
        sum(d) == 3 * g + n - 2 * K - r - s - 2,
        "c32a needs sum d = 3g + n - 2K - r - s - 2",
    )
    lhs = bracket(g, (2 * K + r + 1, s) + d, table) + bracket(g, (2 * K + s + 1, r) + d, table)
    rhs = split_sum(2 * K, (r,), (s,), g, d, table)
    return lhs, rhs, {}


def _eval_c32b(p, table):
    g, r, s, d = p["g"], p["r"], p["s"], _norm_d(p)
    n = len(d)
    _require(g >= 1, "c32b needs g >= 1")
    _require(r >= 0 and s >= 0, "c32b needs r, s >= 0")
    _require(all(x >= 1 for x in d), "c32b needs d_j >= 1")
    _require(sum(d) == g + n - r - s, "c32b needs sum d = g + n - r - s")
    lhs = Fraction(
        factorial(2 * g - 1 + n),
        odd_double_factorial(r)
        * odd_double_factorial(s)
        * 4**g
        * factorial(2 * g - 1)
        * _dfact_prod(d),
    )
    rhs = (
        bracket(g, (2 * g + r - 1, s) + d, table)
        + bracket(g, (2 * g + s - 1, r) + d, table)
        - split_sum(2 * g - 2, (r,), (s,), g, d, table)
    )
    return lhs, rhs, {}


def _c33_descent(g, K, r, d, table):
    combo = bracket(g, (2 * K + 2,) + r + d, table)
    descent = _ZERO
    for j in range(len(d)):
        descent += bracket(g, d[:j] + (d[j] + 2 * K + 1,) + d[j + 1 :] + r, table)
    return combo, descent


def _eval_c33a(p, table):
    g, K, m, r, d = p["g"], p["K"], p["m"], tuple(sorted(p["r"])), _norm_d(p)
    n = len(d)
    _require(m >= 2, "c33a needs m >= 2")
    _require(len(r) == m, "c33a needs len(r) = m")
    _require(K >= g + m // 2 - 1, "c33a needs K >= g + floor(m/2) - 1")
    _require(all(x >= 0 for x in r), "c33a needs r_p >= 0")
    _require(all(x >= 0 for x in d), "c33a needs d_j >= 0")
    _require(
        sum(d) == 3 * g + n - 2 * K - sum(r) + m - 4,
        "c33a needs sum d = 3g + n - 2K - sum r + m - 4",
    )
    head, descent = _c33_descent(g, K, r, d, table)
    lhs = head
    rhs = descent - split_sum(2 * K, r, (), g, d, table)
    return lhs, rhs, {}


def _eval_c33b(p, table):
    g, m, r, d = p["g"], p["m"], tuple(sorted(p["r"])), _norm_d(p)
    n = len(d)
    _require(m >= 2, "c33b needs m >= 2")
    _require(len(r) == m, "c33b needs len(r) = m")
    K = g + m // 2 - 2
    _require(K >= 0, "c33b is vacuous here: K = g + floor(m/2) - 2 < 0")
    _require(all(x >= 1 for x in d), "c33b needs d_j >= 1")
    if m % 2:
        _require(all(x >= 1 for x in r), "c33b with odd m needs r_p >= 1")
    _require(
        sum(d) == g + n - sum(r) + m - 2 * (m // 2),
        "c33b needs sum d = g + n - sum r + m - 2 floor(m/2)",
    )
    c = (sum(2 * x for x in r) + m) * (g + (m - 3) // 2) if m % 2 else 1
    den = 4**g * factorial(2 * g - 3 + m) * _dfact_prod(d)
    for x in r:
        den *= odd_double_factorial(x)
    lhs = Fraction(c * factorial(2 * g - 3 + n + m), den)
    head, descent = _c33_descent(g, K, r, d, table)
    rhs = head - descent + split_sum(2 * K, r, (), g, d, table)
    return lhs, rhs, {"K": K}


def _eval_c34a(p, table):
    g, K, m, s, r, d = p["g"], p["K"], p["m"], p["s"], tuple(sorted(p["r"])), _norm_d(p)
    n = len(d)
    _require(m >= 2, "c34a needs m >= 2")
    _require(len(r) == m, "c34a needs len(r) = m")
    _require(K >= g + (m - 1) // 2, "c34a needs K >= g + floor((m-1)/2)")
    _require(s >= 0 and all(x >= 0 for x in r), "c34a needs s, r_p >= 0")
    _require(all(x >= 0 for x in d), "c34a needs d_j >= 0")
    _require(
        sum(d) == 3 * g + n - 2 * K - s - sum(r) + m - 3,
        "c34a needs sum d = 3g + n - 2K - s - sum r + m - 3",
    )
    lhs = bracket(g, (2 * K + s + 1,) + r + d, table)
    rhs = split_sum(2 * K, r, (s,), g, d, table)
    return lhs, rhs, {}


def _eval_c34b(p, table):
    g, m, s, r, d = p["g"], p["m"], p["s"], tuple(sorted(p["r"])), _norm_d(p)
    n = len(d)
    _require(m >= 2, "c34b needs m >= 2")
    _require(len(r) == m, "c34b needs len(r) = m")
    K = g + (m - 1) // 2 - 1
    _require(K >= 0, "c34b is vacuous here: K = g + floor((m-1)/2) - 1 < 0")
    _require(all(x >= 1 for x in d), "c34b needs d_j >= 1")
    if m % 2 == 0:
        _require(s >= 1, "c34b with even m needs s >= 1")
        _require(all(x >= 1 for x in r), "c34b with even m needs r_p >= 1")
    _require(
        sum(d) == g + n - s - sum(r) + m - 2 * ((m - 1) // 2) - 1,
        "c34b needs sum d = g + n - s - sum r + m - 2 floor((m-1)/2) - 1",
    )
    c = (sum(2 * x for x in r) - 2 * s + m - 1) * (g + m // 2 - 1) if m % 2 == 0 else 1
    den = 4**g * factorial(2 * g - 2 + m) * odd_double_factorial(s) * _dfact_prod(d)
    for x in r:
        den *= odd_double_factorial(x)
    lhs = Fraction(c * factorial(2 * g - 2 + n + m), den)
    rhs = bracket(g, (2 * K + s + 1,) + r + d, table) - split_sum(
        2 * K, r, (s,), g, d, table
    )
    return lhs, rhs, {"K": K}


_GENUS_NOTE = "per-factor genus inferred from its own dimension constraint"


def _eval_c35a(p, table):
    g, K, m, l = p["g"], p["K"], p["m"], p["l"]
    r, s, d = tuple(sorted(p["r"])), tuple(sorted(p["s"])), _norm_d(p)
    n = len(d)
    _require(m >= 2 and l >= 2, "c35a needs m, l >= 2")
    _require(len(r) == m and len(s) == l, "c35a needs len(r) = m, len(s) = l")
    _require(K > 2 * g + m + l - 4, "c35a needs K > 2g + m + l - 4")
    _require(all(x >= 0 for x in r + s + d), "c35a needs nonnegative indices")
    _require(
        sum(d) == 3 * g + n + m + l - K - sum(r) - sum(s) - 4,
        "c35a needs sum d = 3g + n + m + l - K - sum r - sum s - 4",
    )
    lhs = split_sum(K, r, s, g, d, table)
    return lhs, _ZERO, {"genus_convention": _GENUS_NOTE}


def _eval_c35b(p, table):
    g, m, l = p["g"], p["m"], p["l"]
    r, s, d = tuple(sorted(p["r"])), tuple(sorted(p["s"])), _norm_d(p)
    n = len(d)
    _require(m >= 2 and l >= 2, "c35b needs m, l >= 2")
    _require(len(r) == m and len(s) == l, "c35b needs len(r) = m, len(s) = l")
    K = 2 * g + m + l - 4
    _require(all(x >= 1 for x in d), "c35b needs d_j >= 1")
    _require(all(x >= 0 for x in r + s), "c35b needs r_p, s_p >= 0")
    _require(
        sum(d) == g + n - sum(r) - sum(s),
        "c35b needs sum d = g + n - sum r - sum s",
    )
    lhs = split_sum(K, r, s, g, d, table)
    den = 4**g * factorial(2 * g + m + l - 3) * _dfact_prod(d)
    for x in r + s:
        den *= odd_double_factorial(x)
    rhs = Fraction((-1) ** m * factorial(2 * g + n + m + l - 3), den)
    return lhs, rhs, {"K": K, "genus_convention": _GENUS_NOTE}


_EVALUATORS = {
    "eq3": _eval_eq3,
    "eq4": _eval_eq4,
    "eq5": _eval_eq5,
    "eq6": _eval_eq6,
    "eq7": _eval_eq7,
    "eq8": _eval_eq8,
    "c32a": _eval_c32a,
    "c32b": _eval_c32b,
    "c33a": _eval_c33a,
    "c33b": _eval_c33b,
    "c34a": _eval_c34a,
    "c34b": _eval_c34b,
    "c35a": _eval_c35a,
    "c35b": _eval_c35b,
}

IDENTITY_IDS = tuple(_EVALUATORS)


def verify(identity: str, table: BracketTable | None = None, **params: Any) -> Report:
    """Evaluate both sides of one identity instance exactly."""
    if identity not in _EVALUATORS:
        raise ParameterError(f"unknown identity id {identity!r}")
    start = time.perf_counter()
    lhs, rhs, extra = _EVALUATORS[identity](params, table)
    ms = (time.perf_counter() - start) * 1000.0
    clean = {k: (tuple(sorted(v)) if isinstance(v, (list, tuple)) else v) for k, v in params.items()}
    return Report(id=identity, params=clean, lhs=lhs, rhs=rhs, ms=ms, extra=extra)


# ---------------------------------------------------------------------------
# sweeps

class SweepLimits:
    """Parameter ranges for a verification sweep; ranges are configuration."""

    def __init__(
        self,
        g_max: int = 6,
        n_max: int = 4,
        k_span: int = 3,
        rs_max: int = 2,
        m_max: int = 3,
        l_max: int = 3,
    ):
        self.g_max = g_max
        self.n_max = n_max
        self.k_span = k_span
        self.rs_max = rs_max
        self.m_max = m_max
        self.l_max = l_max


def _d_range(n_lo, n_hi, total_for, min_part):
    for n in range(n_lo, n_hi + 1):
        total = total_for(n)
        if total < n * min_part:
            continue
        yield from ((n, d) for d in multisets_with_sum(n, total, min_part))


def instances(identity: str, limits: SweepLimits | None = None) -> Iterator[dict]:
    """Admissible parameter dictionaries for one identity on the grid."""
    lim = limits or SweepLimits()
    L = lim

    if identity == "eq4":
        for g in range(1, L.g_max + 1):
            for n, d in _d_range(1, L.n_max, lambda n, g=g: g - 1 + n, 1):
                yield {"g": g, "d": d}
    elif identity == "eq5":
        for g in range(1, L.g_max + 1):
            for n, d in _d_range(1, L.n_max, lambda n, g=g: g + n - 2, 0):
                yield {"g": g, "d": d}
    elif identity == "eq6":
        for g in range(0, L.g_max + 1):
            for K in range(g + 1, g + L.k_span + 1):
                for n, d in _d_range(1, L.n_max, lambda n, g=g, K=K: 3 * g + n - 2 * K - 1, 0):
                    yield {"g": g, "K": K, "d": d}
    elif identity == "eq7":
        for g in range(0, L.g_max + 1):
            for K in range(g + 1, g + L.k_span + 1):
                for n, d in _d_range(1, L.n_max, lambda n, g=g, K=K: 3 * g + n - 2 * K - 2, 0):
                    yield {"g": g, "K": K, "d": d}
    elif identity == "eq8":
        for g in range(2, L.g_max + 1):
            for n, d in _d_range(1, L.n_max, lambda n, g=g: g + n, 1):
                yield {"g": g, "d": d}
    elif identity == "eq3":
        for g in range(2, L.g_max + 1):
            for n, d in _d_range(1, L.n_max, lambda n, g=g: g - 2 + n, 1):
                yield {"g": g, "d": d}
    elif identity == "c32a":
        for g in range(0, L.g_max + 1):
            for K in range(g, g + L.k_span + 1):
                for r in range(L.rs_max + 1):
                    for s in range(r + 1):  # symmetric in (r, s)
                        for n, d in _d_range(
                            0, L.n_max, lambda n, g=g, K=K, r=r, s=s: 3 * g + n - 2 * K - r - s - 2, 0
                        ):
                            yield {"g": g, "K": K, "r": r, "s": s, "d": d}
    elif identity == "c32b":
        for g in range(1, L.g_max + 1):
            for r in range(L.rs_max + 1):
                for s in range(r + 1):
                    for n, d in _d_range(0, L.n_max, lambda n, g=g, r=r, s=s: g + n - r - s, 1):
                        yield {"g": g, "r": r, "s": s, "d": d}
    elif identity == "c33a":
        for g in range(0, L.g_max + 1):
            for m in range(2, L.m_max + 1):
                k_lo = max(g + m // 2 - 1, 0)
                for K in range(k_lo, k_lo + L.k_span):
                    for r in combinations_with_replacement(range(L.rs_max + 1), m):
                        for n, d in _d_range(
                            0, L.n_max,
                            lambda n, g=g, K=K, r=r, m=m: 3 * g + n - 2 * K - sum(r) + m - 4, 0,
                        ):
                            yield {"g": g, "K": K, "m": m, "r": r, "d": d}
    elif identity == "c33b":
        for g in range(1, L.g_max + 1):
            for m in range(2, L.m_max + 1):
                if g + m // 2 - 2 < 0:
                    continue
                lo = 1 if m % 2 else 0
                for r in combinations_with_replacement(range(lo, L.rs_max + 1), m):
                    for n, d in _d_range(
                        0, L.n_max,
                        lambda n, g=g, r=r, m=m: g + n - sum(r) + m - 2 * (m // 2), 1,
                    ):
                        yield {"g": g, "m": m, "r": r, "d": d}
    elif identity == "c34a":
        for g in range(0, L.g_max + 1):
            for m in range(2, L.m_max + 1):
                k_lo = g + (m - 1) // 2
                for K in range(k_lo, k_lo + L.k_span):
                    for s in range(L.rs_max + 1):
                        for r in combinations_with_replacement(range(L.rs_max + 1), m):
                            for n, d in _d_range(
                                0, L.n_max,
                                lambda n, g=g, K=K, s=s, r=r, m=m: 3 * g + n - 2 * K - s - sum(r) + m - 3, 0,
                            ):
                                yield {"g": g, "K": K, "m": m, "s": s, "r": r, "d": d}
    elif identity == "c34b":
        for g in range(1, L.g_max + 1):
            for m in range(2, L.m_max + 1):
                if g + (m - 1) // 2 - 1 < 0:
                    continue
                lo = 1 if m % 2 == 0 else 0
                for s in range(lo, L.rs_max + 1):
                    for r in combinations_with_replacement(range(lo, L.rs_max + 1), m):
                        for n, d in _d_range(
                            0, L.n_max,
                            lambda n, g=g, s=s, r=r, m=m: g + n - s - sum(r) + m - 2 * ((m - 1) // 2) - 1, 1,
                        ):
                            yield {"g": g, "m": m, "s": s, "r": r, "d": d}
    elif identity == "c35a":
        for g in range(0, L.g_max + 1):
            for m in range(2, L.m_max + 1):
                for l in range(2, L.l_max + 1):
                    k_lo = 2 * g + m + l - 3
                    for K in range(k_lo, k_lo + L.k_span):
                        for r in combinations_with_replacement(range(L.rs_max + 1), m):
                            for s in combinations_with_replacement(range(L.rs_max + 1), l):
                                for n, d in _d_range(
                                    0, L.n_max,
                                    lambda n, g=g, K=K, r=r, s=s, m=m, l=l:
                                        3 * g + n + m + l - K - sum(r) - sum(s) - 4, 0,
                                ):
                                    yield {"g": g, "K": K, "m": m, "l": l, "r": r, "s": s, "d": d}
    elif identity == "c35b":
        for g in range(0, L.g_max + 1):
            for m in range(2, L.m_max + 1):
                for l in range(2, L.l_max + 1):
                    for r in combinations_with_replacement(range(L.rs_max + 1), m):
                        for s in combinations_with_replacement(range(L.rs_max + 1), l):
                            for n, d in _d_range(
                                0, L.n_max,
                                lambda n, g=g, r=r, s=s: g + n - sum(r) - sum(s), 1,
                            ):
                                yield {"g": g, "m": m, "l": l, "r": r, "s": s, "d": d}
    else:
        raise ParameterError(f"unknown identity id {identity!r}")


def _verify_chunk(args: tuple[str, list[dict]]) -> tuple[list[Report], list]:
    """Worker side of run_sweep: the chunk's reports plus the memo entries
    the worker added while computing them (the table only ever grows, and
    dicts keep insertion order, so those are the entries past the old end)."""
    identity, chunk = args
    table = default_table()
    start = len(table)
    reports = [verify(identity, table=table, **p) for p in chunk]
    return reports, list(islice(table.items(), start, None))


def run_sweep(
    identity: str,
    limits: SweepLimits | None = None,
    jobs: int = 1,
    table: BracketTable | None = None,
) -> list[Report]:
    """All reports for one identity over the grid, in grid order with
    jobs=1 (report.reports_to_json puts them in canonical order).

    With jobs > 1 the grid is split over a process pool.  Each worker
    computes into its own process-wide table, and every entry it adds is
    put into `table` (the process-wide table when None), so the memo ends
    up as full as after a serial sweep.
    """
    params = list(instances(identity, limits))
    if jobs <= 1 or len(params) < 4:
        reports = [verify(identity, table=table, **p) for p in params]
    else:
        target = table if table is not None else default_table()
        chunks = [params[i::jobs] for i in range(jobs)]
        reports = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part, entries in pool.map(_verify_chunk, [(identity, c) for c in chunks]):
                reports += part
                for key, value in entries:
                    target.put(key, value)
    return reports


# ---------------------------------------------------------------------------
# the eq3 = eq5 + eq4@(g-1) decomposition and the one-point proof sums

def decomposition_check(genus: int, d: Iterable[int], table: BracketTable | None = None) -> Report:
    """Check that the lambda_g lambda_{g-1} identity decomposes termwise into
    the simpler identity plus half the alternating pair sum one genus down,
    constants included."""
    d = tuple(sorted(d))
    n = len(d)
    _require(genus >= 2, "decomposition needs g >= 2")
    _require(all(x >= 1 for x in d), "decomposition needs d_j >= 1")
    _require(sum(x - 1 for x in d) == genus - 2, "decomposition needs sum(d_j - 1) = g - 2")
    start = time.perf_counter()
    residual = _insertion_combo(genus, genus, d, table)
    half_alt = _HALF * alt_pair_sum(genus - 1, genus - 1, d, table)
    const_eq3 = Fraction(
        factorial(2 * genus - 3 + n),
        2 ** (2 * genus - 1) * factorial(2 * genus - 1) * _dfact_prod(d),
    )
    g1 = genus - 1
    const_eq4_prev = Fraction(
        factorial(2 * g1 - 1 + n), 2 ** (2 * g1) * factorial(2 * g1 + 1) * _dfact_prod(d)
    )
    consts_match = const_eq3 == _HALF * const_eq4_prev
    ms = (time.perf_counter() - start) * 1000.0
    return Report(
        id="decomp",
        params={"g": genus, "d": d},
        lhs=residual + half_alt,
        rhs=const_eq3 if consts_match else Fraction(-1),
        ms=ms,
        extra={
            "eq5_residual": residual,
            "half_alt_pair_sum": half_alt,
            "constants_match": consts_match,
        },
    )


def n1_proof_sums(genus: int, table: BracketTable | None = None) -> tuple[Fraction, Fraction, Fraction]:
    """The three auxiliary sums in the one-point case:

      S1 = sum_h (-1)^{g-h}/(24^{g-h}(g-h)!) <tau_0 tau_{3h-g-1} tau_{g+1}>_h
      S2 = same with <tau_0 tau_{3h-g} tau_g>_h
      S3 = same with <tau_{3h-g} tau_{g-1}>_h
    """
    if genus < 1:
        raise ParameterError("the one-point sums need g >= 1")
    g = genus
    s1 = s2 = s3 = _ZERO
    for h in range(1, g + 1):
        w = Fraction((-1) ** (g - h), 24 ** (g - h) * factorial(g - h))
        s1 += w * bracket(h, (0, 3 * h - g - 1, g + 1), table)
        s2 += w * bracket(h, (0, 3 * h - g, g), table)
        s3 += w * bracket(h, (3 * h - g, g - 1), table)
    return s1, s2, s3


def n1_expected(genus: int) -> tuple[Fraction, Fraction, Fraction]:
    g = genus
    base = Fraction(factorial(g), factorial(2 * g + 1))
    return (
        base * Fraction(g, 2**g),
        base * Fraction(1, 2**g),
        Fraction(1, 24**g * factorial(g)),
    )


def n1_sum_reports(genus: int, table: BracketTable | None = None) -> list[Report]:
    start = time.perf_counter()
    got = n1_proof_sums(genus, table)
    want = n1_expected(genus)
    ms = (time.perf_counter() - start) * 1000.0 / 3
    return [
        Report(id="n1sums", params={"g": genus, "part": i + 1}, lhs=got[i], rhs=want[i], ms=ms)
        for i in range(3)
    ]
