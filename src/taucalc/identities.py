"""Exact two-sided evaluation of the intersection-number identities.

Every verifier computes its closed-form side from factorials and double
factorials only, and its bracket side through the recursion engine, then
reports exact rational equality.  Conjectural identities are *reported*,
never assumed: a failing tuple comes back with both values for triage.

Each identity is written once, as an `_Identity` spec in `_IDENTITIES`:
its free parameters, each with its sweep range and the lower bound that
range keeps, the solved sum of d and the bound on its parts, the
constraints no bound states and its two sides.  `instances` enumerates the
grid from the spec, where the bounds and the sum hold by construction, and
keeps the tuples that meet the other constraints; `verify` checks one
tuple against the bounds, the constraints and the sum, then evaluates it;
`sweep` yields one identity's reports over the grid in canonical order,
each evaluated when it is pulled; and `VERIFY_TOKENS` gives every `tau
verify` token its default grid and a runner that yields its reports in
that order.

The splitting sums behind the c32-c35 families and the eq3/eq5/eq7/eq8
insertion combinations all go through `split_sum`, one convolution of two
of the bracket table's rows per split (see its docstring).

Every bracket-side sum keeps one rule: it reads the engine's ints V =
2^B S (`sigma_bracket`, B = `sigma_scale`), adds them as integers over
one denominator and builds one Fraction at the end.  `_bracket_sum` does
so for the signed bracket lists (the alternating pair sum, the c33 head
and descent terms behind the insertion combinations, the c32 heads), and
`split_sum` and each `brackets.convolve_rows` for the splittings, whose
terms all share one scale.

The bracket side of eq3 is (2g)!/B_2g times Mumford's expansion of
<ch_{2g-1} prod tau_d>_g, so `ch_insertion` (any odd Chern character of
the Hodge bundle) and `lambda_gg1_bracket`, through lambda_g lambda_{g-1}
= (-1)^{g-1} (2g-1)! ch_{2g-1}, live here and read eq3's `_ch_combo`.

Identity ids:

  eq4   alternating pair sum with d_j >= 1, sum(d_j - 1) = g - 1 equals
        (2g-1+n)! / (2^{2g} (2g+1)! prod (2d_j-1)!!)
  eq6   the same alternating sum vanishes for K > g
  eq5   tau_{2g} insertion written through descent and genus splittings
  eq7   the K > g complement of eq5
  eq8   tau_{2g-2} insertion variant with an explicit constant
  eq3   the lambda_g lambda_{g-1} proportionality in pure-psi form
  decomp  eq3 termwise: eq5's residual plus half of eq4 one genus down
  c32   paired-insertion splitting identities (a: vanishing-range, b: constant)
  c33   tau_{2K+2} with m spectator insertions (a, b as above)
  c34   tau_{2K+s+1} with m spectators and one tau_s partner (a, b)
  c35   two-sided spectator convolutions with dimension-inferred genera (a, b)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import factorial, gcd, lcm
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import denominators as dn
from . import monotone as mono
from .brackets import (
    BracketTable, bracket, convolve_rows, default_table, one_point, sigma_bracket, sigma_scale, sigma_weight,
)
from .combinat import multisets_with_sum, submultiset_splits
from .rationals import bernoulli, odd_double_factorial
from .report import Report, timed_report

__all__ = [
    "ParameterError",
    "SweepLimits",
    "IDENTITY_IDS",
    "VERIFY_TOKENS",
    "alt_pair_sum",
    "split_sum",
    "ch_insertion",
    "lambda_gg1_bracket",
    "verify",
    "instances",
    "sweep",
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
    return _bracket_sum(genus, (((-1) ** j, (2 * K - j, j) + d) for j in range(2 * K + 1)), table)


def _bracket_sum(genus: int, terms: Iterable[tuple[int, tuple[int, ...]]],
                 table: BracketTable | None) -> Fraction:
    """sum of c <prod tau_E>_genus over terms = ((c, E), ...), c an int, read
    in order as ints V(E) = 2^B sigma_weight(E) <prod tau_E> (`sigma_bracket`)
    and added as integers: the sum so far is total/L, L the lcm of the
    weights 2^B sigma_weight(E) of the nonzero terms so far, so one Fraction
    is built per sum.  A zero term computes no weight."""
    t = table if table is not None else default_table()
    total, L = 0, 1
    for c, E in terms:
        v = sigma_bracket(genus, E, t)
        if v:
            w = sigma_weight(E) << sigma_scale(genus, len(E))
            if L % w:
                grow = w // gcd(L, w)
                total *= grow
                L *= grow
            total += c * v * (L // w)
    return Fraction(total, L) if total else _ZERO


@lru_cache(maxsize=None)
def _splits(d: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """submultiset_splits(d), kept per sorted d: a sweep meets few distinct d."""
    return tuple(submultiset_splits(d))


# each distinct sorted side, once per process: side -> (side, its id)
_SIDE_IDS: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}


@lru_cache(maxsize=None)
def _sides(extras: tuple[int, ...], d: tuple[int, ...], part: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(A, id) for A = sorted(extras + split[part]) and each split of
    `_splits(d)`, in its order: part 0 gives the left sides, part 1 the
    right ones.  A is interned in `_SIDE_IDS`, whose ids count up from 0;
    both are process-global, like this cache, and never persisted."""
    return tuple(_SIDE_IDS.setdefault(A, (A, len(_SIDE_IDS)))
                 for A in (tuple(sorted(extras + split[part])) for split in _splits(d)))


@lru_cache(maxsize=None)
def _multisets(n: int, total: int, min_part: int) -> tuple[tuple[int, ...], ...]:
    """multisets_with_sum(n, total, min_part), kept per argument triple: a
    sweep grid asks for few distinct ones, many times each."""
    return tuple(multisets_with_sum(n, total, min_part))


@lru_cache(maxsize=None)
def _pair_scale(K: int) -> tuple[int, tuple[int, ...]]:
    """(L, ((-1)^j L / ((2j+1)!! (2K-2j+1)!!) for j = 0..K)), L their lcm."""
    w = [odd_double_factorial(j) * odd_double_factorial(K - j) for j in range(K + 1)]
    L = lcm(*w)
    return L, tuple((-1) ** j * (L // x) for j, x in enumerate(w))


def split_sum(K: int, left_extras: Iterable[int], right_extras: Iterable[int], genus: int,
              d: Iterable[int], table: BracketTable | None = None) -> Fraction:
    """sum over ordered pairs I ⊔ J of {1..n}, genus splittings and j of

        (-1)^j <tau_j prod(left_extras) prod_I tau_d>_{g'}
               <tau_{K-j} prod(right_extras) prod_J tau_d>_{g-g'}

    Unstable or dimension-violating factors vanish.  Both factors fit their
    dimensions only if K + sum(extras) + sum(d) + 4 - |extras| - |d| = 3g,
    so any other call is 0 before a bracket is read.  Then each factor sits
    at the one genus its own dimension fixes, g' is determined by j, and
    only the j in one residue class mod 3 contribute.

    Each split (I, J) adds its multiplicity times C_K(A, B), the rows of its
    sides A = sorted(left_extras + d_I) and B = sorted(right_extras + d_J),
    which `_sides` interns, convolved (`convolve_rows`) at scale[j] =
    `_pair_scale(K)[1][j]`.  As scale[K-j] = (-1)^K scale[j], only A <= B,
    in tuple order, is computed: a split with B < A reads C_K(B, A), its
    sign flipped for odd K.  The table keeps each C_K(A, B) in `t._conv[K]`,
    keyed by the Cantor pair of the two side ids, since splits share them
    within a call, across calls and across K.  `_pair_scale(K)` puts the
    sigma weights of tau_j and tau_{K-j} over one denominator, and those of
    d and the extras, like the scale 2^B of the n = |extras| + |d| points,
    are the same for every split, so the splits add as plain integers.
    """
    if K < 0:
        raise ParameterError("K must be nonnegative")
    left = tuple(left_extras)
    right = tuple(right_extras)
    d = tuple(sorted(d))
    if K + sum(left) + sum(right) + sum(d) + 4 - len(left) - len(right) - len(d) != 3 * genus:
        return _ZERO
    t = table if table is not None else default_table()
    conv = t._conv[K]
    L, scale = _pair_scale(K)
    flip = -1 if K % 2 else 1
    total = 0
    for (_, _, count), (A, a), (B, b) in zip(_splits(d), _sides(left, d, 0), _sides(right, d, 1)):
        if B < A:
            A, B, a, b = B, A, b, a
            count *= flip
        key = (a + b) * (a + b + 1) // 2 + b  # Cantor's pairing of the side ids
        c = conv.get(key)
        if c is None:
            c = conv[key] = convolve_rows(t, K, A, B, genus, scale)
        total += count * c
    E = left + right + d
    return Fraction(total, L * sigma_weight(E) << sigma_scale(genus, len(E))) if total else _ZERO


def _dfact_prod(d: Iterable[int]) -> int:
    """prod (2d_j - 1)!!"""
    return sigma_weight(x - 1 for x in d)


def _insertion_combo(genus: int, X: int, d: tuple[int, ...], table) -> Fraction:
    """<tau_d tau_{2X}>_g - sum_j <..tau_{d_j+2X-1}..>_g + 1/2 * split(2X-2)."""
    combo = _bracket_sum(genus, _c33_terms(X - 1, (), d, -1), table)
    if X >= 1:
        combo += _HALF * split_sum(2 * X - 2, (), (), genus, d, table)
    return combo


def _ch_combo(genus: int, k: int, d: tuple[int, ...], table) -> Fraction:
    """(2k)!/B_2k <ch_{2k-1} prod tau_d>_genus by Mumford's expansion: the
    kappa_{2k-1} term <tau_d tau_{2k}>, minus each d_j raised by 2k-1, plus
    half the splittings (together `_insertion_combo`) and half the
    irreducible node, the alternating pair sum one genus down.  At k =
    genus it is the bracket side of eq3."""
    return _insertion_combo(genus, k, d, table) + _HALF * alt_pair_sum(k - 1, genus - 1, d, table)


def ch_insertion(
    genus: int,
    k: int,
    exponents: Iterable[int],
    table: BracketTable | None = None,
) -> Fraction:
    """<ch_{2k-1}(Hodge bundle) prod tau_{d_j}>_g via Mumford's expansion
    (Mumford 1983; Faber 1999): B_2k/(2k)! times `_ch_combo`.

    Vanishes identically for k > genus; the harness checks that rather
    than assuming it.
    """
    if k < 1:
        raise ValueError("the Chern character index 2k-1 needs k >= 1")
    d = tuple(sorted(exponents))
    if any(x < 0 for x in d):
        return _ZERO
    return bernoulli(2 * k) / factorial(2 * k) * _ch_combo(genus, k, d, table)


def lambda_gg1_bracket(
    genus: int,
    exponents: Iterable[int],
    table: BracketTable | None = None,
) -> Fraction:
    """<prod psi^{d_j} lambda_g lambda_{g-1}>_{g,n} for g >= 2; 0 off-dimension."""
    d = tuple(exponents)
    if genus < 2:
        raise ValueError("needs genus >= 2 (lambda_{g-1} with g-1 >= 1)")
    if sum(x - 1 for x in d) != genus - 2:
        return _ZERO
    sign = (-1) ** (genus - 1)
    return sign * factorial(2 * genus - 1) * ch_insertion(genus, genus, d, table)


def _eq4_constant(g: int, d: tuple[int, ...]) -> Fraction:
    return Fraction(factorial(2 * g - 1 + len(d)), 2 ** (2 * g) * factorial(2 * g + 1) * _dfact_prod(d))


def _eq3_constant(g: int, d: tuple[int, ...]) -> Fraction:
    return Fraction(factorial(2 * g - 3 + len(d)), 2 ** (2 * g - 1) * factorial(2 * g - 1) * _dfact_prod(d))


def _c33_terms(K, r, d, sign):
    """(1, tau_{2K+2} r d), then (sign, d with d_j raised by 2K + 1, r) for
    each j: the head and the descent terms of c33 and the insertion combos,
    as `_bracket_sum` terms."""
    yield 1, (2 * K + 2,) + r + d
    for j in range(len(d)):
        yield sign, d[:j] + (d[j] + 2 * K + 1,) + d[j + 1 :] + r


# The least K of each family's vanishing range ("a"); its constant
# identity ("b") sits one below it.
def _k_c33(g: int, m: int) -> int:
    return g + m // 2 - 1


def _k_c34(g: int, m: int) -> int:
    return g + (m - 1) // 2


def _k_c35(g: int, m: int, l: int) -> int:
    return 2 * g + m + l - 3


_GENUS_NOTE = "per-factor genus inferred from its own dimension constraint"


# ---------------------------------------------------------------------------
# per-identity sides: (table, **params) -> (lhs, rhs, extra)

def _eq3(table, g, d):
    return _ch_combo(g, g, d, table), _eq3_constant(g, d), {}


def _eq8(table, g, d):
    rhs = Fraction(factorial(2 * g - 3 + len(d)), 2 ** (2 * g + 1) * factorial(2 * g - 3) * _dfact_prod(d))
    return _insertion_combo(g, g - 1, d, table), rhs, {}


def _decomp(table, g, d):
    """eq3 termwise, constants included: eq5's residual plus half of eq4 at g - 1."""
    residual = _insertion_combo(g, g, d, table)
    half_alt = _HALF * alt_pair_sum(g - 1, g - 1, d, table)
    const_eq3 = _eq3_constant(g, d)
    consts_match = const_eq3 == _HALF * _eq4_constant(g - 1, d)
    extra = {
        "eq5_residual": residual,
        "half_alt_pair_sum": half_alt,
        "constants_match": consts_match,
    }
    return residual + half_alt, const_eq3 if consts_match else Fraction(-1), extra


def _c32_heads(table, g, K, r, s, d):
    """<tau_{2K+r+1} tau_s prod tau_d>_g + <tau_{2K+s+1} tau_r prod tau_d>_g"""
    return _bracket_sum(g, ((1, (2 * K + r + 1, s) + d), (1, (2 * K + s + 1, r) + d)), table)


def _c32b(table, g, r, s, d):
    den = sigma_weight((r, s)) * 4**g * factorial(2 * g - 1) * _dfact_prod(d)
    lhs = Fraction(factorial(2 * g - 1 + len(d)), den)
    return lhs, _c32_heads(table, g, g - 1, r, s, d) - split_sum(2 * g - 2, (r,), (s,), g, d, table), {}


def _c33a(table, g, K, m, r, d):
    (_, head), *descent = _c33_terms(K, r, d, 1)
    lhs = bracket(g, head, table)
    return lhs, _bracket_sum(g, descent, table) - split_sum(2 * K, r, (), g, d, table), {}


def _c33b(table, g, m, r, d):
    K = _k_c33(g, m) - 1
    c = (sum(2 * x for x in r) + m) * (g + (m - 3) // 2) if m % 2 else 1
    den = 4**g * factorial(2 * g - 3 + m) * _dfact_prod(d) * sigma_weight(r)
    lhs = Fraction(c * factorial(2 * g - 3 + len(d) + m), den)
    rhs = _bracket_sum(g, _c33_terms(K, r, d, -1), table) + split_sum(2 * K, r, (), g, d, table)
    return lhs, rhs, {"K": K}


def _c34b(table, g, m, s, r, d):
    K = _k_c34(g, m) - 1
    c = (sum(2 * x for x in r) - 2 * s + m - 1) * (g + m // 2 - 1) if m % 2 == 0 else 1
    den = 4**g * factorial(2 * g - 2 + m) * _dfact_prod(d) * sigma_weight((s,) + r)
    lhs = Fraction(c * factorial(2 * g - 2 + len(d) + m), den)
    rhs = bracket(g, (2 * K + s + 1,) + r + d, table) - split_sum(2 * K, r, (s,), g, d, table)
    return lhs, rhs, {"K": K}


def _c35b(table, g, m, l, r, s, d):
    K = _k_c35(g, m, l) - 1
    lhs = split_sum(K, r, s, g, d, table)
    den = 4**g * factorial(2 * g + m + l - 3) * _dfact_prod(d) * sigma_weight(r + s)
    rhs = Fraction((-1) ** m * factorial(2 * g + len(d) + m + l - 3), den)
    return lhs, rhs, {"K": K, "genus_convention": _GENUS_NOTE}


class SweepLimits(NamedTuple):
    """Parameter ranges for a verification sweep; ranges are configuration."""

    g_max: int = 6
    n_max: int = 4
    k_span: int = 3
    rs_max: int = 2


class _Identity(NamedTuple):
    """One identity, written once.

    loops     the free parameters other than d, outermost first, each as
              (name, values, bound): its values as a function of the limits
              and the outer values, and the type and lower bound they all keep
    d_sum     sum(d) solved from the dimension constraint, given n = len(d)
    d_least   the bound on d: a list or tuple of ints, each >= d_least
    checks    the constraints no bound states: n >= 1 and rules of single
              identities
    sides     (table, **params) -> (lhs, rhs, extra)

    A bound or check is a (message, predicate) pair; a predicate takes the
    params dict, and a bound may read the outer loops' values.  d_sum takes
    the parameters and n as keywords and reads neither d nor sum(d).  The
    sweep enumerates d with parts >= d_least, so d's bound, like the
    loops', holds on the grid by construction.
    Reports list g and K first, then the other loop parameters, then d.
    """

    loops: tuple[tuple[str, Callable[..., Iterable], tuple[str, Callable[..., bool]]], ...]
    d_sum: Callable[..., int]
    sides: Callable[..., tuple[Fraction, Fraction, dict]]
    d_least: int = 0
    checks: tuple[tuple[str, Callable[..., bool]], ...] = ()

    @property
    def keys(self) -> tuple[str, ...]:
        names = [name for name, *_ in self.loops]
        first = [k for k in ("g", "K") if k in names]
        return tuple(first + [k for k in names if k not in first])

    def violation(self, params: dict) -> str | None:
        """The message of the first constraint params breaks, or None: the
        loops' bounds, outermost first, then d's, the checks and the sum of d."""
        d_bound = (f"needs d_j >= {self.d_least}", lambda p: _ints(p["d"], self.d_least))
        for message, ok in chain(map(itemgetter(2), self.loops), (d_bound,), self.checks):
            if not ok(params):
                return message
        want = self.d_sum(n=len(params["d"]), **params)
        if sum(params["d"]) != want:
            return f"needs sum d = {want}"
        return None


def _ints(v: Any, least: int) -> bool:
    """Whether v is a list or tuple of ints, each >= least."""
    return isinstance(v, (list, tuple)) and all(isinstance(x, int) and x >= least for x in v)


def _loop(name: str, values: Callable[..., Iterable], least: int = 0):
    """name over values(limits, **outer), each of them an int >= least."""
    return name, values, (f"needs {name} >= {least}",
                          lambda p: isinstance(p[name], int) and p[name] >= least)


def _genus(start: int):
    # the start is a grid choice: g >= 0 is the only bound
    return _loop("g", lambda L, **_: range(start, L.g_max + 1))


def _window(name: str, least: Callable[..., int], text: str, extra: int = 0):
    """name over k_span values (k_span + extra for c32a) from least(...),
    the bound that text states."""
    return (name, lambda L, **p: range(least(**p), least(**p) + L.k_span + extra),
            (f"needs {text}", lambda p: isinstance(p[name], int) and p[name] >= least(**p)))


def _multiset(name: str, size: str):
    """name over the sorted tuples of p[size] parts in 0..rs_max."""
    return (name, lambda L, **p: combinations_with_replacement(range(L.rs_max + 1), p[size]),
            (f"needs len({name}) = {size}, {name}_p >= 0",
             lambda p: _ints(p[name], 0) and len(p[name]) == p[size]))


# the spectator counts m (c33-c35) and l (c35) run over 2..3 on every sweep grid
_M = _loop("m", lambda L, **_: range(2, 4), 2)
_L = _loop("l", lambda L, **_: range(2, 4), 2)
_R_INT = _loop("r", lambda L, **_: range(L.rs_max + 1))
_S_UPTO_R = _loop("s", lambda L, r, **_: range(r + 1))  # a grid cut only: symmetric in (r, s)
_S_INT = _loop("s", lambda L, **_: range(L.rs_max + 1))

_N1 = ("needs n >= 1", lambda p: len(p["d"]) >= 1)
_G1 = ("needs g >= 1", lambda p: p["g"] >= 1)
_G2 = ("needs g >= 2", lambda p: p["g"] >= 2)

_IDENTITIES: dict[str, _Identity] = {
    "eq3": _Identity(
        loops=(_genus(2),),
        d_sum=lambda g, n, **_: g - 2 + n,
        d_least=1,
        checks=(_G2, _N1),
        sides=_eq3,
    ),
    "eq4": _Identity(
        loops=(_genus(1),),
        d_sum=lambda g, n, **_: g - 1 + n,
        d_least=1,
        checks=(_N1,),
        sides=lambda table, g, d: (alt_pair_sum(g, g, d, table), _eq4_constant(g, d), {}),
    ),
    "eq5": _Identity(
        loops=(_genus(1),),
        d_sum=lambda g, n, **_: g + n - 2,
        checks=(_G1, _N1),
        sides=lambda table, g, d: (_insertion_combo(g, g, d, table), _ZERO, {}),
    ),
    "eq6": _Identity(
        loops=(_genus(0), _window("K", lambda g, **_: g + 1, "K > g")),
        d_sum=lambda g, K, n, **_: 3 * g + n - 2 * K - 1,
        checks=(_N1,),
        sides=lambda table, g, K, d: (alt_pair_sum(K, g, d, table), _ZERO, {}),
    ),
    "eq7": _Identity(
        loops=(_genus(0), _window("K", lambda g, **_: g + 1, "K > g")),
        d_sum=lambda g, K, n, **_: 3 * g + n - 2 * K - 2,
        checks=(_N1,),
        sides=lambda table, g, K, d: (_insertion_combo(g, K, d, table), _ZERO, {}),
    ),
    "eq8": _Identity(
        loops=(_genus(2),),
        d_sum=lambda g, n, **_: g + n,
        d_least=1,
        checks=(_G2, _N1),
        sides=_eq8,
    ),
    "c32a": _Identity(
        loops=(_genus(0), _window("K", lambda g, **_: g, "K >= g", extra=1), _R_INT, _S_UPTO_R),
        d_sum=lambda g, K, r, s, n, **_: 3 * g + n - 2 * K - r - s - 2,
        sides=lambda table, g, K, r, s, d: (
            _c32_heads(table, g, K, r, s, d), split_sum(2 * K, (r,), (s,), g, d, table), {}),
    ),
    "c32b": _Identity(
        loops=(_genus(1), _R_INT, _S_UPTO_R),
        d_sum=lambda g, r, s, n, **_: g + n - r - s,
        d_least=1,
        checks=(_G1,),
        sides=_c32b,
    ),
    "c33a": _Identity(
        loops=(_genus(0), _M, _window("K", lambda g, m, **_: _k_c33(g, m), "K >= g + floor(m/2) - 1"),
               _multiset("r", "m")),
        d_sum=lambda g, K, m, r, n, **_: 3 * g + n - 2 * K - sum(r) + m - 4,
        sides=_c33a,
    ),
    "c33b": _Identity(
        loops=(_genus(1), _M, _multiset("r", "m")),
        d_sum=lambda g, m, r, n, **_: g + n - sum(r) + m - 2 * (m // 2),
        d_least=1,
        checks=(
            ("is vacuous here: K = g + floor(m/2) - 2 < 0", lambda p: _k_c33(p["g"], p["m"]) >= 1),
            ("with odd m needs r_p >= 1", lambda p: p["m"] % 2 == 0 or all(x >= 1 for x in p["r"])),
        ),
        sides=_c33b,
    ),
    "c34a": _Identity(
        loops=(_genus(0), _M, _window("K", lambda g, m, **_: _k_c34(g, m), "K >= g + floor((m-1)/2)"),
               _S_INT, _multiset("r", "m")),
        d_sum=lambda g, K, m, s, r, n, **_: 3 * g + n - 2 * K - s - sum(r) + m - 3,
        sides=lambda table, g, K, m, s, r, d: (
            bracket(g, (2 * K + s + 1,) + r + d, table), split_sum(2 * K, r, (s,), g, d, table), {}),
    ),
    "c34b": _Identity(
        loops=(_genus(1), _M, _S_INT, _multiset("r", "m")),
        d_sum=lambda g, m, s, r, n, **_: g + n - s - sum(r) + m - 2 * ((m - 1) // 2) - 1,
        d_least=1,
        checks=(
            ("is vacuous here: K = g + floor((m-1)/2) - 1 < 0", lambda p: _k_c34(p["g"], p["m"]) >= 1),
            ("with even m needs s >= 1", lambda p: p["m"] % 2 == 1 or p["s"] >= 1),
            ("with even m needs r_p >= 1", lambda p: p["m"] % 2 == 1 or all(x >= 1 for x in p["r"])),
        ),
        sides=_c34b,
    ),
    "c35a": _Identity(
        loops=(_genus(0), _M, _L, _window("K", lambda g, m, l, **_: _k_c35(g, m, l), "K > 2g + m + l - 4"),
               _multiset("r", "m"), _multiset("s", "l")),
        d_sum=lambda g, K, m, l, r, s, n, **_: 3 * g + n + m + l - K - sum(r) - sum(s) - 4,
        sides=lambda table, g, K, m, l, r, s, d: (
            split_sum(K, r, s, g, d, table), _ZERO, {"genus_convention": _GENUS_NOTE}),
    ),
    "c35b": _Identity(
        loops=(_genus(0), _M, _L, _multiset("r", "m"), _multiset("s", "l")),
        d_sum=lambda g, r, s, n, **_: g + n - sum(r) - sum(s),
        d_least=1,
        sides=_c35b,
    ),
}
# decomp takes the tuples eq3 takes: only its sides differ
_IDENTITIES["decomp"] = _IDENTITIES["eq3"]._replace(sides=_decomp)

IDENTITY_IDS = tuple(_IDENTITIES)


def _spec(identity: str) -> _Identity:
    try:
        return _IDENTITIES[identity]
    except KeyError:
        raise ParameterError(f"unknown identity id {identity!r}") from None


def verify(
    identity: str, table: BracketTable | None = None, *, checked: bool = False, **params: Any
) -> Report:
    """Evaluate both sides of one identity instance exactly.

    The parameters are checked first against the identity's loop bounds,
    d's bound, its checks and the sum of d; checked=True skips that for
    tuples that `instances` has already kept.  The report's ms is the time
    that `sides` took; `sweep` builds every report through this call.
    """
    spec = _spec(identity)
    if not checked:
        if params.keys() != {*spec.keys, "d"}:
            raise ParameterError(f"{identity} takes the parameters {', '.join(spec.keys + ('d',))}")
        problem = spec.violation(params)
        if problem is not None:
            raise ParameterError(f"{identity} {problem}")
        # sorted once the checks, which read no order, have passed every part
        params = {k: (tuple(sorted(v)) if isinstance(v, (list, tuple)) else v) for k, v in params.items()}
    start = perf_counter()
    lhs, rhs, extra = spec.sides(table, **params)
    return Report(identity, params, lhs, rhs, (perf_counter() - start) * 1000.0, extra)


# ---------------------------------------------------------------------------
# sweeps, the one-point sums and the `tau verify` tokens

def instances(identity: str, limits: SweepLimits | None = None) -> Iterator[dict]:
    """Admissible parameter dictionaries for one identity on the grid: the
    spec's loops, then n = 0..n_max and every d with the solved sum, kept
    when they meet the spec's checks: one base dict per loop assignment, plus d."""
    spec = _spec(identity)
    keys, lim = spec.keys, limits or SweepLimits()
    # every assignment of the loop parameters, outermost loop first
    grid = [{}]
    for name, choices, _ in spec.loops:
        grid = [{**outer, name: v} for outer in grid for v in choices(lim, **outer)]
    for outer in grid:
        base = {k: outer[k] for k in keys}
        for n in range(lim.n_max + 1):
            for d in _multisets(n, spec.d_sum(n=n, **outer), spec.d_least):
                params = {**base, "d": d}
                # the bounds and sum(d) hold by construction; the checks decide the rest
                for _, ok in spec.checks:
                    if not ok(params):
                        break
                else:
                    yield params


def sweep(identity: str, limits: SweepLimits | None = None,
          table: BracketTable | None = None) -> Iterator[Report]:
    """The reports of one identity over the grid in canonical order, each
    evaluated when it is pulled.  The grid is held as tuples of values in
    sorted-name order (`Report.sort_key`'s order within an id); a pulled one
    becomes params in spec order for `verify`, unchecked: `instances` checked it."""
    keys = _spec(identity).keys + ("d",)
    names = sorted(keys)
    grid = sorted(map(itemgetter(*names), instances(identity, limits)), reverse=True)
    in_spec_order = itemgetter(*map(names.index, keys))
    # popped from the end, so each row is freed once its report is pulled
    return (verify(identity, table, checked=True, **dict(zip(keys, in_spec_order(grid.pop()))))
            for _ in range(len(grid)))


def _n1_sum(g: int, part: int, table: BracketTable | None) -> Fraction:
    total = _ZERO
    for h in range(1, g + 1):
        d = ((0, 3 * h - g - 1, g + 1), (0, 3 * h - g, g), (3 * h - g, g - 1))[part]
        total += Fraction((-1) ** (g - h), 24 ** (g - h) * factorial(g - h)) * bracket(h, d, table)
    return total


def n1_expected(genus: int) -> tuple[Fraction, Fraction, Fraction]:
    base = Fraction(factorial(genus), factorial(2 * genus + 1))
    return base * Fraction(genus, 2**genus), base * Fraction(1, 2**genus), one_point(genus)


def n1_sum_reports(genus: int, table: BracketTable | None = None) -> list[Report]:
    """The one-point sums, parts 1-3, each against `n1_expected`:
      S1 = sum_h (-1)^{g-h}/(24^{g-h}(g-h)!) <tau_0 tau_{3h-g-1} tau_{g+1}>_h
      S2 = same with <tau_0 tau_{3h-g} tau_g>_h
      S3 = same with <tau_{3h-g} tau_{g-1}>_h
    """
    if genus < 1:
        raise ParameterError("the one-point sums need g >= 1")
    want = n1_expected(genus)
    return [
        timed_report("n1sums", {"g": genus, "part": i + 1},
                     lambda i=i: (_n1_sum(genus, i, table), want[i], {}))
        for i in range(3)
    ]


def _sweeps(k_span: int, *idents: str) -> Callable[[int, int], Iterator[Report]]:
    # idents come in id order, which leads the canonical key
    def run(g_max: int, n_max: int) -> Iterator[Report]:
        lim = SweepLimits(g_max=g_max, n_max=n_max, k_span=k_span)
        return chain.from_iterable(sweep(ident, lim) for ident in idents)
    return run


def _c41(g_max: int, n_max: int) -> Iterator[Report]:
    # the denominator-chapter block from genus 2 in canonical order: c41-c43, c4s
    if g_max < 2:
        return
    genera = range(2, g_max + 1)
    yield from map(dn.conjecture41_check, genera)
    yield from map(dn.threshold_check, genera)
    for g in range(g_max + 1):
        for h in range(g, g_max - g + 1):
            yield timed_report("c43", {"g": g, "h": h}, lambda: (
                Fraction(1), Fraction(int(dn.divisibility_check(g, h))), {}))
    yield from map(dn.compare_D_S, genera)


# every `tau verify` token: its default g_max and n_max, and run(g_max,
# n_max), an iterator over its reports on that grid in canonical order
VERIFY_TOKENS: dict[str, tuple[int, int, Callable[[int, int], Iterator[Report]]]] = {
    "eq3": (6, 4, _sweeps(3, "eq3")),
    "eq4": (6, 4, _sweeps(3, "eq4")),
    "eq5": (6, 4, _sweeps(3, "eq5")),
    "eq6": (5, 4, _sweeps(4, "eq6")),
    "eq7": (4, 3, _sweeps(4, "eq7")),
    "eq8": (6, 4, _sweeps(3, "eq8")),
    "c32": (4, 3, _sweeps(2, "c32a", "c32b")),
    "c33": (4, 3, _sweeps(2, "c33a", "c33b")),
    "c34": (4, 3, _sweeps(2, "c34a", "c34b")),
    "c35": (4, 3, _sweeps(2, "c35a", "c35b")),
    "decomp": (5, 4, _sweeps(3, "decomp")),
    "n1sums": (10, 1, lambda g_max, n_max: (
        r for g in range(1, g_max + 1) for r in n1_sum_reports(g))),
    "c41": (3, 1, _c41),
    "c51": (6, 4, lambda g_max, n_max: mono.comparing(chain(
        (mono.psi_swap_check(g, n) for g, n in mono.stable_strata(0, g_max, 1, n_max)),
        (mono.lambda_g_swap_check(g, n) for g, n in mono.stable_strata(1, g_max, 1, n_max))))),
    "c52": (3, 2, lambda g_max, n_max: mono.comparing(
        mono.kappa_swap_check(g, n) for g, n in mono.stable_strata(1, g_max, 0, n_max, min_dim=2))),
    "c53": (3, 2, lambda g_max, n_max: mono.comparing(
        mono.bounds_check(g, n) for g, n in mono.stable_strata(1, g_max, 0, n_max))),
    "c54": (4, 4, lambda g_max, n_max: mono.comparing(
        mono.psi_floor_check(g, n) for g, n in mono.stable_strata(1, g_max, 1, n_max))),
}
