"""The n-point generating function of intersection numbers.

F(x_1,..,x_n) collects all brackets of a fixed number of points; the
engine works with its normalization G = exp(-sum x_j^3/24) * F, which
satisfies a closed recursion:

    G(x_1,..,x_n) = sum_{r,s>=0} (2r+n-3)!! / (4^s (2r+2s+n-1)!!)
                      * P_r(x_1,..,x_n) * Delta(x_1,..,x_n)^s

    Delta = ((sum x_j)^3 - sum x_j^3) / 3
    P_r   = [ sum_{I ⊔ J = {1..n}, both nonempty}
                (sum_I x)^2 (sum_J x)^2 G(x_I) G(x_J) ]_{3r+n-2} / (2 sum x_j)

The one- and two-point inputs carry their unstable parts (x^-2, and
sum_{s>=0} Delta(x,y)^s / (4^s (2s+1)!! (x+y))), so the engine convolves
the polynomial "weighted factors" C_I = (sum_I x)^2 G(x_I):
C_{|I|=1} = 1, C_{|I|=2} = sum_s Delta(x,y)^s (x+y) / (4^s (2s+1)!!).

Sorted keys: G and F are symmetric, because brackets are, so every
internal series is a dict keyed by ascending exponent tuples of length n,
zeros included; a key's value is the coefficient of each of its
orderings.  Only sorted targets are computed, by lookups in per-(n,
degree) tables of lowered keys (`_lowerings`, raised from the keys a
degree down).  Multiplying by p_k = sum x_j^k sums the lowered keys
times their multiplicities, so Delta = (p_1^3 - p_3) / 3 and
C_k = p_1^2 G_k; the split numerator sums one split of each mirror pair
(`_splitters`); division by e_1 = p_1 peels from the largest maximum down
(`_divide_by_e1`); F = sum_j p_3^j G / (24^j j!), plus for n = 2 the
polynomial part of the unstable 1/(x+y).

Arithmetic: every internal builder returns a pair (int numerators, den)
reduced by the gcd of den and all numerators.  With t = r + s the
degree-(3t+n-3) part of G is Q_t / (4^t (2t+n-1)!!), where
Q_t = Delta Q_{t-1} + (2t+n-3)!! 4^t P_t.  A remainder in a division by
e_1 aborts: it can only mean an implementation bug.  F is read a genus at
a time as integers over one denominator (`NPointSeries.stratum`, which
`bracket` and the dump read), and `MergedSeries` folds G's integer terms;
the `Fraction` dicts `NPointSeries.g` and `.f` are built on first access
only, and nothing in the package reads them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter, lt
from typing import Iterable

from .rationals import double_factorial, odd_double_factorial

__all__ = [
    "NPointSeries",
    "MergedSeries",
    "DivisionRemainderError",
    "npoint_series",
    "merged_series",
]

Mono = tuple[int, ...]
Terms = dict[Mono, Fraction]
IntTerms = dict[Mono, int]
# an exact symmetric series as (numerators at sorted keys, common
# denominator): the value of each ordering of a key is its numerator over den
IntSeries = tuple[IntTerms, int]
# one genus of F: (ascending sorted keys, their int numerators, den > 0)
Stratum = tuple[tuple[Mono, ...], tuple[int, ...], int]

_ZERO = Fraction(0)


class DivisionRemainderError(ArithmeticError):
    """Division by sum(x_j) left a remainder where a theorem promises none."""


@lru_cache(maxsize=None)
def _lowerings(n: int, degree: int, k: int) -> tuple[tuple[Mono, tuple[tuple[Mono, int], ...]], ...]:
    """Each sorted key of the degree, ascending, with its row of lowered
    keys: for every distinct part v >= k, the key with one v lowered to
    v - k (re-sorted) and the multiplicity of v.  Parts go in ascending
    order, so the largest part's entry comes last."""
    if degree <= 0:
        return (((0,) * n, ()),) if degree == 0 else ()
    # each key q of degree - k, raised by k at the last part of each run and
    # re-sorted (k = 1 keeps it sorted), is a key m with q in its row; q
    # ascends, and so do the lowered parts of m's row
    rows: dict[Mono, list[tuple[Mono, int]]] = {}
    for q, _ in _lowerings(n, degree - k, 1):
        for i, v in enumerate(q, 1):
            if i == n or q[i] != v:
                j = bisect_left(q, v + k, i) if k > 1 else i
                rows.setdefault(q[: i - 1] + q[i:j] + (v + k,) + q[j:], []).append((q, q.count(v + k) + 1))
    # every k shares the key list of the p_1 table
    keys = sorted(rows) if k == 1 else (m for m, _ in _lowerings(n, degree, 1))
    return tuple((m, tuple(rows.get(m, ()))) for m in keys)


def _times_power_sum(a: IntTerms, n: int, degree: int, k: int) -> IntTerms:
    """p_k * a at every sorted key of the degree (a is read at degree - k)."""
    get = a.get
    out = {}
    for m, row in _lowerings(n, degree, k):
        c = 0
        for low, mult in row:
            c += mult * get(low, 0)
        if c:
            out[m] = c
    return out


def _times_delta(a: IntTerms, n: int, degree: int) -> IntTerms:
    """Delta * a at every sorted key of the degree, Delta = (p_1^3 - p_3) / 3."""
    cube = a
    for d in range(degree - 2, degree + 1):
        cube = _times_power_sum(cube, n, d, 1)
    cubes = _times_power_sum(a, n, degree, 3)
    # exact: Delta has integer coefficients
    return {m: c // 3 for m, _ in _lowerings(n, degree, 3) if (c := cube.get(m, 0) - cubes.get(m, 0))}


def _divide_by_e1(p: IntTerms, n: int, degree: int) -> IntTerms:
    """Exact quotient of p's degree component by e_1 = x_1 + .. + x_n.

    A quotient key q raised at its largest part is a key m whose largest
    part is unique, and p[m] is q's value plus quotient values at the keys
    m lowered in a smaller part, whose maximum exceeds q's.  So the
    quotient is peeled from the largest maximum down; then every key of
    the degree, these included, must be reproduced, else there is a
    remainder.
    """
    get = p.get
    q: IntTerms = {}
    table = _lowerings(n, degree, 1)
    # the keys whose largest part is unique, largest maximum first
    for m, row in sorted((r for r in table if r[1] and r[1][-1][1] == 1), key=lambda r: -r[0][-1]):
        c = get(m, 0)
        for low, mult in row[:-1]:
            c -= mult * q.get(low, 0)
        if c:
            q[row[-1][0]] = c
    for m, row in table:
        if sum(mult * q.get(low, 0) for low, mult in row) != get(m, 0):
            raise DivisionRemainderError(
                f"remainder at monomial {m}: component not divisible by the variable sum"
            )
    return q


def _reduced(terms: IntTerms, den: int) -> IntSeries:
    """Freeze numerators over den, cancelling their common gcd with den."""
    terms = {m: c for m, c in terms.items() if c}
    g = gcd(den, *terms.values())
    return {m: c // g for m, c in terms.items()}, den // g


def _monomials(n: int, degree: int) -> list[tuple[Mono, str]]:
    """Every monomial of the degree in n variables, in lex order, with its
    text "e1,..,en"."""
    heads = [f"{v}," for v in range(degree + 1)]
    level = [((), "", degree)]
    for _ in range(n - 1):
        level = [(parts + (v,), head + heads[v], rest - v) for parts, head, rest in level for v in range(rest + 1)]
    return [(parts + (rest,), f"{head}{rest}") for parts, head, rest in level]


def _dump(n: int, degrees: Iterable[int], text: dict[Mono, str], fixed: int = 0) -> list[str]:
    """The lines "e1,..,en -> value" of the monomials of the degrees, each in
    lex order, whose key (the first `fixed` exponents, the rest sorted) text
    maps to " -> value"."""
    return [head + tail for degree in degrees for mono, head in _monomials(n, degree)
            if (tail := text.get(mono[:fixed] + tuple(sorted(mono[fixed:]))))]


def _expanded(n: int, values: dict[Mono, Fraction]) -> Terms:
    """Every monomial whose sorted exponents are a key of values, with that
    key's value, by degree then lex order."""
    return {mono: c for d in sorted({sum(m) for m in values}) for mono, _ in _monomials(n, d)
            if (c := values.get(tuple(sorted(mono)))) is not None}


def _one_point_stable(cap: int) -> IntSeries:
    # x^-2 (1 - exp(-x^3/24)): components (-1)^{h+1} x^{3h-2} / (24^h h!),
    # over the denominator of the top term
    top = (cap + 2) // 3
    den = 24**top * factorial(top)
    terms = {
        (3 * h - 2,): (-1) ** (h + 1) * (den // (24**h * factorial(h)))
        for h in range(1, top + 1)
    }
    return _reduced(terms, den)


def _delta_power_sum(first: int, top: int, extra: int) -> IntSeries:
    # sum_{s=first}^{top} x^s y^s (x+y)^{s+extra} / (4^s (2s+1)!!) at its
    # sorted keys, as int numerators over 4^top (2top+1)!!
    den = 4**top * odd_double_factorial(top)
    terms: IntTerms = {}
    for s in range(first, top + 1):
        c = den // (4**s * odd_double_factorial(s))
        for i in range((s + extra) // 2 + 1):
            terms[(s + i, 2 * s + extra - i)] = c * comb(s + extra, i)
    return _reduced(terms, den)


def _c_factor(k: int, cap: int) -> IntSeries:
    """(sum_I x)^2 G(x_I) for |I| = k as a polynomial, unstable parts folded in."""
    if k == 1:
        return {(0,): 1}, 1
    if k == 2:
        # (x+y)^2 * full two-point G: sum_{s>=0} x^s y^s (x+y)^{s+1} / (4^s (2s+1)!!)
        return _delta_power_sum(0, (cap - 1) // 3, 1)
    g, den = _stable_terms(k, cap - 2)
    out: IntTerms = {}
    for d in range(k - 1, cap + 1, 3):
        out.update(_times_power_sum(_times_power_sum(g, k, d - 1, 1), k, d, 1))
    return _reduced(out, den)


@lru_cache(maxsize=None)
def _splitters(steps: tuple[bool, ...]) -> tuple[tuple[itemgetter, itemgetter, int, int], ...]:
    """The splits into nonempty (lo, hi) of a sorted key whose part i + 1
    exceeds part i where steps[i], one of each mirror pair: getters of lo
    and hi, len(lo), and the number of labelled ways to realize the split,
    doubled unless lo = hi.  lo takes the first k_v parts of each run v."""
    n = len(steps) + 1
    cuts = [0, *(i for i, up in enumerate(steps, 1) if up), n]
    runs = [b - a for a, b in zip(cuts, cuts[1:])]
    # lex order on (k_v) puts each mirror (c_v - k_v) at the reflected index
    choices = list(product(*(range(c + 1) for c in runs)))
    out = []
    for i, ks in enumerate(choices[: (len(choices) + 1) // 2]):
        lo = [p for a, k in zip(cuts, ks) for p in range(a, a + k)]
        if 0 < len(lo) < n:
            ways = prod(map(comb, runs, ks)) * (1 if 2 * i + 1 == len(choices) else 2)
            # a slice keeps a single part a tuple
            get = [itemgetter(*ps) if ps[1:] else itemgetter(slice(ps[0], ps[0] + 1))
                   for ps in (lo, [p for p in range(n) if p not in lo])]
            out.append((*get, len(lo), ways))
    return tuple(out)


def _split_numerator(left: dict, right: dict, n: int, degree: int) -> IntTerms:
    # sum over I ⊔ J of C_I C_J at the degree's sorted keys, over num_den:
    # left[k] and left[n - k] share one scale, so mirror splits add up equal
    out: IntTerms = {}
    for m, _ in _lowerings(n, degree, 1):
        c = 0
        for lo, hi, k, ways in _splitters(tuple(map(lt, m, m[1:]))):
            a = left[k].get(lo(m))
            if a:
                b = right[n - k].get(hi(m))
                if b:
                    c += ways * a * b
        if c:
            out[m] = c
    return out


def _stable_terms(n: int, cap: int) -> IntSeries:
    """Stable normalized n-point series through total degree cap."""
    if n == 1:
        return _one_point_stable(cap)
    if n == 2:
        # sum_{s>=1} x^s y^s (x+y)^{s-1} / (4^s (2s+1)!!), degree 3s-1
        return _delta_power_sum(1, (cap + 1) // 3, -1)

    # the split products C_I C_J over one denominator num_den
    num_cap = cap + 1
    factors = {k: _c_factor(k, num_cap) for k in range(1, n)}
    num_den = lcm(*(factors[k][1] * factors[n - k][1] for k in range(1, n)))
    left = {
        k: {m: num_den // (den * factors[n - k][1]) * c for m, c in terms.items()}
        for k, (terms, den) in factors.items()
    }
    right = {k: terms for k, (terms, _) in factors.items()}

    # with t = r + s, c(r,s) = (2r+n-3)!! 4^r / (4^t (2t+n-1)!!), so the
    # degree 3t+n-3 part of G is Q_t / (4^t (2t+n-1)!!) where
    # Q_t = Delta Q_{t-1} + (2t+n-3)!! 4^t P_t; one Delta product per
    # degree, over the denominator 2 num_den 4^g_max (2g_max+n-1)!!
    g_max = (cap - n + 3) // 3
    top_odd = double_factorial(2 * g_max + n - 1)
    q: IntTerms = {}
    out: IntTerms = {}
    for t in range(g_max + 1):
        # P_t = p / (2 num_den), at degree 3t+n-3 <= cap
        degree = 3 * t + n - 3
        q = _times_delta(q, n, degree)
        p = _divide_by_e1(_split_numerator(left, right, n, degree + 1), n, degree + 1)
        lead = double_factorial(2 * t + n - 3) * 4**t
        for mono, v in p.items():
            q[mono] = q.get(mono, 0) + lead * v
        scale = 4 ** (g_max - t) * (top_odd // double_factorial(2 * t + n - 1))
        for mono, v in q.items():
            out[mono] = scale * v
    return _reduced(out, 2 * num_den * 4**g_max * top_odd)


def _times_exp_cubes(a: IntTerms, n: int, low: int, cap: int) -> tuple[IntTerms, int]:
    """exp(p_3/24) * a = sum_j p_3^j a / (24^j j!) through degree cap, as
    numerators over 24^top top! (top = cap // 3); a lives at the degrees
    low, low + 3, ..."""
    top = max(cap, 0) // 3
    den = 24**top * factorial(top)
    out = {m: den * c for m, c in a.items()}
    term = a
    for j in range(1, top + 1):
        weight = 24 ** (top - j) * (factorial(top) // factorial(j))
        lifted: IntTerms = {}
        for d in range(low + 3 * j, cap + 1, 3):
            lifted.update(_times_power_sum(term, n, d, 3))
        term = lifted
        for m, c in term.items():
            out[m] = out.get(m, 0) + weight * c
    return out, den


class NPointSeries:
    """Normalized n-point series plus exact extraction back to brackets.

    It keeps reduced integer terms at sorted keys: G's, and F's by genus
    (`stratum`, read by `bracket` and `dump_lines`).  The Fraction dicts
    `.g` and `.f` over every monomial are built on first access only and
    belong to this series."""

    def __init__(self, n: int, degree_cap: int):
        self.n = n
        self.degree_cap = degree_cap
        self._g_terms = _stable_terms(n, degree_cap)
        self._strata: dict[int, Stratum] | None = None
        self._g: Terms | None = None
        self._f: Terms | None = None

    @property
    def g(self) -> Terms:
        """The normalized series G."""
        if self._g is None:
            terms, den = self._g_terms
            self._g = _expanded(self.n, {m: Fraction(c, den) for m, c in terms.items()})
        return self._g

    @property
    def f(self) -> Terms:
        """Polynomial part of exp(sum x^3/24) * G, whose coefficients are brackets."""
        if self._f is None:
            strata = map(self.stratum, range((self.degree_cap - self.n) // 3 + 2))
            self._f = _expanded(self.n, {
                m: Fraction(c, den) for keys, nums, den in strata for m, c in zip(keys, nums)})
        return self._f

    def stratum(self, g: int) -> Stratum:
        """F at genus g as (ascending sorted keys, int numerators, one positive
        denominator): the bracket of each ordering of a key is its numerator
        over the denominator.  Empty, over 1, where no stable bracket is."""
        if 3 * g - 3 + self.n > self.degree_cap:
            raise ValueError(f"genus {g} exceeds tracked degree {self.degree_cap}")
        if self._strata is None:
            (terms, den), n, low, cap = self._g_terms, self.n, self.n % 3, self.degree_cap
            if n == 2:
                # G's unstable part 1/(x+y) adds the polynomial (exp(p_3/24) - 1)/(x+y)
                # to F, so (x+y) F = exp(p_3/24) ((x+y) G + 1) - 1, one degree up,
                # with (x+y) G + 1 = sum_{s>=0} x^s y^s (x+y)^s / (4^s (2s+1)!!)
                terms, den = _delta_power_sum(0, (cap + 1) // 3, 0)
                low, cap = 0, cap + 1
            out, e_den = _times_exp_cubes(terms, n, low, cap)
            den *= e_den
            if n == 2:
                out = {m: c for d in range(3, cap + 1, 3) for m, c in _divide_by_e1(out, 2, d).items()}
            self._strata = {}
            for degree, group in groupby(sorted((sum(m), m) for m, c in out.items() if c), itemgetter(0)):
                keys = tuple(m for _, m in group)
                q = gcd(den, *(out[m] for m in keys))
                self._strata[(degree - self.n + 3) // 3] = (keys, tuple(out[m] // q for m in keys), den // q)
        return self._strata.get(g, ((), (), 1))

    def bracket(self, exponents: Iterable[int]) -> Fraction:
        """Coefficient of prod x^{d_j} in F; equals bracket(g, d) at the fitting genus."""
        mono = tuple(exponents)
        if len(mono) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(mono)}")
        if sum(mono) > self.degree_cap:
            raise ValueError(f"degree {sum(mono)} exceeds tracked degree {self.degree_cap}")
        g, off_grade = divmod(sum(mono) - self.n + 3, 3)
        keys, nums, den = self.stratum(g)
        key = tuple(sorted(mono))
        i = bisect_left(keys, key)
        return _ZERO if off_grade or keys[i : i + 1] != (key,) else Fraction(nums[i], den)

    def dump_lines(self) -> list[str]:
        """F coefficients as "d1,..,dn -> num/den", graded then lex order."""
        strata = map(self.stratum, range((self.degree_cap - self.n) // 3 + 2))
        return _dump(self.n, range(self.n - 3, self.degree_cap + 1, 3), {
            m: f" -> {Fraction(c, den)}" for keys, nums, den in strata for m, c in zip(keys, nums)})


def npoint_series(n: int, g_max: int) -> NPointSeries:
    """Build the n-point series through genus g_max (degree 3*g_max + n - 3)."""
    if n < 1 or g_max < 0:
        raise ValueError("need n >= 1 and g_max >= 0")
    # n <= 2 at g_max = 0 gives a negative cap: no stable bracket, no term
    return NPointSeries(n, 3 * g_max + n - 3)


class MergedSeries:
    """G(y, -y, x_1..x_n): the antisymmetrized pair substituted into the
    (n+2)-point series, with the x-side normalization kept.

    Folded from G's integer terms at sorted keys: the coefficient of
    y^{2K} prod x^{d_j} is sum_{a=0}^{2K} (-1)^a G[sorted((a, 2K-a) + d)],
    kept as a numerator at (2K, *sorted d) over G's denominator.  At an odd
    power p the terms at a and p - a read one key with opposite signs and
    cancel, whatever G is, so no odd power is kept.
    """

    def __init__(self, n: int, g_max: int):
        self.n = n
        self.g_max = g_max
        base = npoint_series(n + 2, g_max)
        self.degree_cap = base.degree_cap
        terms, self._den = base._g_terms
        self._terms: IntTerms = {}
        # G lives at the degrees 3t + n - 1
        for degree in range(n - 1, self.degree_cap + 1, 3):
            for p in range(0, degree + 1, 2):
                for d, _ in _lowerings(n, degree - p, 1):
                    c = sum((-1) ** a * terms.get(tuple(sorted((a, p - a) + d)), 0) for a in range(p + 1))
                    if c:
                        self._terms[(p, *d)] = c

    def coefficient(self, K: int, exponents: Iterable[int]) -> Fraction:
        """Coefficient of y^{2K} prod x^{d_j} in the normalized merged series."""
        d = tuple(exponents)
        if len(d) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(d)}")
        if 2 * K + sum(d) > self.degree_cap:
            raise ValueError("requested coefficient beyond the tracked degree")
        return Fraction(self._terms.get((2 * K, *sorted(d)), 0), self._den)

    def dump_lines(self) -> list[str]:
        """Coefficients as "yexp,d1,..,dn -> c", by degree then lex order."""
        return _dump(self.n + 1, range(self.n - 1, self.degree_cap + 1, 3),
                     {m: f" -> {Fraction(c, self._den)}" for m, c in self._terms.items()}, 1)


def merged_series(n: int, g_max: int) -> MergedSeries:
    if n < 1:
        raise ValueError("need at least one spectator variable")
    return MergedSeries(n, g_max)
