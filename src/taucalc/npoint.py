"""The n-point generating function of intersection numbers.

F(x_1,..,x_n) collects all brackets of a fixed number of points; the
engine works with its normalization G = exp(-sum x_j^3/24) * F, which
satisfies a closed recursion:

    G(x_1,..,x_n) = sum_{r,s>=0} (2r+n-3)!! / (4^s (2r+2s+n-1)!!)
                      * P_r(x_1,..,x_n) * Delta(x_1,..,x_n)^s

    Delta = ((sum x_j)^3 - sum x_j^3) / 3
    P_r   = [ sum_{I ⊔ J = {1..n}, both nonempty}
                (sum_I x)^2 (sum_J x)^2 G(x_I) G(x_J) ]_{3r+n-2} / (2 sum x_j)

The convolution's one- and two-point inputs carry their unstable parts:
the normalized one-point function collapses to exactly x^-2, and the
two-point one is sum_{s>=0} Delta(x,y)^s / (4^s (2s+1)!! (x+y)) whose s=0
term is 1/(x+y).  Packaged as "weighted factors" C_I = (sum_I x)^2 G(x_I)
every ingredient is a genuine polynomial:

    C_{|I|=1} = 1
    C_{|I|=2} = sum_s Delta(x,y)^s (x+y) / (4^s (2s+1)!!)
    C_{|I|=k} = (sum_I x)^2 G(x_I)           (k >= 3, all stable)

Sorted keys: G and F are symmetric, because brackets are, so every
internal series is a dict keyed by ascending exponent tuples of length n,
zeros included (the key form of `multisets_with_sum`); a key's value is
the coefficient of each of its orderings.  Only sorted targets are
computed, by lookups in per-(n, degree) tables of lowered keys
(`_lowerings`).  Multiplying by p_k = sum x_j^k sums the lowered keys
times their multiplicities, so Delta = (p_1^3 - p_3) / 3 (divided
exactly) and C_k = p_1^2 G_k; the split numerator sums over the
`submultiset_splits` of a key, only at the degrees 3t+n-2 that get
divided; division by e_1 = p_1 peels from the largest maximum down and
checks every key of the degree (`_divide_by_e1`); F = sum_j p_3^j G /
(24^j j!), plus for n = 2 the polynomial part of the unstable 1/(x+y).

Arithmetic: every internal builder returns a pair (int numerators, den),
one common denominator per series, reduced once by the gcd of den and all
numerators.  With t = r + s the scalar is
c(r,s) = (2r+n-3)!! 4^r / (4^t (2t+n-1)!!), so the degree-(3t+n-3) part
of G is Q_t / (4^t (2t+n-1)!!) with

    Q_t = Delta Q_{t-1} + (2t+n-3)!! 4^t P_t,

one product by Delta per degree, all of it over the denominator
4^g (2g+n-1)!! of the series' top genus g.  A remainder in a division by
e_1 aborts, since it can only mean an implementation bug.  `Fraction`
appears only at the boundary: the {monomial: Fraction} dicts of nonzero
coefficients `NPointSeries.g`/`.f`, laid out from the sorted keys with one
shared Fraction per key, and those of `MergedSeries`, read off `.g`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import itemgetter, lt
from typing import Iterable

from .combinat import multisets_with_sum, submultiset_splits
from .rationals import double_factorial, odd_double_factorial

__all__ = [
    "NPointSeries",
    "MergedSeries",
    "DivisionRemainderError",
    "OddPowerError",
    "npoint_series",
    "merged_series",
]

Mono = tuple[int, ...]
Terms = dict[Mono, Fraction]
IntTerms = dict[Mono, int]
# an exact symmetric series as (numerators at sorted keys, common
# denominator): the value of each ordering of a key is its numerator over den
IntSeries = tuple[IntTerms, int]

_ZERO = Fraction(0)


class DivisionRemainderError(ArithmeticError):
    """Division by sum(x_j) left a remainder where a theorem promises none."""


class OddPowerError(ArithmeticError):
    """An odd power of the merged variable survived antisymmetrization."""


@lru_cache(maxsize=None)
def _lowerings(n: int, degree: int, k: int) -> tuple[tuple[Mono, tuple[tuple[Mono, int], ...]], ...]:
    """Each sorted key of the degree with its row of lowered keys: for every
    distinct part v >= k, the key with one v lowered to v - k (re-sorted)
    and the multiplicity of v.  Parts go in ascending order, so the largest
    part's entry comes last."""
    table = []
    # every k shares the key list of the p_1 table
    for m in multisets_with_sum(n, degree) if k == 1 else (m for m, _ in _lowerings(n, degree, 1)):
        row = []
        for i, v in enumerate(m):
            if v >= k and (not i or m[i - 1] != v):
                j = bisect_left(m, v - k, 0, i)
                row.append((m[:j] + (v - k,) + m[j:i] + m[i + 1 :], m.count(v)))
        table.append((m, tuple(row)))
    return tuple(table)


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


@lru_cache(maxsize=None)
def _arrangers(steps: tuple[bool, ...]) -> tuple[itemgetter, ...]:
    """Getters laying a sorted key out in each of its distinct orderings, in
    lex order; steps[i] says whether part i + 1 exceeds part i."""
    ranks = (0, *accumulate(steps))
    first = [ranks.index(r) for r in range(ranks[-1] + 1)]

    def arrangements(rest: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(rest) < 2:
            return [rest]
        return [(r,) + tail for i, r in enumerate(rest) if not i or rest[i - 1] != r
                for tail in arrangements(rest[:i] + rest[i + 1 :])]

    return tuple(itemgetter(*[first[r] for r in a]) for a in arrangements(ranks))


def _orderings(key: Mono) -> list[Mono]:
    """The distinct monomials whose exponents sort to key, in lex order."""
    if len(key) < 2:
        return [key]
    return [get(key) for get in _arrangers(tuple(map(lt, key, key[1:])))]


def _expanded(series: IntSeries) -> tuple[Terms, Terms]:
    """(sorted-key Fractions, every ordering sharing its key's Fraction)."""
    terms, den = series
    by_key = {m: Fraction(c, den) for m, c in terms.items()}
    return by_key, {mono: c for m, c in by_key.items() for mono in _orderings(m)}


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


def _split_numerator(left: dict, right: dict, n: int, degree: int) -> IntTerms:
    # sum over I ⊔ J of C_I C_J at the degree's sorted keys; left[k] holds
    # C_k scaled to the common denominator of the size-k products
    out: IntTerms = {}
    for m, _ in _lowerings(n, degree, 1):
        c = 0
        for lo, hi, count in submultiset_splits(m):
            k = len(lo)
            if 0 < k < n:
                a = left[k].get(lo)
                if a:
                    b = right[n - k].get(hi)
                    if b:
                        c += count * a * b
        if c:
            out[m] = c
    return out


@lru_cache(maxsize=None)
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


def _two_point_correction(cap: int) -> IntSeries:
    # the unstable 1/(x+y) contributes (exp(..)-1)/(x+y) to the polynomial
    # part; degree by degree the division is exact.  Division drops one
    # degree, so feed it one degree more; the constant term is never divided.
    e, den = _times_exp_cubes({(0, 0): 1}, 2, 0, cap + 1)
    out: IntTerms = {}
    for d in range(3, cap + 2, 3):
        out.update(_divide_by_e1(e, 2, d))
    return _reduced(out, den)


class NPointSeries:
    """Normalized n-point series plus exact extraction back to brackets."""

    def __init__(self, n: int, degree_cap: int):
        self.n = n
        self.degree_cap = degree_cap
        self._stable = _stable_terms(n, degree_cap)
        _, self.g = _expanded(self._stable)
        self._f_keys: Terms = {}
        self._f: Terms | None = None

    @property
    def f(self) -> Terms:
        """Polynomial part of exp(sum x^3/24) * G, whose coefficients are brackets."""
        if self._f is None:
            cap = self.degree_cap
            g_terms, g_den = self._stable
            out, e_den = _times_exp_cubes(g_terms, self.n, self.n % 3, cap)
            den = g_den * e_den
            if self.n == 2:
                c_terms, c_den = _two_point_correction(cap)
                common = lcm(den, c_den)
                out = {m: common // den * c for m, c in out.items()}
                for mono, c in c_terms.items():
                    out[mono] = out.get(mono, 0) + common // c_den * c
                den = common
            self._f_keys, self._f = _expanded(_reduced(out, den))
        return self._f

    def bracket(self, exponents: Iterable[int]) -> Fraction:
        """Coefficient of prod x^{d_j} in F; equals bracket(g, d) at the fitting genus."""
        mono = tuple(exponents)
        if len(mono) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(mono)}")
        if sum(mono) > self.degree_cap:
            raise ValueError(f"degree {sum(mono)} exceeds tracked degree {self.degree_cap}")
        return self.f.get(mono, _ZERO)

    def dump_lines(self) -> list[str]:
        """F coefficients as "d1,..,dn -> num/den", graded then lex order."""
        self.f  # extraction fills the sorted keys
        return _graded_lines((sum(m), _orderings(m), f" -> {c}") for m, c in self._f_keys.items())


def _graded_lines(groups) -> list[str]:
    # groups of (degree, monomials, text shared by them): one line per
    # monomial, "e1,..,ek" + text, by degree then lex order
    rows = sorted((degree, mono, text) for degree, monos, text in groups for mono in monos)
    return [f"{','.join(map(str, mono))}{text}" for _, mono, text in rows]


def npoint_series(n: int, g_max: int) -> NPointSeries:
    """Build the n-point series through genus g_max (degree 3*g_max + n - 3)."""
    if n < 1 or g_max < 0:
        raise ValueError("need n >= 1 and g_max >= 0")
    # n <= 2 at g_max = 0 gives a negative cap: no stable bracket, no term
    return NPointSeries(n, 3 * g_max + n - 3)


class MergedSeries:
    """G(y, -y, x_1..x_n): the antisymmetrized pair substituted into the
    (n+2)-point series, with the x-side normalization kept.

    Keys are (y-exponent, x-exponent tuple); odd y-powers must cancel
    identically and construction aborts if one survives.
    """

    def __init__(self, n: int, g_max: int):
        self.n = n
        self.g_max = g_max
        base = npoint_series(n + 2, g_max)
        self.degree_cap = base.degree_cap
        gterms: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        for mono, c in base.g.items():
            key = (mono[0] + mono[1], mono[2:])
            if mono[1] % 2:
                c = -c
            prev = gterms.get(key)
            gterms[key] = c if prev is None else prev + c
        gterms = {key: c for key, c in gterms.items() if c}
        for (ypow, xs) in gterms:
            if ypow % 2:
                raise OddPowerError(
                    f"odd power y^{ypow} x^{xs} survived the (y,-y) substitution"
                )
        self.gterms = gterms

    def coefficient(self, K: int, exponents: Iterable[int]) -> Fraction:
        """Coefficient of y^{2K} prod x^{d_j} in the normalized merged series."""
        d = tuple(exponents)
        if len(d) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(d)}")
        if 2 * K + sum(d) > self.degree_cap:
            raise ValueError("requested coefficient beyond the tracked degree")
        return self.gterms.get((2 * K, d), _ZERO)

    def dump_lines(self) -> list[str]:
        # the series is symmetric in the x side: one text per sorted key
        return _graded_lines(
            (ypow + sum(xs), [(ypow,) + o for o in _orderings(xs)], f" -> {c}")
            for (ypow, xs), c in self.gterms.items() if list(xs) == sorted(xs)
        )


def merged_series(n: int, g_max: int) -> MergedSeries:
    if n < 1:
        raise ValueError("need at least one spectator variable")
    return MergedSeries(n, g_max)
