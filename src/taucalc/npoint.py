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

Arithmetic: every internal builder returns a pair (int numerators, den),
one common denominator per series, reduced once by the gcd of den and all
numerators.  Delta has integer coefficients (1 and 2), so its powers are
integral.  The split products C_I C_J are brought over the lcm of their
denominators; for each size |I| = k one product is formed, for
I = {1..k}, and every other I of that size is a relabelling of it, added
into one numerator.  With t = r + s the scalar is
c(r,s) = (2r+n-3)!! 4^r / (4^t (2t+n-1)!!), so the degree-(3t+n-3) part
of G is Q_t / (4^t (2t+n-1)!!) with

    Q_t = Delta Q_{t-1} + (2t+n-3)!! 4^t P_t,

one product by Delta per degree, all of it over the denominator
4^g (2g+n-1)!! of the series' top genus g.  Each P_t division by sum x_j
runs on the int numerators, peeling the quotient off one power of x_1 at
a time from the top down, and is exact -- a nonzero remainder aborts,
since it can only mean an implementation bug.  `Fraction` appears only
at the boundary: the {monomial: Fraction} dicts `NPointSeries.g`/`.f`
and those of `MergedSeries`, which hold nonzero coefficients only.  The
exposed series keep only the stable coefficients; extraction back to F
restores the polynomial part of the unstable contributions where they
matter (n = 2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, gcd, lcm
from operator import itemgetter
from typing import Iterable

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
# an exact series as (numerator items, common denominator): the value of
# each monomial is its numerator over den
IntSeries = tuple[tuple[tuple[Mono, int], ...], int]

_ZERO = Fraction(0)


class DivisionRemainderError(ArithmeticError):
    """Division by sum(x_j) left a remainder where a theorem promises none."""


class OddPowerError(ArithmeticError):
    """An odd power of the merged variable survived antisymmetrization."""


def _mul(a, b, cap: int) -> IntTerms:
    """Product of two (monomial, int) sequences through total degree cap.
    Zero coefficients may remain; `_reduced` drops them.

    Inside, each monomial is packed into one int with a field of
    cap.bit_length() bits per variable, so multiplying monomials is one int
    addition; no field of a product within the cap can overflow.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    width = cap.bit_length()
    shifts = [width * i for i in range(len(next(iter(b))[0]))]

    def pack(mono: Mono) -> int:
        key = 0
        for e, shift in zip(mono, shifts):
            key |= e << shift
        return key

    bitems = sorted(((sum(m), pack(m), c) for m, c in b), key=lambda t: t[0])
    acc: dict[int, int] = {}
    get = acc.get
    for ma, ca in a:
        room = cap - sum(ma)
        ka = pack(ma)
        for db, kb, cb in bitems:
            if db > room:
                break
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    mask = (1 << width) - 1
    return {tuple([(key >> shift) & mask for shift in shifts]): c for key, c in acc.items()}


def _reduced(terms: IntTerms, den: int) -> IntSeries:
    """Freeze numerators over den, cancelling their common gcd with den."""
    terms = {m: c for m, c in terms.items() if c}
    g = gcd(den, *terms.values())
    return tuple((m, c // g) for m, c in terms.items()), den // g


def _fractions(series: IntSeries) -> Terms:
    items, den = series
    return {m: Fraction(c, den) for m, c in items}


def _component(a: dict, degree: int) -> dict:
    return {m: c for m, c in a.items() if sum(m) == degree}


def _divide_by_varsum(comp: dict, n: int) -> dict:
    """Exact division of a homogeneous component by x_0 + .. + x_{n-1}.

    Works on any exact coefficient type (it only adds and subtracts), so
    int numerators stay ints.  Peels by the exponent a of x_0: with
    comp = sum_a x_0^a comp_a, q = sum_a x_0^a q_a and s = x_1 + .. +
    x_{n-1}, comp_a = q_{a-1} + s q_a, so q_{a-1} = comp_a - s q_a from the
    top a down, and comp_0 - s q_0 is the remainder, which must vanish.
    """
    parts: dict[int, dict] = {}
    for m, c in comp.items():
        parts.setdefault(m[0], {})[m] = c
    quotient: dict = {}
    q: dict = {}  # q_a, stored with x_0 exponent a
    for a in range(max(parts, default=0), -1, -1):
        rem = parts.get(a, {})
        get = rem.get
        for m, c in q.items():
            for i in range(1, n):
                m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
                rem[m2] = get(m2, 0) - c
        if not a:
            break
        q = {}
        for m, c in rem.items():
            if c:
                m = (a - 1,) + m[1:]
                q[m] = quotient[m] = c
    for m, c in rem.items():
        if c:
            raise DivisionRemainderError(
                f"remainder at monomial {m}: component not divisible by the variable sum"
            )
    return quotient


def _delta(n: int) -> tuple[tuple[Mono, int], ...]:
    # (sum x)^3 without the pure cubes, divided by 3: x_i^2 x_j has
    # coefficient 1 and x_i x_j x_k (i < j < k) coefficient 2
    terms: IntTerms = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if i == j == k:
                    continue
                mono = [0] * n
                mono[i] += 1
                mono[j] += 1
                mono[k] += 1
                terms[tuple(mono)] = 2 if i < j < k else 1
    return tuple(terms.items())


@lru_cache(maxsize=None)
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


def _delta_power_sum(first: int, top: int, extra: int) -> tuple[IntTerms, int]:
    # sum_{s=first}^{top} x^s y^s (x+y)^{s+extra} / (4^s (2s+1)!!) as int
    # numerators over 4^top (2top+1)!!
    den = 4**top * odd_double_factorial(top)
    terms: IntTerms = {}
    for s in range(first, top + 1):
        c = den // (4**s * odd_double_factorial(s))
        for i in range(s + extra + 1):
            terms[(s + i, 2 * s + extra - i)] = c * comb(s + extra, i)
    return terms, den


@lru_cache(maxsize=None)
def _two_point_stable(cap: int) -> IntSeries:
    # sum_{s>=1} x^s y^s (x+y)^{s-1} / (4^s (2s+1)!!), degree 3s-1
    return _reduced(*_delta_power_sum(1, (cap + 1) // 3, -1))


@lru_cache(maxsize=None)
def _two_point_cfactor(cap: int) -> IntSeries:
    # (x+y)^2 * full two-point G: sum_{s>=0} x^s y^s (x+y)^{s+1} / (4^s (2s+1)!!)
    return _reduced(*_delta_power_sum(0, (cap - 1) // 3, 1))


def _embed(terms: Iterable[tuple[Mono, int]], positions: tuple[int, ...],
           n: int) -> list[tuple[Mono, int]]:
    # exponent i of each monomial goes to position positions[i] of n (n >= 2);
    # the positions not named read the zero padded onto the monomial's end
    source = [len(positions)] * n
    for i, p in enumerate(positions):
        source[p] = i
    pick = itemgetter(*source)
    return [(pick(mono + (0,)), c) for mono, c in terms]


@lru_cache(maxsize=None)
def _c_factor(k: int, cap: int) -> IntSeries:
    """(sum_I x)^2 G(x_I) for |I| = k as a polynomial, unstable parts folded in."""
    if k == 1:
        return (((0,), 1),), 1
    if k == 2:
        return _two_point_cfactor(cap)
    g_items, den = _stable_terms(k, cap - 2)
    e1sq: IntTerms = {}
    for i in range(k):
        for j in range(k):
            mono = [0] * k
            mono[i] += 1
            mono[j] += 1
            key = tuple(mono)
            e1sq[key] = e1sq.get(key, 0) + 1
    return _reduced(_mul(g_items, e1sq.items(), cap), den)


@lru_cache(maxsize=None)
def _stable_terms(n: int, cap: int) -> IntSeries:
    """Stable normalized n-point series through total degree cap."""
    if n == 1:
        return _one_point_stable(cap)
    if n == 2:
        return _two_point_stable(cap)

    # the split products C_I C_J over one denominator: for |I| = k every
    # product is a relabelling of the one for I = {0..k-1}, J = {k..n-1}, so
    # it is formed once per size and embedded at positions I + J
    num_cap = cap + 1
    factors = {k: _c_factor(k, num_cap) for k in range(1, n)}
    num_den = 1
    for k in range(1, n):
        num_den = lcm(num_den, factors[k][1] * factors[n - k][1])
    numerator: IntTerms = {}
    indices = tuple(range(n))
    for size in range(1, n):
        (a_items, a_den), (b_items, b_den) = factors[size], factors[n - size]
        scale = num_den // (a_den * b_den)
        a_scaled = [(m, scale * c) for m, c in a_items]
        product = _mul(_embed(a_scaled, indices[:size], n),
                       _embed(b_items, indices[size:], n), num_cap).items()
        for left in combinations(indices, size):
            right = tuple(i for i in indices if i not in left)
            for mono, c in _embed(product, left + right, n):
                numerator[mono] = numerator.get(mono, 0) + c

    # with t = r + s, c(r,s) = (2r+n-3)!! 4^r / (4^t (2t+n-1)!!), so the
    # degree 3t+n-3 part of G is Q_t / (4^t (2t+n-1)!!) where
    # Q_t = Delta Q_{t-1} + (2t+n-3)!! 4^t P_t; one Delta product per
    # degree, over the denominator 2 num_den 4^g_max (2g_max+n-1)!!
    g_max = (cap - n + 3) // 3
    top_odd = double_factorial(2 * g_max + n - 1)
    delta = _delta(n)
    q: IntTerms = {}
    out: IntTerms = {}
    for t in range(g_max + 1):
        # P_t = p / (2 num_den); the top degree 3 g_max + n - 3 is within
        # cap, so no Delta product is truncated
        q = _mul(delta, q.items(), cap)
        p = _divide_by_varsum(_component(numerator, 3 * t + n - 2), n)
        lead = double_factorial(2 * t + n - 3) * 4**t
        for mono, v in p.items():
            q[mono] = q.get(mono, 0) + lead * v
        scale = 4 ** (g_max - t) * (top_odd // double_factorial(2 * t + n - 1))
        for mono, v in q.items():
            out[mono] = scale * v
    return _reduced(out, 2 * num_den * 4**g_max * top_odd)


@lru_cache(maxsize=None)
def _exp_cubes(n: int, cap: int) -> IntSeries:
    """exp(sum x_j^3 / 24) truncated at total degree cap (empty if cap < 0)."""
    top = max(cap, 0) // 3
    den = 24**top * factorial(top)
    terms: IntTerms = {(0,) * n: 1}
    for i in range(n):
        single = []
        for k in range(top + 1):
            mono = [0] * n
            mono[i] = 3 * k
            single.append((tuple(mono), den // (24**k * factorial(k))))
        terms = _mul(terms.items(), single, cap)
    return _reduced(terms, den**n)


def _two_point_correction(cap: int) -> IntSeries:
    # the unstable 1/(x+y) contributes (exp(..)-1)/(x+y) to the polynomial
    # part; degree by degree the division is exact.  Division drops one
    # degree, so feed it one degree more.
    items, den = _exp_cubes(2, cap + 1)
    shifted = {m: c for m, c in items if m != (0, 0)}
    out: IntTerms = {}
    for deg in range(1, cap + 2):
        comp = _component(shifted, deg)
        if comp:
            for mono, c in _divide_by_varsum(comp, 2).items():
                out[mono] = out.get(mono, 0) + c
    return _reduced(out, den)


class NPointSeries:
    """Normalized n-point series plus exact extraction back to brackets."""

    def __init__(self, n: int, degree_cap: int):
        self.n = n
        self.degree_cap = degree_cap
        self._stable = _stable_terms(n, degree_cap)
        self.g: Terms = _fractions(self._stable)
        self._f: Terms | None = None

    @property
    def f(self) -> Terms:
        """Polynomial part of exp(sum x^3/24) * G, whose coefficients are brackets."""
        if self._f is None:
            cap = self.degree_cap
            g_items, g_den = self._stable
            e_items, e_den = _exp_cubes(self.n, cap)
            out = _mul(g_items, e_items, cap)
            den = g_den * e_den
            if self.n == 2:
                c_items, c_den = _two_point_correction(cap)
                common = lcm(den, c_den)
                scale = common // den
                out = {m: scale * c for m, c in out.items()}
                scale = common // c_den
                for mono, c in c_items:
                    out[mono] = out.get(mono, 0) + scale * c
                den = common
            self._f = _fractions(_reduced(out, den))
        return self._f

    def bracket(self, exponents: Iterable[int]) -> Fraction:
        """Coefficient of prod x^{d_j} in F; equals bracket(g, d) at the fitting genus."""
        mono = tuple(exponents)
        if sum(mono) > self.degree_cap:
            raise ValueError(f"degree {sum(mono)} exceeds tracked degree {self.degree_cap}")
        return self.f.get(mono, _ZERO)

    def dump_lines(self) -> list[str]:
        """F coefficients as "d1,..,dn -> num/den", graded then lex order."""
        rows = sorted(self.f.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return [f"{','.join(map(str, m))} -> {c}" for m, c in rows]


@lru_cache(maxsize=None)
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
            a, b = mono[0], mono[1]
            key = (a + b, mono[2:])
            prev = gterms.get(key, _ZERO)
            new = prev + c * (-1) ** b
            if new:
                gterms[key] = new
            else:
                gterms.pop(key, None)
        for (ypow, xs) in gterms:
            if ypow % 2:
                raise OddPowerError(
                    f"odd power y^{ypow} x^{xs} survived the (y,-y) substitution"
                )
        self.gterms = gterms

    def coefficient(self, K: int, exponents: Iterable[int]) -> Fraction:
        """Coefficient of y^{2K} prod x^{d_j} in the normalized merged series."""
        d = tuple(exponents)
        if 2 * K + sum(d) > self.degree_cap:
            raise ValueError("requested coefficient beyond the tracked degree")
        return self.gterms.get((2 * K, d), _ZERO)

    def dump_lines(self) -> list[str]:
        rows = sorted(self.gterms.items(), key=lambda kv: (kv[0][0] + sum(kv[0][1]), kv[0]))
        return [
            f"{ypow},{','.join(map(str, xs))} -> {c}" if xs else f"{ypow} -> {c}"
            for (ypow, xs), c in rows
        ]


def merged_series(n: int, g_max: int) -> MergedSeries:
    if n < 1:
        raise ValueError("need at least one spectator variable")
    return MergedSeries(n, g_max)

