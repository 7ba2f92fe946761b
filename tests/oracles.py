"""Independent oracles the tests check the engines against.

Nothing in here imports the package's computational paths beyond plain
Fractions: the Bernoulli oracle is the tangent-number triangle, the
genus-0 oracle walks the string equation, the three-point oracle expands
an explicit closed series, the Mumford oracle sums the Chern character
expansion term by term over labelled splits from bracket and kappa
functions passed in, and the reference table freezes values published by
an unrelated implementation.  `cache_dumps` is a table's cache file as a
string, so that the tests can compare two tables' contents.
`warm_table_from_series` seeds a bracket table from an n-point series, so
that the tests can check the recursion against tables filled by the other
engine, and `merged_alt_sums` turns a merged series back into alternating
pair sums for the same comparison.  `merged_by_orderings` is the merged
series folded from G over every ordering, with its odd-power check, the
reference for the package's fold on sorted keys.
`two_point_numerators_by_channel` sums the closed two-point rows term by
term over every channel, and `two_point_numerators_by_horner` evaluates
them by Horner's rule in x + x^2: both are references for the package's
order-5 recurrence.
`divide_by_varsum` and `delta_terms` are the n-point engine's division by
x_0 + .. + x_{n-1} and its Delta polynomial over every monomial, the
oracles of its sorted-key kernels, and `lowerings` builds its tables of
lowered keys one key at a time from `multisets_with_sum`.  `dvv_ordered`
is the bracket engine's DVV descent in Fractions with its boundary 1/2-sum
taken over ordered pairs, the reference for the engine's mirror-paired
sum; it reads the ordered splits from `combinat.submultiset_splits`, which
the combinatorics tests check against labelled subsets.
`script_D_by_kappa` is script-D by its definition, the lcm over the kappa
monomials, from the caller's kappa reduction: the reference for the
package's reading of script-D off psi-brackets.
`bracket_sum_by_fractions` adds signed brackets as one reduced Fraction
per term, the reference for the identity sides' integer bracket sums.
`kdv_relations` checks Witten's KdV form of the recursion, a relation
independent of the DVV step the engine takes, on brackets passed in.
`conv_pairs` decodes the keys of a split-sum convolution slot back to the
side pairs they stand for.
`normalized_terms` is an n-point series' normalized G as a Fraction dict
over every ordering, laid out from its integer terms at sorted keys.
`engines_agree_on_stratum` compares one (g, n) stratum of the series with
the descent engine's memo values passed in, as ints.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, isqrt, lcm, prod

from taucalc.brackets import BracketTable, cache_save
from taucalc.combinat import multisets_with_sum, partitions, submultiset_splits
from taucalc.npoint import DivisionRemainderError


def bernoulli_tangent(m: int) -> Fraction:
    """B_m for even m >= 2 via integer tangent numbers (Seidel triangle)."""
    assert m >= 2 and m % 2 == 0
    n = m // 2
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    sign = 1 if n % 2 else -1
    return Fraction(sign * t[n] * 2 * n, 2 ** (2 * n) * (2 ** (2 * n) - 1))


def genus0_string(d: tuple[int, ...]) -> Fraction:
    """Genus-0 brackets from <tau_0^3> = 1 and the string equation only."""
    n = len(d)
    if n < 3 or any(x < 0 for x in d) or sum(d) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)  # all exponents are forced to 0
    i = d.index(0)
    rest = d[:i] + d[i + 1 :]
    total = Fraction(0)
    for j in range(len(rest)):
        lowered = rest[:j] + (rest[j] - 1,) + rest[j + 1 :]
        if lowered[j] >= 0:
            total += genus0_string(lowered)
    return total


def ch_insertion_mumford(genus, k, exponents, bracket, kappa_to_psi, table=None) -> Fraction:
    """<ch_{2k-1}(Hodge bundle) prod tau_{d_j}>_g via Mumford's expansion:
    the kappa_{2k-1} term, minus each d_j raised by 2k-1, plus half the
    irreducible and the splitting boundary terms, the latter summed over
    ordered pairs I ⊔ J of labelled points.  bracket(g, d, table) and
    kappa_to_psi(g, psi, kappa, table) are supplied by the caller."""
    if k < 1:
        raise ValueError("the Chern character index 2k-1 needs k >= 1")
    d = tuple(sorted(exponents))
    if any(x < 0 for x in d):
        return Fraction(0)
    g = genus
    combo = kappa_to_psi(g, d, (2 * k - 1,), table)
    for j in range(len(d)):
        raised = d[:j] + (d[j] + 2 * k - 1,) + d[j + 1 :]
        combo -= bracket(g, raised, table)

    n = len(d)
    splits = [
        (tuple(d[i] for i in range(n) if mask >> i & 1),
         tuple(d[i] for i in range(n) if not mask >> i & 1))
        for mask in range(2**n)
    ]
    half = Fraction(1, 2)
    for j in range(2 * k - 1):
        sign = (-1) ** j
        other = 2 * k - 2 - j
        combo += half * sign * bracket(g - 1, d + (j, other), table)
        for left, right in splits:
            gl, rem = divmod(j + sum(left) - len(left) + 2, 3)
            if rem or gl < 0 or gl > g:
                continue
            lv = bracket(gl, (j,) + left, table)
            if lv:
                rv = bracket(g - gl, (other,) + right, table)
                if rv:
                    combo += half * sign * lv * rv
    return bernoulli_tangent(2 * k) / factorial(2 * k) * combo


def script_D_by_kappa(genus: int, kappa_to_psi) -> int:
    """lcm of the denominators of <prod kappa_{a_j}>_g over the partitions a
    of 3g-3; kappa_to_psi(g, psi, kappa, table) is supplied by the caller
    and runs on a table of its own."""
    table = BracketTable()
    return lcm(*(kappa_to_psi(genus, (), a, table).denominator for a in partitions(3 * genus - 3)))


# bracket memo size after script-D(g) on a fresh table, counted while
# script-D still went through the kappa recursion, which ends in the same
# psi-brackets <prod tau_{a_j+1}>_g that the package now reads directly
SCRIPT_D_MEMO_SIZES = {2: 7, 3: 28, 4: 94, 5: 257, 6: 634, 7: 1456, 8: 3165, 9: 6586, 10: 13196}


def bracket_sum_by_fractions(genus: int, terms, bracket) -> Fraction:
    """sum of c <prod tau_E>_genus over terms = ((c, E), ...), each term a
    Fraction from the bracket function passed in, bracket(genus, E)."""
    return sum((c * bracket(genus, E) for c, E in terms), Fraction(0))


def kdv_relations(sigma_max: int, bracket_any_genus) -> tuple[int, list]:
    """Witten's KdV form of the recursion,

      (2n+1) <<t_n t_0^2>> = <<t_{n-1} t_0>> <<t_0^3>>
                             + 2 <<t_{n-1} t_0^2>> <<t_0^2>> + 1/4 <<t_{n-1} t_0^4>>,

    at the coefficient of the labelled spectators X = (x_1, .., x_m), for
    every multiset X with m <= 4 and sum(X) <= sigma_max and every 1 <= n <
    3(sum(X) + 6).  Each product sums over the ordered splits of the labels
    {1..m} (bit masks, not `submultiset_splits`, which the descent uses), and
    each bracket, bracket_any_genus(exponents), sits at the genus its
    dimension fixes.  Returns the number of nonzero relations and the
    (n, X) of those that fail."""
    b = bracket_any_genus
    relations, failed = 0, []
    for m in range(5):
        for X in combinations_with_replacement(range(sigma_max + 1), m):
            if sum(X) > sigma_max:
                continue
            splits = [
                (tuple(x for i, x in enumerate(X) if mask >> i & 1),
                 tuple(x for i, x in enumerate(X) if not mask >> i & 1))
                for mask in range(2**m)
            ]
            for n in range(1, 3 * (sum(X) + 6)):
                lhs = (2 * n + 1) * b((n, 0, 0) + X)
                rhs = Fraction(1, 4) * b((n - 1, 0, 0, 0, 0) + X)
                for left, right in splits:
                    rhs += b((n - 1, 0) + left) * b((0, 0, 0) + right)
                    rhs += 2 * b((n - 1, 0, 0) + left) * b((0, 0) + right)
                if lhs != rhs:
                    failed.append((n, X))
                relations += lhs != 0
    return relations, failed


def _odd_df(k: int) -> int:
    """(2k+1)!!"""
    return prod(range(1, 2 * k + 2, 2))


def dvv_ordered(g: int, d: tuple[int, ...], memo: dict) -> Fraction:
    """S_g(d) = prod (2d_j+1)!! <prod tau_{d_j}>_g as a Fraction, by the DVV
    descent with its boundary 1/2-sum taken term by term over ordered pairs:
    every r in 0..k-1, every ordered split of the other exponents, the left
    genus found by divmod and 1/2 on every boundary term.

    Sub-keys go the engine's way (closed one- and two-point forms, string
    and dilaton equations, descent on the largest exponent), so memo ends
    up holding every key of genus >= 1 visited other than S_1(1), the keys
    the engine stores; d is ascending.
    """
    n = len(d)
    if g < 0 or 2 * g - 2 + n <= 0 or (d and d[0] < 0) or sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0:
        return genus0_string(d) * prod(map(_odd_df, d))
    if g == 1 and d == (1,):
        return Fraction(1, 8)
    key = (g, d)
    if key in memo:
        return memo[key]
    if n == 1:
        value = Fraction(_odd_df(d[0]), 24**g * factorial(g))
    elif n == 2:
        num, whole = two_point_numerators_by_channel(g)
        value = Fraction(num[d[0]] * _odd_df(d[0]) * _odd_df(d[1]), whole)
    elif d[0] == 0:
        rest = d[1:]
        value = sum(
            (2 * x + 1) * dvv_ordered(g, tuple(sorted(rest[:j] + (x - 1,) + rest[j + 1 :])), memo)
            for j, x in enumerate(rest)
            if x >= 1
        )
    elif d[0] == 1:
        value = 3 * (2 * g - 3 + n) * dvv_ordered(g, d[1:], memo)
    else:
        k, rest = d[-1] - 1, d[:-1]
        value = sum(
            (2 * x + 1) * dvv_ordered(g, tuple(sorted(rest[:j] + (x + k,) + rest[j + 1 :])), memo)
            for j, x in enumerate(rest)
        )
        half = Fraction(1, 2)
        splits = submultiset_splits(rest)
        for r in range(k):
            s = k - 1 - r
            value += half * dvv_ordered(g - 1, tuple(sorted(rest + (r, s))), memo)
            for left, right, count in splits:
                gl, rem = divmod(r + sum(left) - len(left) + 2, 3)
                if rem or gl < 0 or gl > g:
                    continue
                lv = dvv_ordered(gl, tuple(sorted((r,) + left)), memo)
                if lv:
                    rv = dvv_ordered(g - gl, tuple(sorted((s,) + right)), memo)
                    value += half * count * lv * rv
    memo[key] = Fraction(value)
    return memo[key]


def cache_dumps(table: BracketTable) -> str:
    buf = io.StringIO()
    cache_save(table, buf)
    return buf.getvalue()


def warm_table_from_series(series, table) -> int:
    """Seed a bracket table with every coefficient of the series' F part.

    Only dimension-consistent stable keys are stored.  Returns the number
    of entries written.
    """
    count = 0
    n = series.n
    for mono, c in series.f.items():
        num = sum(mono) - n + 3
        g, rem = divmod(num, 3)
        if rem or g < 0 or 2 * g - 2 + n <= 0:
            continue
        table.put((g, tuple(sorted(mono))), c)
        count += 1
    return count


def merged_by_orderings(g: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """G(y, -y, x) from G's Fraction dict over every ordering (an (n+2)-point
    series' `normalized_terms`): each monomial y^a (-y)^b x^d adds (-1)^b
    G[a, b, d] at (a + b, d).  The nonzero sums, keyed (y-power,
    x-exponents); raises ArithmeticError if an odd power of y survives."""
    out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for mono, c in g.items():
        key = (mono[0] + mono[1], mono[2:])
        out[key] = out.get(key, Fraction(0)) + (-c if mono[1] % 2 else c)
    out = {key: c for key, c in out.items() if c}
    odd = [key for key in out if key[0] % 2]
    if odd:
        raise ArithmeticError(f"odd powers survived the (y, -y) substitution: {odd[:3]}")
    return out


def merged_alt_sums(merged) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """The merged series G(y, -y, x) with its x-side normalization removed,
    i.e. multiplied by exp(sum_j x_j^3 / 24) through the tracked degree.

    The value at (2K, d) is the coefficient of y^{2K} prod x^{d_j}, which
    equals sum_j (-1)^j <tau_{2K-j} tau_j prod tau_d>; keys that are absent
    are 0.
    """
    cap = merged.degree_cap
    exp_terms: dict[tuple[int, ...], Fraction] = {(0,) * merged.n: Fraction(1)}
    for i in range(merged.n):
        grown: dict[tuple[int, ...], Fraction] = {}
        for mono, c in exp_terms.items():
            for k in range((cap - sum(mono)) // 3 + 1):
                key = mono[:i] + (mono[i] + 3 * k,) + mono[i + 1 :]
                grown[key] = c * Fraction(1, 24**k * factorial(k))
        exp_terms = grown
    out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for K, xs in product(range(cap // 2 + 1), product(range(cap + 1), repeat=merged.n)):
        ypow = 2 * K
        if ypow + sum(xs) > cap or not (c := merged.coefficient(K, xs)):
            continue
        for mono, e in exp_terms.items():
            if ypow + sum(xs) + sum(mono) > cap:
                continue
            key = (ypow, tuple(a + b for a, b in zip(xs, mono)))
            out[key] = out.get(key, Fraction(0)) + c * e
    return {key: c for key, c in out.items() if c}


def two_point_numerators_by_channel(g: int) -> tuple[list[int], int]:
    """The closed two-point row of genus g >= 1, summed channel by channel:
    integer numerators of <tau_d tau_{3g-1-d}>_g for d = 0 .. (3g-1)//2
    over whole = 4^g (2g+1)!! 24^g g!, and whole.

    Stable channel s = 1..g contributes base_s C(s-1, i) C(g-s, u) to
    x^(s+i+3u), with base_s = whole / (4^s (2s+1)!! 24^(g-s) (g-s)!); the
    unstable channel's slice (x^3+y^3)^(g-1) (x^2-xy+y^2)/(24^g g!) adds
    whole/(24^g g!) C(g-1, a//3) to x^a, negated for a = 1 mod 3.  A triple
    loop, O(g^3) products per row.
    """
    half = (3 * g - 1) // 2
    whole = 4**g * _odd_df(g) * 24**g * factorial(g)
    num = [0] * (half + 1)
    for s in range(1, g + 1):
        k = g - s
        base = whole // (4**s * _odd_df(s) * 24**k * factorial(k))
        row = [base * comb(k, u) for u in range(k + 1)]
        for i in range(s):
            ci = comb(s - 1, i)
            for u in range(min(k, (half - s - i) // 3) + 1):
                num[s + i + 3 * u] += ci * row[u]
    unit = whole // (24**g * factorial(g))
    for a in range(half + 1):
        c = unit * comb(g - 1, a // 3)
        num[a] += -c if a % 3 == 1 else c
    return num, whole


def two_point_numerators_by_horner(g: int) -> tuple[list[int], int]:
    """The closed two-point row of genus g >= 1 by Horner's rule in x + x^2:
    integer numerators of <tau_d tau_{3g-1-d}>_g for d = 0 .. (3g-1)//2
    over whole = 4^g (2g+1)!! 24^g g!, and whole.

    The two-point family has one stable channel per s = 1..g plus the
    unstable channel exp((x^3+y^3)/24)/(x+y), whose degree-(3g-1) slice is
    (x^3+y^3)^(g-1) (x^2-xy+y^2)/(24^g g!).  Every contribution divides
    whole, so the accumulation runs on integers.

    With y set to 1, the stable channels sum to sum_s x^s (1+x)^(s-1) P_s(x^3)
    = x sum_s (x+x^2)^(s-1) P_s(x^3), with P_s(z) = sum_u base_s C(g-s, u)
    z^u.  Horner in x + x^2 from s = g down to 1 evaluates it with shifted
    additions and products by small ints, O(g^2) of them per row.
    """
    half = (3 * g - 1) // 2
    whole = 4**g * _odd_df(g) * 24**g * factorial(g)
    # base_s = whole / (4^s (2s+1)!! 24^k k!), k = g - s, is an integer
    # (4^k (2g+1)!!/(2s+1)!! 24^s g!, which k! divides); it and base_s C(k, u)
    # step by exact division: base_{s-1} = base_s 4 (2s+1) / (24 (k+1))
    base = whole // (4**g * _odd_df(g))
    acc = [0] * half  # degrees 0 .. half-1; the final shift by x fills 1 .. half
    for s in range(g, 0, -1):
        # acc <- acc (x + x^2), truncated
        acc = [0] + [a + b for a, b in zip(acc[:-1], [0] + acc)]
        k = g - s
        term = base
        for u in range(min(k, (half - 1) // 3) + 1):
            acc[3 * u] += term
            term = term * (k - u) // (u + 1)
        base = base * 4 * (2 * s + 1) // (24 * (k + 1))
    num = [0] + acc
    # unstable channel: x^a with a = 3u + 1 carries -comb(g-1, u), a = 3u
    # and a = 3u + 2 carry +comb(g-1, u)
    unit = whole // (24**g * factorial(g))
    for a in range(half + 1):
        c = unit * comb(g - 1, a // 3)
        num[a] += -c if a % 3 == 1 else c
    return num, whole


def divide_by_varsum(comp: dict, n: int) -> dict:
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


def delta_terms(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """((sum x)^3 - sum x^3) / 3 over n variables as (monomial, coefficient)
    pairs: x_i^2 x_j has coefficient 1 and x_i x_j x_k (i < j < k) 2."""
    terms: dict[tuple[int, ...], int] = {}
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


def three_point_with_tau0(a: int, b: int, k_max: int = 40) -> Fraction:
    """<tau_0 tau_a tau_b> at the dimension-forced genus, from the closed
    two-variable series exp((y^3+z^3)/24) * sum_k k!/(2k+1)! (yz(y+z)/2)^k."""
    target = Fraction(0)
    # term: y^{p} z^{q} from exp factors (3*u, 3*v) times the k-sum monomials
    # (yz(y+z)/2)^k = sum_i C(k,i)/2^k y^{k+i} z^{2k-i}
    from math import comb

    for k in range(k_max):
        base = Fraction(factorial(k), factorial(2 * k + 1) * 2**k)
        for i in range(k + 1):
            ya = k + i
            zb = 2 * k - i
            coeff = base * comb(k, i)
            # multiply by exp(y^3/24) exp(z^3/24)
            du = a - ya
            dv = b - zb
            if du < 0 or dv < 0 or du % 3 or dv % 3:
                continue
            u, v = du // 3, dv // 3
            target += coeff * Fraction(1, 24**u * factorial(u)) * Fraction(
                1, 24**v * factorial(v)
            )
    return target


# Values published as doctests of an independent implementation
# (topological-recursion package), frozen here as regression oracles.
REFERENCE_BRACKETS: dict[tuple[int, tuple[int, ...]], Fraction] = {
    (0, (0, 0, 0)): Fraction(1),
    (0, (0, 0, 0, 1)): Fraction(1),
    (0, (0, 0, 0, 0, 2)): Fraction(1),
    (0, (0, 0, 0, 1, 1)): Fraction(2),
    (1, (1,)): Fraction(1, 24),
    (1, (0, 2)): Fraction(1, 24),
    (1, (1, 1)): Fraction(1, 24),
    (1, (0, 0, 3)): Fraction(1, 24),
    (1, (0, 1, 2)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (4,)): Fraction(1, 1152),
    (2, (0, 5)): Fraction(1, 1152),
    (2, (1, 4)): Fraction(1, 384),
    (2, (2, 3)): Fraction(29, 5760),
    (3, (7,)): Fraction(1, 82944),
    (3, (1, 7)): Fraction(5, 82944),
    (3, (2, 6)): Fraction(77, 414720),
    (3, (3, 5)): Fraction(503, 1451520),
    (3, (4, 4)): Fraction(607, 1451520),
}


def lowerings(n: int, degree: int, k: int) -> tuple:
    """The n-point engine's table of lowered keys, built key by key from
    `multisets_with_sum`: each sorted key of the degree with, for every
    distinct part v >= k, the key with one v lowered to v - k (re-sorted)
    and the multiplicity of v, parts in ascending order."""
    table = []
    for m in multisets_with_sum(n, degree):
        row = []
        for i, v in enumerate(m):
            if v >= k and (not i or m[i - 1] != v):
                j = bisect_left(m, v - k, 0, i)
                row.append((m[:j] + (v - k,) + m[j:i] + m[i + 1 :], m.count(v)))
        table.append((m, tuple(row)))
    return tuple(table)


def conv_pairs(slot, side_ids) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (A, B) side pairs of one convolution slot, in its order: each key
    is the Cantor pair of two side ids, decoded through the side registry
    `side_ids` (side -> (side, id))."""
    side = {i: A for A, i in side_ids.values()}
    pairs = []
    for key in slot:
        w = (isqrt(8 * key + 1) - 1) // 2
        b = key - w * (w + 1) // 2
        pairs.append((side[w - b], side[b]))
    return pairs


def normalized_terms(series) -> dict[tuple[int, ...], Fraction]:
    """G of an n-point series as {monomial: Fraction} over every ordering of
    its sorted keys, from its reduced integer terms over one denominator."""
    terms, den = series._g_terms
    return {mono: Fraction(c, den) for key, c in terms.items() for mono in set(permutations(key))}


def engines_agree_on_stratum(series, g: int, sigma_bracket) -> int:
    """Compare genus g of an n-point series with the descent engine as ints:
    at every key d of the stratum, V den = num prod (2d_j+1)!! 2^B, with V
    = sigma_bracket(g, d) the memo's int at scale B = 4g + n - 2 and
    num/den the series' coefficient (0 where its stratum has no key).
    Raises AssertionError with both sides at the first mismatch; returns
    the stratum's key count."""
    n = series.n
    keys, nums, den = series.stratum(g)
    coefficient = dict(zip(keys, nums))
    count = 0
    for d in multisets_with_sum(n, 3 * g - 3 + n):
        descent = sigma_bracket(g, d) * den
        from_series = coefficient.get(d, 0) * prod(map(_odd_df, d)) << (4 * g + n - 2)
        assert descent == from_series, (g, d, descent, from_series)
        count += 1
    return count
