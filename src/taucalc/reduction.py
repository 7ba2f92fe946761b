"""Reduction of kappa-class and lambda_g integrals to pure psi-brackets.

Two routes live here:

* the kappa reduction of <prod tau_d prod kappa_a> to a signed sum of pure
  tau brackets (Arbarello-Cornalba): one tau_{sum(a_B)+1} per block B of a
  set partition of the kappa indices, with weight (-1)^{|B|-1}; the weight
  follows from unfolding kappa_a = pi_*(psi^{a+1}) against
  pi^* kappa_b = kappa_b - psi^b, and is pinned by the kappa_0 and
  single-kappa laws in the suite.  The sum depends only on the multiset of
  block sums, so it is folded over the kappa indices one at a time: a new
  index opens a block (weight +1) or joins one of the c blocks sharing a
  sum s (weight -c).  The states are the multisets of block sums, so the
  cost grows with their number instead of with the Bell(m) set
  partitions: kappa_1^11 keeps p(11) = 56 states where the partitions
  number 678570.  Each resulting bracket is read once, in the engine's
  sigma form S_g = prod (2d+1)!! <tau_d>_g as a dyadic pair (num, e):
  with L the lcm of the states' weights prod (2s+3)!!, every state's
  count is scaled to L, the products with num are summed as integers per
  exponent e, and one Fraction is built over L sigma_weight(psi) 2^e,
* the closed lambda_g formula
      <prod psi^{d_j} lambda_g> = C(2g+n-3; d) (2^{2g-1}-1)/2^{2g-1} |B_2g|/(2g)!.

The lambda_g lambda_{g-1} integrals go through Mumford's expansion of
ch_{2k-1}, which is eq3's bracket combination: `identities.ch_insertion`
and `identities.lambda_gg1_bracket`.  Their closed forms stay here.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterable

from .brackets import BracketTable, dyadic_ratio, dyadic_sum, sigma_bracket, sigma_weight
from .combinat import multinomial
from .rationals import bernoulli, odd_double_factorial

__all__ = [
    "kappa_to_psi",
    "lambda_g_bracket",
    "faber_closed_form",
    "faber_kappa_value",
]

_ZERO = Fraction(0)
_succ = (1).__add__


def kappa_to_psi(
    genus: int,
    psi: Iterable[int],
    kappa: Iterable[int],
    table: BracketTable | None = None,
) -> Fraction:
    """Exact value of <prod tau_{d_i} prod kappa_{a_j}>_{g,n}.

    Total function: dimension mismatches and unstable targets give 0.
    """
    psi = tuple(sorted(psi))
    kappa = tuple(sorted(kappa))
    if any(a < 0 for a in kappa) or any(d < 0 for d in psi):
        return _ZERO
    n = len(psi)
    if sum(psi) + sum(kappa) != 3 * genus - 3 + n or 2 * genus - 2 + n <= 0:
        return _ZERO

    L, states = _block_sum_states(kappa)
    # bracket(g, psi + (s+1 ...)) = S_g / (sigma_weight(psi) prod (2s+3)!!),
    # so with each count scaled to L one integer sum per exponent e remains
    acc: dict[int, int] = {}
    for sums, scale in states:
        num, e = sigma_bracket(genus, psi + tuple(map(_succ, sums)), table)
        if num:
            acc[e] = acc.get(e, 0) + scale * num
    return Fraction(*dyadic_ratio(dyadic_sum(acc), L * sigma_weight(psi)))


def _block_sum_states(kappa: tuple[int, ...]) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """Fold the kappa indices in one at a time.

    A state is the sorted tuple of block sums, its count the signed number
    of set partitions of the indices folded so far that have those sums.
    Returns L, the lcm of the weights prod (2s+3)!! of the states with a
    nonzero count, and those states in fold order, each paired with its
    count times L / weight.
    """
    states: dict[tuple[int, ...], int] = {(): 1}
    for a in kappa:
        folded: dict[tuple[int, ...], int] = {}
        get = folded.get
        for sums, coeff in states.items():
            opened = tuple(sorted(sums + (a,)))
            folded[opened] = get(opened, 0) + coeff
            for s in set(sums):
                # joining any of the sums.count(s) blocks of sum s gives the
                # same state and flips the sign (-1)^{|B|-1} of that block
                rest = list(sums)
                rest.remove(s)
                insort(rest, s + a)
                joined = tuple(rest)
                folded[joined] = get(joined, 0) - sums.count(s) * coeff
        states = folded

    w = [odd_double_factorial(s + 1) for s in range(sum(kappa) + 1)]
    weights = {sums: prod(map(w.__getitem__, sums)) for sums, c in states.items() if c}
    L = lcm(*weights.values())
    return L, [(sums, states[sums] * (L // x)) for sums, x in weights.items()]


def lambda_g_bracket(genus: int, exponents: Iterable[int]) -> Fraction:
    """<prod psi^{d_j} lambda_g>_{g,n} by the closed formula; 0 off-dimension."""
    d = tuple(exponents)
    n = len(d)
    if genus < 1 or n < 1:
        return _ZERO
    if any(x < 0 for x in d) or sum(d) != 2 * genus - 3 + n:
        return _ZERO
    b = bernoulli(2 * genus)
    two = 2 ** (2 * genus - 1)
    return (
        Fraction(multinomial(d))
        * Fraction(two - 1, two)
        * Fraction(abs(b.numerator), b.denominator)
        / factorial(2 * genus)
    )


def faber_closed_form(genus: int, exponents: Iterable[int]) -> Fraction:
    """(2g-3+n)! |B_2g| / (2^{2g-1} (2g)! prod (2d_j-1)!!), the conjectured
    value of <prod psi^{d_j} lambda_g lambda_{g-1}>."""
    d = tuple(exponents)
    n = len(d)
    b = bernoulli(2 * genus)
    den = 2 ** (2 * genus - 1) * factorial(2 * genus)
    for x in d:
        den *= odd_double_factorial(x - 1)
    return Fraction(factorial(2 * genus - 3 + n), den) * Fraction(
        abs(b.numerator), b.denominator
    )


def faber_kappa_value(genus: int) -> Fraction:
    """<kappa_{g-2} lambda_g lambda_{g-1}>_g = |B_2g| (g-1)! / (2^g (2g)!)."""
    b = bernoulli(2 * genus)
    return Fraction(abs(b.numerator), b.denominator) * Fraction(
        factorial(genus - 1), 2**genus * factorial(2 * genus)
    )
