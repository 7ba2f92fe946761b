"""Reduction of kappa-class and lambda_g integrals to pure psi-brackets.

Two routes live here:

* the kappa reduction of <prod tau_d prod kappa_a> to pure tau brackets
  by the pushforward recursion (Arbarello-Cornalba): with b the largest
  kappa index and B' the others, kappa_b = pi_*(psi_{n+1}^{b+1}),
  pi^* kappa_a = kappa_a - psi_{n+1}^a and psi_{n+1} D_{i,n+1} = 0 give
      <kappa_{B'} kappa_b prod tau_d>_{g,n}
        = sum_{S in B'} (-1)^{|S|} mult(S)
                        <kappa_{B'-S} tau_{b+1+sum S} prod tau_d>_{g,n+1}
  over the sub-multisets S of B' (mult(S) the product of binomials, as in
  `combinat.submultiset_splits`), ending in a pure bracket when no kappa
  is left.  Every kappa monomial of a genus shares the sub-integrals, so
  they are memoized on the bracket table as ints: the sigma form times an
  integer D(kappa) that clears the (2c+1)!! of every new tau_c, times the
  scale 2^B of a bracket with n + |kappa| points (`sigma_scale`).  A step
  trades 1 + |S| kappas for one tau, so its term's scale lacks 2^|S|, which
  the plan folds into the term's weight; one Fraction is built at the root,
* the closed lambda_g formula
      <prod psi^{d_j} lambda_g> = C(2g+n-3; d) (2^{2g-1}-1)/2^{2g-1} |B_2g|/(2g)!.

The lambda_g lambda_{g-1} integrals go through Mumford's expansion of
ch_{2k-1}, which is eq3's bracket combination: `identities.ch_insertion`
and `identities.lambda_gg1_bracket`.  Their closed forms stay here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable

from .brackets import BracketTable, default_table, sigma_bracket, sigma_scale, sigma_weight
from .combinat import multinomial, submultiset_splits
from .rationals import bernoulli, odd_double_factorial

__all__ = [
    "kappa_to_psi",
    "lambda_g_bracket",
    "faber_closed_form",
    "faber_kappa_value",
]

_ZERO = Fraction(0)


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
    t = table if table is not None else default_table()
    den = _kappa_plan(kappa)[0] * sigma_weight(psi) << sigma_scale(genus, n + len(kappa))
    return Fraction(_sigma_kappa(genus, psi, kappa, t), den)


@lru_cache(maxsize=None)
def _kappa_plan(
    kappa: tuple[int, ...],
) -> tuple[int, tuple[tuple[int, tuple[int, ...], int], ...]]:
    """(D, terms) for the ascending kappa indices B' + (b).

    D(()) = 1, and D(kappa) is the lcm over the sub-multisets S of B' of
    (2c+1)!! D(B' - S) with c = b+1+sum(S).  terms holds, per S, the triple
    (c, B' - S, (-2)^|S| mult(S) D(kappa) / ((2c+1)!! D(B' - S))), 2^|S|
    the scale that the term of S lacks (see the module docstring).
    """
    if not kappa:
        return 1, ()
    b = kappa[-1]
    parts = [
        (b + 1 + sum(S), rest, (-2) ** len(S) * count)
        for S, rest, count in submultiset_splits(kappa[:-1])
    ]
    dens = [odd_double_factorial(c) * _kappa_plan(rest)[0] for c, rest, _ in parts]
    D = lcm(*dens)
    return D, tuple((c, rest, coeff * (D // x)) for (c, rest, coeff), x in zip(parts, dens))


def _sigma_kappa(g: int, psi: tuple[int, ...], kappa: tuple[int, ...], t: BracketTable) -> int:
    """2^B sigma_weight(psi) D(kappa) <prod tau_psi prod kappa_kappa>_g, B =
    sigma_scale(g, |psi| + |kappa|), for ascending psi and kappa that fit the
    dimension; memoized on t."""
    if len(kappa) < 2:
        # no kappa, or the last step: one term, tau_{b+1}, with D((b,)) = (2b+3)!!
        return sigma_bracket(g, psi + (kappa[0] + 1,) if kappa else psi, t)
    key = (g, psi, kappa)
    value = t._kappa.get(key)
    if value is None:
        value = t._kappa[key] = sum(w * _sigma_kappa(g, tuple(sorted(psi + (c,))), rest, t)
                                    for c, rest, w in _kappa_plan(kappa)[1])
    return value


def lambda_g_bracket(genus: int, exponents: Iterable[int]) -> Fraction:
    """<prod psi^{d_j} lambda_g>_{g,n} by the closed formula; 0 off-dimension."""
    d = tuple(exponents)
    n = len(d)
    if genus < 1 or n < 1:
        return _ZERO
    if any(x < 0 for x in d) or sum(d) != 2 * genus - 3 + n:
        return _ZERO
    two = 2 ** (2 * genus - 1)
    return multinomial(d) * Fraction(two - 1, two) * abs(bernoulli(2 * genus)) / factorial(2 * genus)


def faber_closed_form(genus: int, exponents: Iterable[int]) -> Fraction:
    """(2g-3+n)! |B_2g| / (2^{2g-1} (2g)! prod (2d_j-1)!!), the conjectured
    value of <prod psi^{d_j} lambda_g lambda_{g-1}> for d_j >= 1; 0 off-dimension."""
    d = tuple(exponents)
    if any(x < 1 for x in d):
        raise ValueError(f"the closed form needs every exponent >= 1, got {d}")
    if sum(d) != genus - 2 + len(d):
        return _ZERO
    den = 2 ** (2 * genus - 1) * factorial(2 * genus) * sigma_weight(x - 1 for x in d)
    return Fraction(factorial(2 * genus - 3 + len(d)), den) * abs(bernoulli(2 * genus))


def faber_kappa_value(genus: int) -> Fraction:
    """<kappa_{g-2} lambda_g lambda_{g-1}>_g = |B_2g| (g-1)! / (2^g (2g)!)."""
    if genus < 2:
        raise ValueError(f"kappa_(g-2) needs genus >= 2, got g={genus}")
    return abs(bernoulli(2 * genus)) * Fraction(factorial(genus - 1), 2**genus * factorial(2 * genus))
