"""Denominator invariants of intersection numbers.

D(g, n) is the lcm of denominators of all pure psi-brackets on the
n-pointed genus-g space; script-D(g) the analogue over kappa monomials on
the unpointed space, also read off psi-brackets (see `compute_script_D`).
The module computes both exactly, checks the conjectured prime-order profile

    ord_2 = 3g + ord_2(g!),  ord_3 = g + ord_3(g!),
    ord_p = floor(2g/(p-1))  for p >= 5,

locates lexicographically smallest witnesses for the p >= 5 orders, and
evaluates the nested-floor lower bounds for the automorphism lcm.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import NamedTuple

from .brackets import BracketTable, bracket
from .combinat import multisets_with_sum, partitions
from .rationals import factorize, lcm_of_denominators, ord_at_prime, primes_upto
from .report import Report, timed_report

__all__ = [
    "DenominatorProfile",
    "compute_D",
    "compute_script_D",
    "script_D_value",
    "conjectured_orders",
    "conjecture41_check",
    "divisibility_check",
    "threshold_check",
    "s_g_lower_bounds",
    "compare_D_S",
    "SCRIPT_D_SMALL",
]

# script-D has no kappa-monomial definition below genus 2; these are the
# stipulated small values used by the product-divisibility law
SCRIPT_D_SMALL = {0: 1, 1: 24}


class DenominatorProfile(NamedTuple):
    genus: int
    value: int
    n: int | None = None
    # prime -> exponent; the default is read-only, since every profile shares it
    factors: Mapping[int, int] = MappingProxyType({})

    def rendered(self) -> str:
        if not self.factors:
            return "1"
        return " · ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors.items())

    def to_dict(self) -> dict:
        out: dict = {"g": self.genus}
        if self.n is not None:
            out["n"] = self.n
        out["value"] = self.value
        out["factors"] = [[p, e] for p, e in self.factors.items()]
        out["rendered"] = self.rendered()
        return out


def _profile(genus: int, value: int, n: int | None = None) -> DenominatorProfile:
    return DenominatorProfile(genus=genus, value=value, n=n, factors=factorize(value))


def compute_D(genus: int, n: int, table: BracketTable | None = None) -> DenominatorProfile:
    """lcm of bracket denominators over all exponent multisets of size n >= 1."""
    if n < 0:
        raise ValueError(f"the number of points must be nonnegative, got n={n}")
    if n == 0:
        # no psi monomial of degree 3g-3 lives on zero points, and an lcm
        # over nothing would read as D = 1
        raise ValueError(f"D(g, n) needs n >= 1 points, since no bracket lives on zero: g={genus}")
    if 2 * genus - 2 + n <= 0 or 3 * genus - 3 + n < 0:
        raise ValueError(f"unstable or empty moduli space: g={genus}, n={n}")
    values = [
        bracket(genus, d, table)
        for d in multisets_with_sum(n, 3 * genus - 3 + n)
    ]
    return _profile(genus, lcm_of_denominators(values), n)


def compute_script_D(genus: int, table: BracketTable | None = None) -> DenominatorProfile:
    """lcm of kappa-monomial denominators at genus g >= 2, from psi-brackets.

    For a partition a of 3g-3 into m parts, the pushforward formula gives
    P_a = <prod tau_{a_j+1}>_g = sum over sigma in S_m of K_{a_sigma}, with
    K_b = <prod kappa_{b_j}>_g and a_sigma summing a over each cycle of sigma.
    Unitriangular in the refinement order with diagonal 1, it has an integral
    inverse: {K_a} and {P_a} span one Z-module, so their denominators share
    an lcm.  Zero parts are skipped: a dilaton tau_1 only multiplies by an integer."""
    if genus < 2:
        raise ValueError("script-D is defined for genus >= 2 (see SCRIPT_D_SMALL)")
    values = (bracket(genus, tuple(x + 1 for x in a), table) for a in partitions(3 * genus - 3))
    return _profile(genus, lcm_of_denominators(values))


def script_D_value(genus: int, table: BracketTable | None = None) -> int:
    if genus in SCRIPT_D_SMALL:
        return SCRIPT_D_SMALL[genus]
    return compute_script_D(genus, table).value


def _ord_factorial(p: int, m: int) -> int:
    # Legendre's formula
    out = 0
    q = p
    while q <= m:
        out += m // q
        q *= p
    return out


def conjectured_orders(genus: int) -> dict[int, int]:
    """Conjectured ord_p of script-D(g) for every prime p <= 2g+1."""
    out = {
        2: 3 * genus + _ord_factorial(2, genus),
        3: genus + _ord_factorial(3, genus),
    }
    for p in primes_upto(2 * genus + 1):
        if p >= 5:
            out[p] = 2 * genus // (p - 1)
    return out


def witness_search(genus: int, p: int, table: BracketTable | None = None):
    """First tau function of genus g (lex order: n, then the ascending
    exponent sequence) whose denominator carries the full conjectured
    p-order.  Returns (found, predicted, order)."""
    k = 2 * genus // (p - 1)
    d_last = 3 * genus - 2 + k - (p - 1) * k // 2
    predicted = tuple(sorted([(p - 1) // 2] * k + [d_last]))
    found = None
    for n in range(1, k + 2):
        # ascending exponent multisets of size n, in positional lex order
        for d in multisets_with_sum(n, 3 * genus - 3 + n):
            v = bracket(genus, d, table)
            if v and ord_at_prime(v, p) == -k:
                found = d
                break
        if found is not None:
            break
    return found, predicted, k


def conjecture41_check(genus: int, table: BracketTable | None = None) -> Report:
    """Compare the computed script-D profile and the p >= 5 witnesses with
    the conjectured formulas."""
    if genus < 2:
        raise ValueError("needs genus >= 2")
    return timed_report("c41", {"g": genus}, lambda: _conjecture41_sides(genus, table))


def _conjecture41_sides(genus: int, table: BracketTable | None):
    profile = compute_script_D(genus, table)
    want = conjectured_orders(genus)
    detail: dict = {"orders": {}, "witnesses": {}}
    detail["stray_primes"] = [p for p in profile.factors if p not in want]
    witness_ok = True
    for p in sorted(want):
        detail["orders"][p] = {"computed": profile.factors.get(p, 0), "conjectured": want[p]}
        if p < 5:
            continue
        found, predicted, k = witness_search(genus, p, table)
        # tie-breaking within equal n uses ascending-sorted sequences; the
        # ordering of equal-length sequences is a convention, recorded here
        detail["witnesses"][p] = {
            "found": found,
            "predicted": predicted,
            "order": k,
            "sequence_order": "ascending",
        }
        witness_ok = witness_ok and found == predicted

    rhs = prod(p**e for p, e in want.items()) if witness_ok else -1
    return Fraction(profile.value), Fraction(rhs), detail


def divisibility_check(g: int, h: int, table: BracketTable | None = None) -> bool:
    """script-D(g) * script-D(h) divides script-D(g+h)."""
    if g < 0 or h < 0:
        raise ValueError("need g, h >= 0")
    return script_D_value(g + h, table) % (script_D_value(g, table) * script_D_value(h, table)) == 0


def threshold_check(genus: int, table: BracketTable | None = None) -> Report:
    """Minimal n with D(g, n) = script-D(g), against the bound floor(g/2)+1."""
    if genus < 2:
        raise ValueError("needs genus >= 2")

    def sides():
        target = script_D_value(genus, table)
        bound = genus // 2 + 1
        at_bound = compute_D(genus, bound, table).value
        below = (n for n in range(1, bound) if compute_D(genus, n, table).value == target)
        minimal = next(below, bound if at_bound == target else None)
        return Fraction(at_bound), Fraction(target), {"minimal_n": minimal, "bound": bound}

    return timed_report("c42", {"g": genus}, sides)


def s_g_lower_bounds(genus: int) -> dict[int, int]:
    """Nested-floor lower bounds for the prime orders of the automorphism
    lcm of genus-g stable curves: 2g + ord_2(g!) at p = 2, and k + ord_p(k!)
    with k = floor(2g/(p-1)) at odd p.  Returns {prime: order} in ascending
    prime order."""
    if genus < 2:
        raise ValueError("needs genus >= 2")
    out = {2: 2 * genus + _ord_factorial(2, genus)}
    for p in primes_upto(2 * genus + 1):
        if p >= 3:
            k = 2 * genus // (p - 1)
            out[p] = k + _ord_factorial(p, k)
    return out


def compare_D_S(genus: int, table: BracketTable | None = None) -> Report:
    """ord_2(script-D) must exceed the automorphism bound, ord_3 reach it,
    and every ord_p with p >= 5 stay at or below it."""

    def sides():
        profile = compute_script_D(genus, table)
        orders = profile.factors
        bounds = s_g_lower_bounds(genus)
        checks = [("2", orders.get(2, 0) > bounds[2]), ("3", orders.get(3, 0) >= bounds.get(3, 0))]
        for p, b in bounds.items():
            if p >= 5:
                checks.append((str(p), orders.get(p, 0) <= b))
        extra = {
            "bounds": bounds,
            "orders": orders,
            "failed": [name for name, ok in checks if not ok],
            "note": "bounds are the formula side only; the automorphism lcm itself is not enumerated",
        }
        return Fraction(len(checks)), Fraction(sum(1 for _, ok in checks if ok)), extra

    return timed_report("c4s", {"g": genus}, sides)
