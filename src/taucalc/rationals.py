"""Exact arithmetic layer: rationals, double factorials, Bernoulli numbers,
p-adic valuations and denominator lcm's.

All values in the package are `fractions.Fraction` (arbitrary precision,
always reduced, positive denominator); nothing here ever touches floats.
Rationals serialize as "num/den" with "/den" omitted when the denominator
is 1 -- that is exactly `str(Fraction)`, and `parse_ratio` inverts it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable

__all__ = [
    "double_factorial",
    "odd_double_factorial",
    "bernoulli",
    "ord_at_prime",
    "lcm_of_denominators",
    "factorize",
    "format_rational",
    "parse_ratio",
]


@lru_cache(maxsize=None)
def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ... down to 1 or 2, with (-1)!! = 0!! = 1.

    Arguments below -1 are rejected: the recursions only ever produce
    (2m±1)!! with 2m+1 >= -1.
    """
    if k < -1:
        raise ValueError(f"double factorial undefined for {k} < -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def odd_double_factorial(m: int) -> int:
    """(2m+1)!! for m >= -1, the factor appearing throughout the recursions."""
    return double_factorial(2 * m + 1)


@lru_cache(maxsize=None)
def _bernoulli_upto(m: int) -> tuple[Fraction, ...]:
    # B_0 .. B_m by the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0.
    values: list[Fraction] = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += comb(k + 1, j) * values[j]
        values.append(-acc / (k + 1))
    return tuple(values)


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for even m >= 2 (convention B_2 = 1/6, B_4 = -1/30)."""
    if m < 2 or m % 2:
        raise ValueError(f"bernoulli expects an even index >= 2, got {m}")
    return _bernoulli_upto(m)[m]


def _int_ord(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ord_at_prime(r: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational; negative when p divides the denominator."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"not a prime: {p}")
    return _int_ord(abs(r.numerator), p) - _int_ord(r.denominator, p)


def lcm_of_denominators(values: Iterable[Fraction]) -> int:
    """lcm of reduced-form denominators; 1 for the empty collection."""
    out = 1
    for v in values:
        v = Fraction(v)
        if v == 0:
            raise ValueError("zero has no meaningful denominator here")
        out = lcm(out, v.denominator)
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division, as
    {prime: order} in ascending prime order."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = _int_ord(n, p)
            out[p] = e
            n //= p**e
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def primes_upto(bound: int) -> list[int]:
    """Primes <= bound, smallest first."""
    sieve = bytearray([1]) * (bound + 1) if bound >= 0 else bytearray()
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, bound + 1, p):
                sieve[q] = 0
    return out


def format_rational(r: Fraction) -> str:
    return str(Fraction(r))


def parse_ratio(text: str) -> tuple[int, int]:
    """Inverse of format_rational as an integer pair (num, den) with den > 0,
    not reduced; rejects anything but "num" or "num/den"."""
    num, sep, den = text.strip().partition("/")
    num, den = int(num), int(den) if sep else 1
    if not den:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return (-num, -den) if den < 0 else (num, den)
