"""Combinatorial enumeration helpers shared across the engines.

Everything here is exact integer combinatorics: multiset sweeps over
exponent vectors, weighted sub-multiset splits (standing in for sums over
ordered index subsets: the DVV boundary terms, the splitting sums and the
kappa pushforward recursion all read them), and set partitions (no engine
uses them; the tests sum the kappa reduction over them as its oracle).
"""

from __future__ import annotations

from itertools import groupby, product
from math import comb
from typing import Iterator, Sequence


def multisets_with_sum(n: int, total: int, min_part: int = 0) -> Iterator[tuple[int, ...]]:
    """Yield ascending-sorted n-tuples of integers >= min_part summing to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    if total < n * min_part:
        return

    def rec(parts: list[int], remaining: int, lo: int, slots: int):
        if slots == 1:
            if remaining >= lo:
                yield tuple(parts + [remaining])
            return
        # largest value this slot can take while leaving >= lo per later slot
        hi = remaining - lo * (slots - 1)
        for v in range(lo, hi + 1):
            yield from rec(parts + [v], remaining - v, v, slots - 1)

    yield from rec([], total, min_part, n)


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into positive parts (ascending tuples)."""
    if total == 0:
        yield ()
        return
    for n in range(1, total + 1):
        yield from multisets_with_sum(n, total, min_part=1)


def submultiset_splits(exps: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """All splits of a multiset into an ordered pair (left, right).

    Returns (left, right, count) triples where count is the number of ways
    to realize the split on labelled positions, i.e. prod C(c_v, k_v) over
    values v.  Summing f(left)*g(right)*count over the triples equals the
    sum of f(d_I)*g(d_J) over ordered pairs of index subsets I ⊔ J.
    """
    # per value v of multiplicity c: k copies go left, c - k right, in C(c, k) ways
    choices = [
        [((v,) * k, (v,) * (c - k), comb(c, k)) for k in range(c + 1)]
        for v, c in ((v, len(list(run))) for v, run in groupby(exps))
    ]
    out = []
    for take in product(*choices):
        left = right = ()
        count = 1
        for lv, rv, ways in take:
            left += lv
            right += rv
            count *= ways
        out.append((left, right, count))
    return out


def set_partitions(n: int) -> Iterator[list[list[int]]]:
    """Set partitions of {0, .., n-1} as lists of blocks (index lists)."""
    if n == 0:
        yield []
        return

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def multinomial(counts: Sequence[int]) -> int:
    """(sum counts)! / prod counts!  for nonnegative integer counts."""
    total = 0
    out = 1
    for c in counts:
        if c < 0:
            return 0
        total += c
        out *= comb(total, c)
    return out
