"""Combinatorial enumeration helpers shared across the engines.

Everything here is exact integer combinatorics: multiset sweeps over
exponent vectors, weighted sub-multiset splits (standing in for sums over
ordered index subsets), and set partitions (the kappa reduction folds
over block sums instead; the tests use the full enumeration as its oracle).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
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


@lru_cache(maxsize=None)
def _grouped(exps: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    groups: list[list[int]] = []
    for e in exps:
        if groups and groups[-1][0] == e:
            groups[-1][1] += 1
        else:
            groups.append([e, 1])
    return tuple((v, c) for v, c in groups)


def submultiset_splits(exps: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """All splits of a multiset into an ordered pair (left, right).

    Returns (left, right, count) triples where count is the number of ways
    to realize the split on labelled positions, i.e. prod C(c_v, k_v) over
    values v.  Summing f(left)*g(right)*count over the triples equals the
    sum of f(d_I)*g(d_J) over ordered pairs of index subsets I ⊔ J.
    """
    groups = _grouped(tuple(exps))
    out = []
    choices = [range(c + 1) for _, c in groups]
    for take in product(*choices):
        left: list[int] = []
        right: list[int] = []
        count = 1
        for (v, c), k in zip(groups, take):
            left.extend([v] * k)
            right.extend([v] * (c - k))
            count *= comb(c, k)
        out.append((tuple(left), tuple(right), count))
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
