from itertools import combinations
from math import comb

from taucalc.combinat import (
    multinomial,
    multisets_with_sum,
    partitions,
    set_partitions,
    submultiset_splits,
)


def test_multisets_with_sum():
    assert list(multisets_with_sum(0, 0)) == [()]
    assert list(multisets_with_sum(0, 1)) == []
    assert list(multisets_with_sum(2, 3)) == [(0, 3), (1, 2)]
    assert list(multisets_with_sum(3, 3, min_part=1)) == [(1, 1, 1)]
    # count of multisets of size n summing to t is C(t+n-1, n-1)
    for n in (1, 2, 3, 4):
        for t in range(0, 7):
            found = list(multisets_with_sum(n, t))
            assert len(set(found)) == len(found)
            assert all(d == tuple(sorted(d)) and sum(d) == t for d in found)
    assert sum(1 for _ in multisets_with_sum(3, 6)) == 7  # partitions of 6 into <= 3 parts


def test_partitions():
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
    assert sum(1 for _ in partitions(9)) == 30


def test_set_partitions_bell_counts():
    bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, want in bell.items():
        assert sum(1 for _ in set_partitions(n)) == want
    # blocks cover {0..n-1} disjointly
    for blocks in set_partitions(4):
        flat = sorted(i for b in blocks for i in b)
        assert flat == [0, 1, 2, 3]


def test_submultiset_splits_against_labelled_subsets():
    for exps in [(1, 1, 2), (0, 0, 0), (1, 2, 3), (2, 2, 2, 5)]:
        labelled = {}
        idx = range(len(exps))
        for size in range(len(exps) + 1):
            for I in combinations(idx, size):
                left = tuple(sorted(exps[i] for i in I))
                right = tuple(sorted(exps[i] for i in idx if i not in I))
                labelled[(left, right)] = labelled.get((left, right), 0) + 1
        grouped = {(l, r): c for l, r, c in submultiset_splits(exps)}
        assert grouped == labelled, exps


def test_multinomial():
    assert multinomial(()) == 1
    assert multinomial((2, 1)) == 3
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((0, 3)) == 1
    assert multinomial((2, -1)) == 0
    assert multinomial((4, 4)) == comb(8, 4)
