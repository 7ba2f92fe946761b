from fractions import Fraction

import pytest

from taucalc.brackets import BracketTable, bracket
from taucalc.combinat import multisets_with_sum
from taucalc.monotone import (
    _single_unit_moves,
    _swap_sweep,
    bounds_check,
    kappa_swap_check,
    lambda_g_swap_check,
    psi_floor_check,
    psi_swap_check,
    psi_swap_deep,
    two_point_row,
)
from taucalc.npoint import npoint_series
from taucalc.reduction import kappa_to_psi


def test_psi_swap_examples():
    assert bracket(2, (1, 4)) <= bracket(2, (2, 3))
    assert bracket(1, (0, 2)) == bracket(1, (1, 1))  # equality is allowed
    assert bracket(0, (0, 0, 0, 0, 2)) <= bracket(0, (0, 0, 0, 1, 1))
    for g, n in [(2, 2), (1, 2), (0, 5)]:
        r = psi_swap_check(g, n)
        assert r.passed, (g, n, r.extra)


def test_psi_swap_sweep():
    for g in range(0, 5):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0 or 3 * g - 3 + n < 0:
                continue
            assert psi_swap_check(g, n).passed, (g, n)


def test_psi_swap_deep_two_point():
    r = psi_swap_deep(20)
    assert r.passed and r.lhs > 0


def test_two_point_row_values():
    # the closed two-point rows, and the engine's n = 2 keys that read the
    # same builder, against the n-point series; every key in both orders,
    # each on a cold table, so the far half goes through the sorted read
    series = npoint_series(2, 15)
    for g in range(1, 16):
        row = two_point_row(g)
        assert len(row) == (3 * g - 1) // 2 + 1
        for d, value in enumerate(row):
            assert value == series.bracket((d, 3 * g - 1 - d)), (g, d)
        for d in range(3 * g):
            want = series.bracket((d, 3 * g - 1 - d))
            assert bracket(g, (d, 3 * g - 1 - d), BracketTable()) == want, (g, d)


def test_lambda_swap():
    # C(3;0,3)=1 <= C(3;1,2)=3 and friends
    for g, n in [(2, 2), (1, 1), (3, 2)]:
        r = lambda_g_swap_check(g, n)
        assert r.passed, (g, n)


def test_kappa_swap():
    assert kappa_to_psi(2, (), (0, 3)) <= kappa_to_psi(2, (), (1, 2))
    for g, n in [(2, 0), (1, 1), (2, 1)]:
        r = kappa_swap_check(g, n)
        assert r.passed, (g, n, r.extra)


def test_bounds():
    r = bounds_check(1, 1)
    assert r.passed
    # tightness at (1,1): the one-point kappa integral meets its floor
    assert kappa_to_psi(1, (0,), (1,)) == Fraction(1, 24)
    assert bracket(1, (1,)) == Fraction(1, 24)
    for g, n in [(2, 0), (2, 1), (3, 0)]:
        assert bounds_check(g, n).passed, (g, n)


def test_psi_floor():
    for g, n in [(1, 1), (2, 2), (3, 1)]:
        r = psi_floor_check(g, n)
        assert r.passed, (g, n)
    with pytest.raises(ValueError):
        psi_floor_check(0, 3)


def test_report_counts_comparisons():
    r = psi_swap_check(2, 2)
    assert int(r.lhs) == 3 and r.lhs == r.rhs
    assert r.extra == {}


def test_swap_sweep_evaluates_each_multiset_once():
    cases = []
    for d in multisets_with_sum(4, 7):
        for i, j in _single_unit_moves(d):
            moved = list(d)
            moved[i] += 1
            moved[j] -= 1
            cases.append((d, tuple(sorted(moved))))

    def plain(d):
        # not monotone under unit moves: some cases violate
        return Fraction(sum(x * x for x in d) % 7, 1 + d[0])

    calls = []

    def counting(d):
        calls.append(d)
        return plain(d)

    r = _swap_sweep("t", {}, cases, counting)
    distinct = {d for case in cases for d in case}
    assert len(cases) > len(distinct)
    assert sorted(calls) == sorted(distinct)

    satisfied = [plain(low) <= plain(high) for low, high in cases]
    violations = [
        {"smaller_side": low, "larger_side": high}
        for (low, high), ok in zip(cases, satisfied) if not ok
    ]
    assert violations
    assert r.lhs == len(cases) and r.rhs == sum(satisfied)
    assert r.extra == {"violations": violations}
