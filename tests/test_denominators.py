from math import prod

import pytest

from taucalc.brackets import BracketTable
from taucalc.denominators import (
    SCRIPT_D_SMALL,
    compare_D_S,
    compute_D,
    compute_script_D,
    conjecture41_check,
    conjectured_orders,
    divisibility_check,
    s_g_lower_bounds,
    script_D_value,
    threshold_check,
    witness_search,
)
from taucalc.reduction import kappa_to_psi
from oracles import SCRIPT_D_MEMO_SIZES, script_D_by_kappa


def test_compute_D_examples():
    assert compute_D(1, 1).value == 24
    assert compute_D(0, 3).value == 1
    assert compute_D(2, 1).value == 1152
    with pytest.raises(ValueError):
        compute_D(0, 2)
    with pytest.raises(ValueError, match="n >= 1"):
        compute_D(2, 0)


def test_script_D_examples():
    p2 = compute_script_D(2)
    assert p2.value == 5760
    assert list(p2.factors.items()) == [(2, 7), (3, 2), (5, 1)]
    assert p2.rendered() == "2^7 · 3^2 · 5"
    with pytest.raises(ValueError):
        compute_script_D(1)
    assert SCRIPT_D_SMALL[1] == 24 and script_D_value(1) == 24


def test_script_D3_profile():
    p3 = compute_script_D(3)
    assert p3.factors == {2: 10, 3: 4, 5: 1, 7: 1}


@pytest.mark.parametrize("g", [4, 5, 6])
def test_script_D_matches_conjectured_orders(g):
    profile = compute_script_D(g)
    assert profile.factors == conjectured_orders(g)


@pytest.mark.parametrize("g", range(2, 8))
def test_script_D_from_psi_brackets_matches_kappa_route(g):
    table = BracketTable()
    assert compute_script_D(g, table).value == script_D_by_kappa(g, kappa_to_psi)
    assert len(table) == SCRIPT_D_MEMO_SIZES[g]
    assert not table._kappa  # no kappa sub-integral was computed


def test_script_D_memo_counts():
    # a deep descent: memo size, hits and misses of script-D(8) on a fresh
    # table pin which sub-keys every DVV step of the chain visits, and the
    # rows and their entries the reducible terms it read
    table = BracketTable()
    compute_script_D(8, table)
    rows = (len(table._rows), sum(map(len, table._rows.values())))
    assert (len(table), table.hits, table.misses, *rows) == (3165, 11974, 3165, 791, 2016)


# script-D(g) for g = 2..9, factored and whole, as computed through the DVV
# descent before its reducible terms read the one-sided rows
SCRIPT_D_GOLDEN = {
    2: ("2^7 · 3^2 · 5", 5760),
    3: ("2^10 · 3^4 · 5 · 7", 2903040),
    4: ("2^15 · 3^5 · 5^2 · 7", 1393459200),
    5: ("2^18 · 3^6 · 5^2 · 7 · 11", 367873228800),
    6: ("2^22 · 3^8 · 5^3 · 7^2 · 11 · 13", 24103053950976000),
    7: ("2^25 · 3^9 · 5^3 · 7^2 · 11 · 13", 578473294823424000),
    8: ("2^31 · 3^10 · 5^4 · 7^2 · 11 · 13 · 17", 9440684171518279680000),
    9: ("2^34 · 3^13 · 5^4 · 7^3 · 11 · 13 · 17 · 19", 271211974879377138647040000),
}


@pytest.mark.parametrize("g", sorted(SCRIPT_D_GOLDEN))
def test_script_D_golden(g):
    # each genus on a fresh table, so every descent of the chain runs cold
    profile = compute_script_D(g, BracketTable())
    assert (profile.rendered(), profile.value) == SCRIPT_D_GOLDEN[g]
    assert profile.value == prod(p**e for p, e in profile.factors.items())


def test_conjecture41_leaves_the_kappa_memo_empty():
    table = BracketTable()
    assert conjecture41_check(4, table).passed
    assert table and not table._kappa


def test_conjectured_orders():
    assert conjectured_orders(2) == {2: 7, 3: 2, 5: 1}
    assert conjectured_orders(3) == {2: 10, 3: 4, 5: 1, 7: 1}


def test_witness_search_g2_p5():
    found, predicted, k = witness_search(2, 5)
    assert found == predicted == (2, 3)
    assert k == 1


def test_conjecture41_reports():
    for g in (2, 3):
        r = conjecture41_check(g)
        assert r.passed, r.extra
        assert not r.extra["stray_primes"]


def test_divisibility():
    assert divisibility_check(1, 1)
    assert divisibility_check(0, 2)
    assert divisibility_check(1, 2)


def test_threshold():
    r2 = threshold_check(2)
    assert r2.passed and r2.extra["minimal_n"] <= r2.extra["bound"] == 2
    r3 = threshold_check(3)
    assert r3.passed and r3.extra["minimal_n"] <= r3.extra["bound"] == 2
    r4 = threshold_check(4)
    assert r4.passed and r4.extra["minimal_n"] <= r4.extra["bound"] == 3


def test_s_g_lower_bounds():
    assert list(s_g_lower_bounds(2).items()) == [(2, 5), (3, 2), (5, 1)]
    assert s_g_lower_bounds(4)[2] == 11


def test_compare_D_S():
    for g in (2, 3):
        r = compare_D_S(g)
        assert r.passed, r.extra


def test_D_divides_both_ways():
    table = BracketTable()
    for g in (2, 3):
        target = script_D_value(g, table)
        prev = 1
        for n in range(1, g // 2 + 3):
            value = compute_D(g, n, table).value
            assert value % prev == 0, (g, n)  # D(g,n) | D(g,n+1)
            assert target % value == 0, (g, n)  # D(g,n) | script-D(g)
            prev = value
