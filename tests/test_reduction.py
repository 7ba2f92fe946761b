import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc.brackets import BracketTable, bracket
from taucalc.combinat import multisets_with_sum, partitions, set_partitions
from taucalc.identities import ch_insertion, lambda_gg1_bracket
from taucalc.reduction import (
    faber_closed_form,
    faber_kappa_value,
    kappa_to_psi,
    lambda_g_bracket,
)
from oracles import cache_dumps, ch_insertion_mumford


def test_mixed_key():
    # the psi and kappa indices are sorted before use, and a key off its
    # dimension is 0
    value = kappa_to_psi(2, [1, 1], [2, 1])
    assert value == kappa_to_psi(2, [1, 1], [1, 2]) != 0
    assert kappa_to_psi(2, [1, 0], [2, 1]) == 0


def test_kappa_examples():
    assert kappa_to_psi(1, [0], [1]) == Fraction(1, 24)
    assert kappa_to_psi(1, [0], [0, 1]) == Fraction(1, 24)
    # <kappa_{3g-3+n} kappa_0^{m-1}> = (2g-2+n)^{m-1} / (24^g g!)
    assert kappa_to_psi(1, [0], [1, 0, 0]) == Fraction(1, 24)
    assert kappa_to_psi(2, [], [3, 0, 0]) == Fraction(4, 1152)
    # off-dimension and unstable inputs are 0
    assert kappa_to_psi(1, [0], [2]) == 0
    assert kappa_to_psi(0, [], [0]) == 0


def test_kappa_argument_order_is_immaterial():
    assert kappa_to_psi(3, [0], [1, 2, 4]) == kappa_to_psi(3, [0], [4, 1, 2])
    assert kappa_to_psi(2, [1, 2], [2]) == kappa_to_psi(2, [2, 1], [2])


def test_kappa_weil_petersson_cross_checks():
    # independently known Weil-Petersson data
    assert kappa_to_psi(1, [0, 0], [1, 1]) == Fraction(1, 8)
    assert kappa_to_psi(2, [], [1, 2]) == Fraction(1, 240)


def _random_mixed_case(rng):
    while True:
        g = rng.randint(1, 4)
        n = rng.randint(0, 3)
        if 2 * g - 2 + n <= 0:
            continue
        m = rng.randint(1, 3)
        dim = 3 * g - 3 + n
        ks = [rng.randint(1, 2) for _ in range(m)]
        rem = dim - sum(ks)
        if rem < 0:
            continue
        if n == 0:
            if rem:
                continue
            return g, [], ks
        ds = [0] * n
        for _ in range(rem):
            ds[rng.randrange(n)] += 1
        return g, ds, ks


def test_kappa0_law_random():
    rng = random.Random(20240817)
    for _ in range(60):
        g, ds, ks = _random_mixed_case(rng)
        n = len(ds)
        assert kappa_to_psi(g, ds, ks + [0]) == (2 * g - 2 + n) * kappa_to_psi(g, ds, ks)


def _kappa_by_set_partitions(genus, psi, kappa, table):
    # the Arbarello-Cornalba sum written out: one tau_{sum(a_B)+1} per block
    # B of a set partition of the kappa indices, weight (-1)^{|B|-1}
    total = Fraction(0)
    for blocks in set_partitions(len(kappa)):
        sign = (-1) ** (len(kappa) - len(blocks))
        extra = tuple(sum(kappa[i] for i in block) + 1 for block in blocks)
        total += sign * bracket(genus, tuple(psi) + extra, table)
    return total


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kappa_fold_matches_set_partition_sum(data):
    g = data.draw(st.integers(0, 4), label="g")
    n = data.draw(st.integers(3 if g == 0 else (1 if g == 1 else 0), 3), label="n")
    budget = 3 * g - 3 + n
    kappa = []
    for _ in range(data.draw(st.integers(1, 7), label="m")):
        a = data.draw(st.integers(0, min(3, budget)))
        kappa.append(a)
        budget -= a
    psi = [0] * n
    if n == 0:
        kappa[-1] += budget
    else:
        for _ in range(budget):
            psi[data.draw(st.integers(0, n - 1))] += 1
    kappa = data.draw(st.permutations(kappa), label="kappa")
    table = BracketTable()
    expected = _kappa_by_set_partitions(g, psi, kappa, table)
    assert kappa_to_psi(g, psi, kappa, table) == expected


def test_kappa_reduction_memo_counts():
    # the three compute-kappa monomials of the benchmark, on one fresh
    # table: bracket memo size, hits and misses, the kappa memo size and the
    # rows and their entries pin which sub-integrals and brackets the kappa
    # steps visit
    table = BracketTable()
    values = [
        kappa_to_psi(5, psi, kappa, table)
        for psi, kappa in [((), (1,) * 10 + (2,)), ((2,), (1,) * 11), ((2, 2), (1,) * 10)]
    ]
    assert values == [Fraction(4437290982317891, 2229534720),
                      Fraction(626693680890100121, 11147673600),
                      Fraction(639949676749247, 6220800)]
    rows = (len(table._rows), sum(map(len, table._rows.values())))
    assert (len(table), table.hits, table.misses, len(table._kappa), *rows) == (257, 805, 257, 139, 75, 130)


def test_kappa_memo_is_shared_across_monomials():
    # every kappa partition of 3g-3+n with psi = (0,)*n, g <= 3, n <= 2
    cases = [
        (g, (0,) * n, kappa)
        for g in range(1, 4)
        for n in range(3)
        if 2 * g - 2 + n > 0
        for kappa in partitions(3 * g - 3 + n)
    ]
    assert len(cases) == 66
    oracle = BracketTable()
    forward = BracketTable()
    values = {}
    for g, psi, kappa in cases:
        values[g, psi, kappa] = kappa_to_psi(g, psi, kappa, forward)
        assert values[g, psi, kappa] == _kappa_by_set_partitions(g, psi, kappa, oracle), (g, kappa)
    # a later monomial reads the sub-integrals an earlier one left, so the
    # values must not depend on the order the monomials come in
    backward = BracketTable()
    for g, psi, kappa in reversed(cases):
        assert kappa_to_psi(g, psi, kappa, backward) == values[g, psi, kappa], (g, kappa)
    assert forward._kappa and backward._kappa == forward._kappa

    # the memo is derived data of its table: a second table starts without
    # it, it is never saved, and clear() empties it
    assert not BracketTable()._kappa
    plain = BracketTable()
    for key, v in forward.items():
        plain.put(key, v)
    assert cache_dumps(forward) == cache_dumps(plain)
    forward.clear()
    assert len(forward) == 0 and not forward._kappa


def test_single_kappa_law():
    table = BracketTable()
    for g in range(1, 5):
        for n in range(0, 3):
            if 2 * g - 2 + n <= 0:
                continue
            for a in range(0, 3 * g - 3 + n + 1):
                ds = [0] * (n - 1) + [3 * g - 3 + n - a] if n else []
                if ds and ds[-1] < 0:
                    continue
                assert kappa_to_psi(g, ds, [a], table) == bracket(
                    g, list(ds) + [a + 1], table
                )


def test_lambda_g_values():
    assert lambda_g_bracket(1, [0]) == Fraction(1, 24)
    assert lambda_g_bracket(2, [2]) == Fraction(7, 5760)  # one-point top-lambda value
    assert lambda_g_bracket(1, [1]) == 0  # dimension mismatch
    assert lambda_g_bracket(2, [1]) == 0  # dimension mismatch


def test_lambda_g_string_compatibility():
    # prepending a tau_0 and lowering one exponent: the closed formula
    # satisfies the string equation through the Pascal identity of its
    # multinomial factor
    for g in range(1, 6):
        for n in range(1, 5):
            total = 2 * g - 2 + n  # the n remaining exponents after tau_0
            for d in multisets_with_sum(n, total):
                left = lambda_g_bracket(g, (0,) + d)
                right = sum(
                    lambda_g_bracket(g, d[:j] + (d[j] - 1,) + d[j + 1 :])
                    for j in range(n)
                    if d[j] >= 1
                )
                assert left == right, (g, d)


def test_ch_insertion_examples():
    assert ch_insertion(1, 2, [0, 0]) == 0  # k > g vanishing
    assert ch_insertion(1, 1, [0]) == lambda_g_bracket(1, [0])


def test_ch_insertion_matches_mumford_loop():
    # the shared eq3 combination against Mumford's expansion summed term by
    # term, on every dimension-fitting (g, k, d) with g <= 7, k <= g + 1
    # and n <= 3
    table = BracketTable()
    checked = 0
    for g in range(0, 8):
        for k in range(1, g + 2):
            for n in range(0, 4):
                total = 3 * g - 3 + n - (2 * k - 1)
                if total < 0:
                    continue
                for d in multisets_with_sum(n, total):
                    want = ch_insertion_mumford(g, k, d, bracket, kappa_to_psi, table)
                    assert ch_insertion(g, k, d, table) == want, (g, k, d)
                    checked += 1
    assert checked == 657


def test_ch_vanishing_above_genus():
    table = BracketTable()
    for g in range(1, 4):
        for k in range(g + 1, g + 4):
            for n in range(1, 3):
                total = 3 * g - 3 + n - (2 * k - 1)
                if total < 0:
                    continue
                for d in multisets_with_sum(n, total):
                    assert ch_insertion(g, k, d, table) == 0, (g, k, d)


def test_alternating_pair_vanishing_with_ch_insertion():
    # the vanishing of alternating pair sums survives a Chern-character
    # insertion: sum_j (-1)^j <tau_{2K-j} tau_j ch_{2r+1} tau_d>_g = 0
    # for K > g (the ch-expressible slice of the general-lambda statement)
    table = BracketTable()
    checked = 0
    for g in range(0, 4):
        for r in range(0, 2):
            for K in range(g + 1, g + 3):
                for n in range(1, 4):
                    total = 3 * g + n - 2 * K - 2 * r - 2
                    if total < 0:
                        continue
                    for d in multisets_with_sum(n, total):
                        s = sum(
                            (-1) ** j * ch_insertion(g, r + 1, (2 * K - j, j) + d, table)
                            for j in range(2 * K + 1)
                        )
                        assert s == 0, (g, r, K, d)
                        checked += 1
    assert checked >= 9


def test_lambda_gg1_values():
    assert lambda_gg1_bracket(2, [1]) == Fraction(1, 2880)
    assert lambda_gg1_bracket(3, [2]) == Fraction(1, 120960)
    assert lambda_gg1_bracket(2, [2]) == 0
    with pytest.raises(ValueError):
        lambda_gg1_bracket(1, [0])


def test_lambda_gg1_string_equation():
    # lambda_g lambda_{g-1} is pulled back from M_g, so the string equation
    # <tau_0 prod tau_d L>_g = sum_j <.. tau_{d_j - 1} ..>_g holds for its
    # values, keys with a tau_0 included
    table = BracketTable()
    checked = 0
    for g in range(2, 6):
        for n in range(1, 4):
            for d in multisets_with_sum(n, g - 1 + n):
                rhs = sum(lambda_gg1_bracket(g, d[:j] + (d[j] - 1,) + d[j + 1 :], table)
                          for j in range(n))
                assert lambda_gg1_bracket(g, (0,) + d, table) == rhs, (g, d)
                checked += rhs != 0
    assert checked > 20
    assert lambda_gg1_bracket(2, (0, 2)) == Fraction(1, 2880)


def test_faber_chain_closed_form_vs_ch_route():
    table = BracketTable()
    for g in range(2, 5):
        for n in range(1, 4):
            for d in multisets_with_sum(n, g - 2 + n, min_part=1):
                assert lambda_gg1_bracket(g, d, table) == faber_closed_form(g, d), (g, d)


def test_faber_kappa_value():
    assert faber_kappa_value(2) == Fraction(1, 2880)
    # the kappa form equals the one-point psi form via the pushforward
    for g in range(2, 5):
        assert faber_kappa_value(g) == lambda_gg1_bracket(g, [g - 1])
