import random
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import pytest

from taucalc import npoint
from taucalc.brackets import BracketTable, bracket, sigma_bracket
from taucalc.combinat import multisets_with_sum
from taucalc.npoint import (
    DivisionRemainderError,
    NPointSeries,
    _divide_by_e1,
    _lowerings,
    _times_delta,
    merged_series,
    npoint_series,
)
from taucalc.identities import alt_pair_sum
from oracles import (
    delta_terms as _delta,
    divide_by_varsum as _divide_by_varsum,
    engines_agree_on_stratum,
    lowerings,
    merged_alt_sums,
    merged_by_orderings,
    normalized_terms,
)
from taucalc.rationals import odd_double_factorial
from math import factorial, gcd


def _is_symmetric(terms: dict, n: int) -> bool:
    # the adjacent transpositions generate the symmetric group
    swaps = [(*range(i), i + 1, i, *range(i + 2, n)) for i in range(n - 1)]
    return all(
        terms.get(tuple(m[i] for i in perm), 0) == c
        for perm in swaps for m, c in terms.items()
    )


def test_delta_poly():
    assert dict(_delta(1)) == {}
    assert dict(_delta(2)) == {(2, 1): 1, (1, 2): 1}
    d3 = dict(_delta(3))
    assert d3[(1, 1, 1)] == 2
    assert d3[(2, 1, 0)] == 1
    assert _is_symmetric(d3, 3)


def test_one_point_series():
    s = normalized_terms(NPointSeries(1, 10))
    assert s[(1,)] == Fraction(1, 24)
    assert s[(4,)] == Fraction(-1, 1152)
    assert s.get((2,), 0) == 0
    assert s[(7,)] == Fraction(1, 82944)  # + 1/(24^3 3!)


def test_genus_zero_series_below_three_points_are_empty():
    # no stable bracket has n <= 2 at genus 0, so nothing sits below the cap
    for n in (1, 2):
        series = npoint_series(n, 0)
        assert normalized_terms(series) == {} and series.f == {}, n


def test_series_degree_guard():
    s = NPointSeries(1, 5)
    with pytest.raises(ValueError, match="tracked degree"):
        s.bracket((6,))


def test_wrong_exponent_count_is_rejected():
    with pytest.raises(ValueError, match="expected 3 exponents, got 2"):
        npoint_series(3, 2).bracket((0, 0))
    with pytest.raises(ValueError, match="expected 1 exponents, got 2"):
        merged_series(1, 2).coefficient(1, (0, 0))


def test_divide_by_varsum_exact_and_remainder():
    # (x+y)(x^2 - x y + y^2) = x^3 + y^3
    comp = {(3, 0): Fraction(1), (0, 3): Fraction(1)}
    q = _divide_by_varsum(comp, 2)
    assert q == {(2, 0): Fraction(1), (1, 1): Fraction(-1), (0, 2): Fraction(1)}
    with pytest.raises(DivisionRemainderError):
        _divide_by_varsum({(1, 1): Fraction(1)}, 2)


def test_divide_by_varsum_keeps_int_numerators():
    q = _divide_by_varsum({(3, 0): 1, (0, 3): 1}, 2)
    assert q == {(2, 0): 1, (1, 1): -1, (0, 2): 1}
    assert all(type(c) is int for c in q.values())
    with pytest.raises(DivisionRemainderError):
        _divide_by_varsum({(1, 1): 1}, 2)


def _times_varsum(poly: dict, n: int) -> dict:
    out: dict = {}
    for m, c in poly.items():
        for i in range(n):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            out[m2] = out.get(m2, 0) + c
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_divide_by_varsum_inverts_product(n):
    rng = random.Random(n)
    for degree in (0, 1, 3, 5):
        monos = list(multisets_with_sum(n, degree))
        for _ in range(4):
            # random exponent orders, so the x_0 exponent varies freely
            poly = {}
            for m in rng.sample(monos, min(len(monos), 6)):
                perm = tuple(rng.sample(m, n))
                poly[perm] = rng.choice([-7, -2, -1, 1, 3, 11**20])
            q = _divide_by_varsum(_times_varsum(poly, n), n)
            assert q == poly, (n, degree, poly)
            assert all(type(c) is int for c in q.values())


@pytest.mark.parametrize(
    "comp",
    [
        {(0, 1, 1): 1},
        {(1, 0, 0): 1, (0, 0, 1): 2},
        {(0, 0, 0): 5},
        # x_0 (x_0 + x_1 + x_2) plus one stray term
        {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1},
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1},
    ],
)
def test_divide_by_varsum_rejects_remainders(comp):
    with pytest.raises(DivisionRemainderError, match="remainder at monomial"):
        _divide_by_varsum(comp, len(next(iter(comp))))


def _random_symmetric(rng, n: int, degree: int) -> dict:
    # integer numerators on a random handful of the degree's sorted keys
    keys = list(multisets_with_sum(n, degree))
    return {m: rng.choice([-7, -2, -1, 1, 3, 11**20]) for m in rng.sample(keys, min(len(keys), 5))}


def _every_ordering(terms: dict) -> dict:
    return {mono: c for m, c in terms.items() for mono in set(permutations(m))}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sorted_key_delta_product_matches_oracle(n):
    rng = random.Random(10 + n)
    delta = _delta(n)
    for degree in (0, 1, 2, 4, 7):
        for _ in range(3):
            a = _random_symmetric(rng, n, degree)
            want: dict = {}
            for m, c in _every_ordering(a).items():
                for dm, dc in delta:
                    key = tuple(x + y for x, y in zip(m, dm))
                    want[key] = want.get(key, 0) + c * dc
            want = {m: c for m, c in want.items() if c}
            assert _every_ordering(_times_delta(a, n, degree + 3)) == want, (n, a)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sorted_key_division_matches_oracle(n):
    rng = random.Random(20 + n)
    for degree in (0, 1, 3, 5, 8):
        for _ in range(3):
            q = _random_symmetric(rng, n, degree)
            full = _times_varsum(_every_ordering(q), n)
            want = _divide_by_varsum(full, n)
            assert want == _every_ordering(q)
            sorted_keys = {m: c for m, c in full.items() if list(m) == sorted(m)}
            got = _divide_by_e1(sorted_keys, n, degree + 1)
            assert _every_ordering(got) == want, (n, q)
            assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sorted_key_division_rejects_a_symmetric_remainder(n):
    # p_2 = sum x_j^2 is symmetric but no multiple of the variable sum
    with pytest.raises(DivisionRemainderError, match="remainder at monomial"):
        _divide_by_e1({(0,) * (n - 1) + (2,): 1}, n, 2)


def test_series_values_are_fractions_in_lowest_terms():
    # the builders run on int numerators; the exposed polynomials carry
    # Fraction values only
    for n, g_hi in ((1, 4), (2, 5), (3, 4), (4, 3), (5, 2)):
        series = npoint_series(n, g_hi)
        for poly in (normalized_terms(series), series.f):
            assert poly, (n, g_hi)
            for c in poly.values():
                assert type(c) is Fraction and c
                assert gcd(c.numerator, c.denominator) == 1 and c.denominator > 0


def test_two_point_extraction_examples():
    s2 = npoint_series(2, 6)
    assert s2.bracket((2, 3)) == Fraction(29, 5760)
    assert s2.bracket((1, 4)) == Fraction(1, 384)
    assert s2.bracket((0, 1)) == 0


def test_two_point_second_genus_components():
    # normalized series components: degree 2 is xy/12, degree 5 is
    # x^2 y^2 (x+y)/240
    s2 = normalized_terms(npoint_series(2, 3))
    assert s2[(1, 1)] == Fraction(1, 12)
    assert s2.get((2, 0), 0) == 0
    assert s2[(3, 2)] == Fraction(1, 240)


def test_three_point_genus0_normalization():
    s3 = npoint_series(3, 2)
    assert s3.bracket((0, 0, 0)) == 1


def test_oracle_equivalence_small():
    table = BracketTable()
    for n, g_hi in ((1, 5), (2, 5), (3, 4), (4, 3), (5, 3), (6, 2)):
        series = npoint_series(n, g_hi)
        for g in range(0, g_hi + 1):
            total = 3 * g - 3 + n
            if total < 0:
                continue
            for d in multisets_with_sum(n, total):
                assert series.bracket(d) == bracket(g, d, table), (n, g, d)


def test_symmetry_of_npoint_output():
    # the series are computed at sorted keys and laid out in every
    # ordering, so a wrong ordering shows up as an asymmetric series
    for n, g_hi in ((3, 3), (4, 2), (5, 3), (6, 2)):
        assert _is_symmetric(normalized_terms(npoint_series(n, g_hi)), n), (n, g_hi)


def test_series_equals_descent_on_three_and_four_point_strata():
    # the two engines check each other on every key of (g, 3) for g <= 10
    # and of (g, 4) for g <= 7, the descent on one table
    table = BracketTable()
    keys = 0
    for n, g_hi in ((3, 10), (4, 7)):
        series = npoint_series(n, g_hi)
        for g in range(g_hi + 1):
            for d in multisets_with_sum(n, 3 * g - 3 + n):
                assert series.bracket(d) == bracket(g, d, table), (n, g, d)
                keys += 1
    assert keys == 754


@pytest.mark.parametrize("n, g_max, keys", [(3, 14, 932), (4, 12, 2050), (5, 10, 2597), (6, 8, 2081)])
def test_engines_agree_as_ints_stratum_by_stratum(n, g_max, keys):
    # V den = num prod (2d_j+1)!! 2^B at every key of (g, n), g <= g_max,
    # the descent on a fresh table
    series, sigma = npoint_series(n, g_max), partial(sigma_bracket, table=BracketTable())
    assert sum(engines_agree_on_stratum(series, g, sigma) for g in range(g_max + 1)) == keys


def test_components_sit_on_the_genus_grading():
    # nonzero homogeneous components only at degrees 3g + n - 3
    for n in (2, 3, 4):
        for deg in {sum(m) for m in normalized_terms(npoint_series(n, 3))}:
            g, rem = divmod(deg - n + 3, 3)
            assert rem == 0 and g >= 0 and 2 * g - 2 + n > 0, (n, deg)


def test_divisibility_invariant_holds_on_generic_path():
    # the generic recursion (n >= 3) performs every P_r division exactly;
    # any remainder raises DivisionRemainderError out of the builder
    npoint_series(3, 6)
    npoint_series(4, 6)


def test_two_point_matches_recursion_deep():
    # the series against the engine's closed two-point family through
    # genus 12
    series = npoint_series(2, 12)
    table = BracketTable()
    for g in range(1, 13):
        for d in multisets_with_sum(2, 3 * g - 1):
            assert series.bracket(d) == bracket(g, d, table), (g, d)


def test_merged_series_examples():
    m1 = merged_series(1, 3)
    assert m1.coefficient(1, (1,)) == Fraction(1, 12)
    assert m1.coefficient(2, (0,)) == 0
    m2 = merged_series(2, 2)
    assert m2.coefficient(1, (1, 1)) == Fraction(1, 4)


def test_merged_matches_closed_form():
    for n in (1, 2, 3):
        m = merged_series(n, 4)
        for g in range(0, 5):
            for d in multisets_with_sum(n, g - 1 + n, min_part=1):
                den = 4**g * factorial(2 * g + 1)
                for x in d:
                    den *= odd_double_factorial(x - 1)
                want = Fraction(factorial(2 * g + n - 1), den)
                assert m.coefficient(g, d) == want, (n, g, d)


def test_merged_alt_sums_match_engine():
    table = BracketTable()
    for n in (1, 2, 3):
        m = merged_series(n, 4)
        alt_sums = merged_alt_sums(m)
        for g in range(0, 5):
            for K in range(0, g + 4):
                total = 3 * g - 1 + n - 2 * K
                if total < 0 or 2 * K + total > m.degree_cap:
                    continue
                for d in multisets_with_sum(n, total):
                    want = alt_pair_sum(K, g, d, table)
                    assert alt_sums.get((2 * K, d), 0) == want, (n, g, K, d)


def test_merged_odd_powers_vanish_over_every_ordering():
    # every odd y-power of G(y, -y, x), folded from G over every ordering,
    # vanishes: the oracle's check passes on the engine's G ...
    for n in (1, 2, 3):
        for g in range(5):
            fold = merged_by_orderings(normalized_terms(npoint_series(n + 2, g)))
            assert fold and all(ypow % 2 == 0 for ypow, _ in fold), (n, g)
    # ... and fires on a G with a term odd in the pair slots
    g = normalized_terms(npoint_series(3, 2))
    g[(1, 0, 2)] = g.get((1, 0, 2), Fraction(0)) + 1
    with pytest.raises(ArithmeticError, match="odd powers"):
        merged_by_orderings(g)


def test_merged_coefficients_match_the_fold_over_every_ordering():
    # the fold on sorted keys against the oracle's over every ordering of
    # G, at every K and every ordered d through the tracked degree
    for n in (1, 2, 3):
        for g in range(5):
            m = merged_series(n, g)
            fold = merged_by_orderings(normalized_terms(npoint_series(n + 2, g)))
            nonzero = 0
            for d in product(range(m.degree_cap + 1), repeat=n):
                for K in range((m.degree_cap - sum(d)) // 2 + 1):
                    c = m.coefficient(K, d)
                    assert c == fold.get((2 * K, d), 0), (n, g, K, d)
                    nonzero += c != 0
            # so no key of the fold lies outside the walk
            assert nonzero == len(fold) > 0, (n, g)


def test_each_series_belongs_to_its_caller():
    # emptying one caller's series leaves every later build whole, and that
    # series' own integer strata and dump too
    want = npoint_series(3, 2).dump_lines()
    want_merged = merged_series(1, 2).dump_lines()
    poly = npoint_series(3, 2)
    want_strata = [poly.stratum(g) for g in range(3)]
    poly.f.clear()
    assert [poly.stratum(g) for g in range(3)] == want_strata
    assert poly.dump_lines() == want
    again = npoint_series(3, 2)
    assert again.bracket((1, 1, 1)) == Fraction(1, 12)
    assert again.dump_lines() == want
    assert merged_series(1, 2).dump_lines() == want_merged != []


def test_lowering_tables_match_the_key_by_key_oracle():
    # each table is raised from the keys k degrees down; the oracle builds
    # it from multisets_with_sum with a bisect per part
    for n in range(1, 7):
        for degree in range(3 * 5 + n + 1):
            for k in (1, 3):
                assert _lowerings(n, degree, k) == lowerings(n, degree, k), (n, degree, k)


def test_strata_read_f_as_integers():
    for n, g_hi in ((1, 8), (2, 8), (3, 5), (4, 4), (5, 3)):
        series = npoint_series(n, g_hi)
        f = series.f
        seen = 0
        for g in range(g_hi + 1):
            keys, nums, den = series.stratum(g)
            assert type(keys) is tuple and type(nums) is tuple and type(den) is int and den > 0
            assert list(keys) == sorted(set(keys)) and all(list(m) == sorted(m) for m in keys)
            assert all(type(c) is int and c for c in nums)
            for m, c in zip(keys, nums):
                assert sum(m) == 3 * g - 3 + n
                for mono in set(permutations(m)):
                    assert f[mono] == Fraction(c, den), (n, g, mono)
                    seen += 1
        assert seen == len(f), n
        assert series.stratum(-1) == ((), (), 1)
    assert npoint_series(2, 3).stratum(0) == ((), (), 1)
    # the keys of the two-engine check below, read off the strata
    table = BracketTable()
    for n, g_hi in ((3, 10), (4, 7)):
        series = npoint_series(n, g_hi)
        for g in range(g_hi + 1):
            keys, nums, den = series.stratum(g)
            assert keys == tuple(multisets_with_sum(n, 3 * g - 3 + n)), (n, g)
            for m, c in zip(keys, nums):
                assert Fraction(c, den) == bracket(g, m, table), (n, g, m)


def test_dump_and_bracket_build_no_expanded_dict(monkeypatch):
    # the dumps, bracket() and the merged coefficients read integer terms;
    # the Fraction dict over every monomial is built only when .f is read
    built = []
    expand = npoint._expanded
    monkeypatch.setattr(npoint, "_expanded", lambda *args: built.append(args) or expand(*args))
    series = npoint_series(4, 7)
    assert len(series.dump_lines()) == 5814
    assert series.bracket((6, 0, 6, 4)) == bracket(5, (0, 4, 6, 6), BracketTable()) != 0
    merged = merged_series(2, 5)
    assert len(merged.dump_lines()) == 138
    assert merged.coefficient(1, (2, 0)) == merged.coefficient(1, (0, 2)) != 0
    assert built == []
    assert series.f[(6, 0, 6, 4)] == series.bracket((6, 0, 6, 4))
    assert [n for n, _ in built] == [4]


def test_dump_format():
    lines = npoint_series(2, 1).dump_lines()
    assert lines[0] == "0,2 -> 1/24"
    assert lines[1] == "1,1 -> 1/24"
