import hashlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taucalc.brackets as br
from taucalc.brackets import (
    BracketTable,
    CacheError,
    bracket,
    bracket_any_genus,
    cache_load,
    cache_save,
    one_point,
    sigma_scale,
    sigma_weight,
)
from taucalc.combinat import multisets_with_sum
from taucalc.denominators import compute_D, compute_script_D
from taucalc import identities
from taucalc.identities import SweepLimits, _pair_scale, sweep
from taucalc.npoint import npoint_series
from taucalc.rationals import double_factorial, odd_double_factorial
from taucalc.reduction import _kappa_plan, kappa_to_psi
from oracles import (
    REFERENCE_BRACKETS,
    cache_dumps,
    conv_pairs,
    dvv_ordered,
    genus0_string,
    kdv_relations,
    three_point_with_tau0,
    two_point_numerators_by_channel,
    two_point_numerators_by_horner,
    warm_table_from_series,
)


def test_normalization_and_base_values():
    assert bracket(0, [0, 0, 0]) == 1
    assert bracket(1, [1]) == Fraction(1, 24)
    assert bracket(2, [2, 3]) == Fraction(29, 5760)
    assert bracket(1, [0, 0]) == 0  # dimension mismatch
    assert bracket(0, [0, 0]) == 0  # unstable
    assert bracket(1, [-1, 4]) == 0  # negative index convention


def test_tau11_pinned_by_string_equation_fixed_point():
    # the engine reads <tau_0 tau_2>_1 from its closed genus-1 two-point
    # row and <tau_1>_1 from its base case; the n-point series gets both
    # without either
    series = npoint_series(2, 1)
    assert bracket(1, [0, 2]) == bracket(1, [1]) == series.bracket((0, 2)) == Fraction(1, 24)


def test_against_published_reference_values():
    for (g, d), want in REFERENCE_BRACKETS.items():
        assert bracket(g, d) == want, (g, d)


def test_three_point_series_oracle():
    for g in range(0, 7):
        total = 3 * g - 1  # remaining exponents after the tau_0 slot
        for a in range(total + 1):
            b = total - a
            if b < a:
                break
            assert bracket(g, [0, a, b]) == three_point_with_tau0(a, b), (g, a, b)


def test_genus0_closed_form():
    assert bracket(0, [0, 0, 0]) == 1
    assert bracket(0, [1, 0, 0, 0]) == 1
    assert bracket(0, [1, 1, 0, 0, 0]) == 2
    assert bracket(0, [2, 0, 0]) == 0  # dimension mismatch


def test_genus0_against_string_equation_oracle():
    from taucalc.combinat import multisets_with_sum

    for n in range(3, 9):
        for d in multisets_with_sum(n, n - 3):
            assert bracket(0, d) == genus0_string(d), d


def test_genus0_large_n_is_not_memoized():
    # genus 0 is closed at every n, so a miss is answered and never stored
    table = BracketTable()
    d = (0,) * 9 + (1, 3, 5)
    assert bracket(0, d, table) == genus0_string(d) != 0
    assert (0, tuple(sorted(d))) not in table._data and len(table) == 0
    assert table.hits == table.misses == 0


def test_one_point_values():
    assert one_point(1) == Fraction(1, 24)
    assert one_point(2) == Fraction(1, 1152)
    assert one_point(3) == Fraction(1, 82944)
    for g in range(1, 9):
        assert one_point(g) == bracket(g, [3 * g - 2])
    with pytest.raises(ValueError):
        one_point(0)


def test_two_point_rows_match_channel_sum():
    # the order-5 recurrence against the term-by-term channel sum
    for g in range(1, 61):
        assert br._two_point_numerators(g) == two_point_numerators_by_channel(g), g


def test_two_point_rows_match_horner():
    # the order-5 recurrence against Horner's rule in x + x^2
    for g in range(1, 151):
        assert br._two_point_numerators(g) == two_point_numerators_by_horner(g), g


def test_two_point_brackets_golden():
    # sha256 of every <tau_a tau_{3g-1-a}>_g through g = 100, both halves of
    # each row, pinned from the Horner row builder before the recurrence
    table = BracketTable()
    text = "".join(
        f"{g} {a} {bracket(g, (a, 3 * g - 1 - a), table)}\n"
        for g in range(1, 101)
        for a in range(3 * g)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "61c52b61b84681cb0ca600aec0cb6dff787a6a5708f99d864ef650baf74a8ea8"
    )


def test_one_point_keys_match_series():
    # the engine's closed n = 1 keys against the one-point series
    series = npoint_series(1, 20)
    for g in range(1, 21):
        d = (3 * g - 2,)
        assert bracket(g, d, BracketTable()) == series.bracket(d), g


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_symmetry_under_shuffles(g, data):
    n = data.draw(st.integers(1, 4))
    total = 3 * g - 3 + n
    cuts = sorted(data.draw(st.integers(0, total)) for _ in range(n - 1))
    d = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    shuffled = d[:]
    random.Random(data.draw(st.integers(0, 10**6))).shuffle(shuffled)
    assert bracket(g, d) == bracket(g, shuffled)


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_string_equation(g, data):
    n = data.draw(st.integers(1, 3))
    total = 3 * g - 2 + n  # sum for the key with the tau_0 removed
    cuts = sorted(data.draw(st.integers(0, total)) for _ in range(n - 1))
    d = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    # the tau_0 side comes from the n-point series, not from the engine's
    # own string-equation shortcut
    lhs = npoint_series(n + 1, 5).bracket([0] + d)
    rhs = sum(
        bracket(g, d[:j] + [d[j] - 1] + d[j + 1 :]) for j in range(n) if d[j] >= 1
    )
    assert lhs == rhs


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_dilaton_equation(g, data):
    n = data.draw(st.integers(1, 3))
    total = 3 * g - 3 + n
    cuts = sorted(data.draw(st.integers(0, total)) for _ in range(n - 1))
    d = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    lhs = npoint_series(n + 1, 5).bracket([1] + d)
    assert lhs == (2 * g - 2 + n) * bracket(g, d)


def test_positivity_on_admissible_range():
    from taucalc.combinat import multisets_with_sum

    for g in range(0, 5):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0 or 3 * g - 3 + n < 0:
                continue
            for d in multisets_with_sum(n, 3 * g - 3 + n):
                assert bracket(g, d) > 0, (g, d)


def test_descent_agrees_with_series():
    cases = [(2, (1, 1, 3)), (3, (2, 3, 4)), (4, (9, 1)), (2, (0, 1, 2, 4)), (5, (13,))]
    # canonical keys (n >= 3, all exponents >= 2, not all equal) reach the
    # DVV descent directly; n <= 2 keys are closed, and the rest are
    # stripped by the string and dilaton equations; (4, (3, 3, 6)) has a
    # self-mirror term in both boundary sums (r = s = 2, and I = J = {3})
    canonical = [(4, (2, 3, 4, 4)), (5, (2, 2, 5, 7)), (6, (2, 3, 4, 5, 6)), (4, (3, 3, 6))]
    for g, d in cases + canonical:
        assert bracket(g, d, BracketTable()) == npoint_series(len(d), g).bracket(d), (g, d)
    assert all(bracket(g, d) != 0 for g, d in canonical)


def test_kdv_equation():
    # Witten's KdV form of the recursion (oracles.kdv_relations) on a cold
    # table, every spectator multiset X with |X| <= 4 and sum(X) <= 8: 1445
    # nonzero relations (716 of them with sum(X) <= 6); the deep suite runs
    # sum(X) <= 12
    table = BracketTable()
    relations, failed = kdv_relations(8, lambda d: bracket_any_genus(d, table))
    assert not failed and relations == 1445


def test_mirror_paired_descent_matches_ordered_oracle():
    # every stratum with g >= 1, n <= 8 and 3g-3+n <= 22 (52 strata) on one
    # cold table: the engine sums each mirror pair of boundary terms once,
    # the oracle every ordered term; equal memos mean the same keys visited,
    # so cache files stay byte-identical
    table, memo = BracketTable(), {}
    strata = [(g, n) for g in range(1, 9) for n in range(1, 9) if 3 * g - 3 + n <= 22]
    assert len(strata) == 52
    for g, n in strata:
        for d in multisets_with_sum(n, 3 * g - 3 + n):
            v = br.sigma_bracket(g, d, table)
            assert Fraction(v, 2 ** sigma_scale(g, n)) == dvv_ordered(g, d, memo), (g, d)
    cold = {(g, d): Fraction(v, 2 ** sigma_scale(g, len(d))) for (g, d), v in table._data.items()}
    assert cold == memo and len(memo) == 3738


def test_closed_base_case_memo_counts():
    # a cold n <= 2 key stores itself and nothing it would have descended to
    for g, d in [(14, (40,)), (10, (14, 15))]:
        table = BracketTable()
        bracket(g, d, table)
        assert len(table) == 1, (g, d)
    # the descent stops at n = 2: a cold (8, 5) stratum stored 1975 keys
    # when it descended through every two-point key, and stores 1945 now
    table = BracketTable()
    for d in multisets_with_sum(5, 3 * 8 - 3 + 5):
        bracket(8, d, table)
    assert len(table) < 1975


def test_canonical_engine_memo_size():
    # a cold (8, 5) stratum stores 1945 keys; DVV descent on keys with a
    # tau_0 or tau_1 stored 6550
    table = BracketTable()
    for d in multisets_with_sum(5, 3 * 8 - 3 + 5):
        bracket(8, d, table)
    assert len(table) <= 3000


@pytest.mark.parametrize("g, n, counts", [
    (6, 7, (1576, 3641, 1576, 136, 302)),
    (7, 5, (1130, 3085, 1130, 174, 478)),
    (9, 3, (1257, 4132, 1257, 223, 754)),
])
def test_cold_stratum_memo_counts(g, n, counts):
    # memo size, hits and misses of a cold compute_D pin which sub-keys each
    # DVV step visits, whichever pivot (tau_0, tau_1 or the largest) it
    # takes; the rows and their entries pin the reducible terms, which read
    # the one-sided rows and go to the memo only on a row miss
    table = BracketTable()
    compute_D(g, n, table)
    rows = (len(table._rows), sum(map(len, table._rows.values())))
    assert (len(table), table.hits, table.misses, *rows) == counts


def test_memo_holds_dyadic_normal_form():
    # every memo entry is the int V = 2^B S, S = prod (2d_j+1)!! <tau_d> and
    # B = 4g + n - 2 (the integrality theorem of the brackets module)
    table = BracketTable()
    for d in multisets_with_sum(4, 3 * 6 - 3 + 4):
        bracket(6, d, table)
    assert len(table) > 0
    for (g, d), v in table._data.items():
        assert type(v) is int and sigma_scale(g, len(d)) == 4 * g + len(d) - 2, (g, d)
        assert v == bracket(g, d) * sigma_weight(d) * 2 ** sigma_scale(g, len(d)), (g, d)


def _scaled_bracket(E, table):
    """2^B S(E) at the genus that fits the dimension, read as a Fraction."""
    g, rem = divmod(sum(E) - len(E) + 3, 3)
    if rem or g < 0:
        return 0
    return bracket(g, E, table) * sigma_weight(E) * 2 ** sigma_scale(g, len(E))


def test_derived_memos_hold_dyadic_normal_form():
    # the kappa sub-integrals, the rows and the convolution slots are ints,
    # each equal to its value recomputed through Fractions at its own scale
    table, fresh = BracketTable(), BracketTable()
    for a in ((1, 11), (3, 4, 5), (1, 1, 2, 3, 5)):
        kappa_to_psi(5, (), a, table)
    list(sweep("c35a", SweepLimits(4, 3, k_span=2), table))
    assert table._kappa and table._rows and table._conv
    for (g, psi, kappa), v in table._kappa.items():
        scale = _kappa_plan(kappa)[0] * sigma_weight(psi) * 2 ** sigma_scale(g, len(psi) + len(kappa))
        assert type(v) is int and v == kappa_to_psi(g, psi, kappa, fresh) * scale, (g, psi, kappa)
    for E, row in table._rows.items():
        for j, v in row.items():
            assert type(v) is int and v == _scaled_bracket((j,) + E, fresh), (j, E)
    for K, slot in table._conv.items():
        scale = _pair_scale(K)[1]
        for (A, B), v in zip(conv_pairs(slot, identities._SIDE_IDS), slot.values()):
            want = sum(scale[j] * _scaled_bracket((j,) + A, fresh) * _scaled_bracket((K - j,) + B, fresh)
                       for j in range(K + 1))
            assert type(v) is int and v == want, (K, A, B)


def test_descent_filled_rows_hold_their_brackets():
    # the reducible terms of the DVV step read and fill the rows: every
    # entry a cold D(6, 7) or script-D(8) leaves is the bracket at the genus
    # its dimension fixes, at its own scale
    fresh = BracketTable()
    for compute, args in ((compute_D, (6, 7)), (compute_script_D, (8,))):
        table = BracketTable()
        compute(*args, table)
        assert table._rows and not table._conv and all(table._rows.values())
        for E, row in table._rows.items():
            for j, v in row.items():
                assert type(v) is int and v == _scaled_bracket((j,) + E, fresh), (compute, j, E)


def test_descent_filled_rows_serve_the_split_sums():
    # a table whose rows the descent filled sweeps c35a to the same reports
    # and the same convolution slots as a fresh table
    lim = SweepLimits(4, 3, k_span=2)
    filled, fresh = BracketTable(), BracketTable()
    compute_D(6, 7, filled)
    compute_script_D(8, filled)
    assert filled._rows and not filled._conv
    got = [r.to_dict(timing=False) for r in sweep("c35a", lim, filled)]
    want = [r.to_dict(timing=False) for r in sweep("c35a", lim, fresh)]
    assert got == want and len(want) > 100
    assert {K: dict(slot) for K, slot in filled._conv.items()} == {K: dict(slot) for K, slot in fresh._conv.items()}


def test_put_rejects_a_value_other_than_the_held_one():
    # insertions are idempotent: an equal value is a no-op, another raises
    # and leaves the memo (and so every row read from it) as it was
    table = BracketTable()
    key = (2, (2, 2, 2))
    table.put(key, Fraction(7, 240))
    table.put(key, Fraction(7, 240))
    with pytest.raises(ValueError, match=r"the key \(2, \(2, 2, 2\)\) holds 7/240, not 1$"):
        table.put(key, Fraction(1))
    assert dict(table.items()) == {key: Fraction(7, 240)}
    # a key the descent of D(3, 4) computed
    table = BracketTable()
    compute_D(3, 4, table)
    assert key in table._data
    with pytest.raises(ValueError, match="holds 7/240, not 1/480"):
        table.put(key, Fraction(1, 480))
    assert bracket(2, (2, 2, 2), table) == Fraction(7, 240)


def test_update_merges_all_or_nothing():
    # update keeps put's rule: a clash anywhere in the other table raises
    # before any entry is written, so the memo and the rows read from it
    # stay as they were
    table = BracketTable()
    compute_D(3, 4, table)
    memo, row = dict(table._data), dict(table._rows[(2, 2)])
    clash = BracketTable()
    clash.put((3, (7,)), Fraction(1, 82944))
    clash.put((2, (2, 2, 2)), Fraction(1, 480))
    with pytest.raises(ValueError, match=r"the key \(2, \(2, 2, 2\)\) holds 7/240, not 1/480$"):
        table.update(clash)
    assert table._data == memo and table._rows[(2, 2)] == row == {2: 50400}
    assert bracket(2, (2, 2, 2), table) == Fraction(7, 240)
    # equal values and new keys merge
    agree = BracketTable()
    agree.put((2, (2, 2, 2)), Fraction(7, 240))
    agree.put((3, (7,)), Fraction(1, 82944))
    table.update(agree)
    assert len(table) == len(memo) + 1 and table._data.items() >= memo.items()
    assert bracket(3, (7,), table) == Fraction(1, 82944)


def test_scale_is_sharp_at_one_point_of_genus_a_power_of_two():
    # at n = 1, V = (6g-3)!! 2^(g-1) / (3^g g!) holds 2^(s_2(g) - 1), s_2
    # the binary digit sum: odd exactly when g is a power of 2
    table = BracketTable()
    for g in range(1, 17):
        v = br.sigma_bracket(g, (3 * g - 2,), table)
        assert (v & -v).bit_length() - 1 == bin(g).count("1") - 1, g
        assert g == 1 or table._data[(g, (3 * g - 2,))] == v
    assert all(br.sigma_bracket(g, (3 * g - 2,), table) % 2 == 1 for g in (1, 2, 4, 8, 16))


def test_clear_empties_every_store():
    table = BracketTable()
    assert bracket(2, (2, 3), table) == Fraction(29, 5760)  # a two-point key
    list(sweep("c35a", SweepLimits(3, 3, k_span=2), table))
    for a in ((1, 5), (1, 2, 3), (1, 1, 1, 1, 2)):
        kappa_to_psi(3, (), a, table)
    stores = {name: v for name, v in vars(table).items() if isinstance(v, dict)}
    assert {"_data", "_rows", "_pairs", "_conv", "_kappa"} <= set(stores)
    assert all(stores.values()), [name for name, v in stores.items() if not v]
    table.clear()
    assert not any(stores.values()) and table.hits == table.misses == 0


def test_bracket_values_are_fractions_in_lowest_terms():
    table = BracketTable()
    keys = [(1, (1,)), (0, (0, 0, 0)), (2, (2, 3)), (3, (1, 1, 2, 3)), (4, (2, 2, 2, 4, 4)),
            (0, (0,) * 9 + (1, 3, 5)), (5, (13,)), (1, (0, 0)), (1, (-1, 4))]
    values = [bracket(g, d, table) for g, d in keys]
    values += [bracket_any_genus(d, table) for _, d in keys]
    values += [v for _, v in table.items()]
    for v in values:
        assert type(v) is Fraction and v.denominator > 0
        assert gcd(v.numerator, v.denominator) == 1


def test_bracket_any_genus():
    assert bracket_any_genus((2, 3)) == Fraction(29, 5760)
    assert bracket_any_genus((1, 1)) == Fraction(1, 24)
    assert bracket_any_genus((0, 1)) == 0  # no integer genus fits
    # bracket reads 0 at a negative exponent or genus
    assert bracket_any_genus((-1, 3)) == 0
    assert bracket_any_genus((0,) * 6) == 0


def test_cache_transparency():
    # a warmed table returns bit-identical values to a cold run
    warm = BracketTable()
    keys = [(3, (1, 2, 6)), (2, (2, 3)), (4, (4, 6))]
    first = [bracket(g, d, warm) for g, d in keys]
    cold = [bracket(g, d, BracketTable()) for g, d in keys]
    again = [bracket(g, d, warm) for g, d in keys]
    assert first == cold == again
    assert warm.hits > 0


def test_concurrent_fills_are_idempotent():
    # workers racing on one table must agree with a serial run bit-for-bit
    from concurrent.futures import ThreadPoolExecutor

    shared = BracketTable()
    keys = [(g, (d, 3 * g - 1 - d)) for g in range(1, 7) for d in range(0, 3 * g - 1)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda k: bracket(k[0], k[1], shared), keys * 2))
    serial = [bracket(g, d, BracketTable()) for g, d in keys] * 2
    assert results == serial


def test_cache_round_trip():
    table = BracketTable()
    for g in range(1, 5):
        for k in range(3 * g - 2, 3 * g + 3):
            bracket(g, [k, 3 * g - 3 + 2 - k], table)
    text = cache_dumps(table)
    loaded = cache_load(io.StringIO(text))
    assert dict(loaded.items()) == dict(table.items())
    # and the save of the load is byte-identical
    assert cache_dumps(loaded) == text


def _sealed(*entries: str) -> str:
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    return "TAUCACHE v1\n" + "".join(e + "\n" for e in entries) + f"#sha256={digest}\n"


def test_cache_single_line_parse():
    table = cache_load(io.StringIO(_sealed("1|1|1/24")))
    assert dict(table.items())[(1, (1,))] == Fraction(1, 24)


def test_cache_requires_trailer_and_nothing_after_it():
    with pytest.raises(CacheError, match="line 3: missing #sha256= trailer"):
        cache_load(io.StringIO("TAUCACHE v1\n1|1|1/24\n"))
    with pytest.raises(CacheError, match="line 4: entry after the checksum trailer"):
        cache_load(io.StringIO(_sealed("1|1|1/24") + "2|4|1/1152\n"))
    with pytest.raises(CacheError, match="line 2: malformed entry"):
        cache_load(io.StringIO(_sealed("1|1|1/0")))


def test_cache_rejects_a_key_read_twice():
    # cache_save writes each key once; a second line must not overwrite the
    # first one without notice (1/7 is dyadic in sigma form: 945/7 = 135)
    with pytest.raises(CacheError, match="line 3: .* already read on line 2"):
        cache_load(io.StringIO(_sealed("2|4|1/1152", "2|4|1/7")))


def test_cache_rejects_value_whose_sigma_form_is_not_dyadic():
    # the trailer is valid, but 9 * 1/27 = 1/3 is no dyadic rational (a
    # one-point key would fail the closed-form check first)
    with pytest.raises(CacheError, match="line 2: value 1/27 is not dyadic"):
        cache_load(io.StringIO(_sealed("1|1,1|1/27")))
    with pytest.raises(ValueError, match="not dyadic"):
        BracketTable().put((1, (1,)), Fraction(1, 72))


def test_cache_rejects_dyadic_value_beyond_the_sigma_scale():
    # 9 * 1/1024 is dyadic, but no bracket of g = 1, n = 2 has more than
    # 2^(4g+n-2) = 2^4 in the denominator of its sigma form
    with pytest.raises(CacheError, match="line 2: value 1/1024 leaves no integer at scale 2\\^4"):
        cache_load(io.StringIO(_sealed("1|1,1|1/1024")))
    with pytest.raises(ValueError, match="leaves no integer at scale"):
        BracketTable().put((1, (1, 1)), Fraction(1, 1024))


@pytest.mark.parametrize("entry", [
    "1|-1,3|1",  # negative exponent
    "-1|0,0,0,0,0,0,1|1",  # negative genus, though 2g-2+n > 0 and the sum fits
    "0|0,0|1",  # unstable (g, n)
    "1|50000|1",  # exponents do not sum to 3g-3+n
    "2|3,1|1/384",  # exponents not ascending
    "16667|50000|1/3",  # one too many: 3g-3+n = 49999
])
def test_cache_rejects_keys_the_engine_never_stores(entry):
    # the weight prod (2d_j+1)!! of such a key would be computed before
    # any other check; the key is rejected first and no weight is cached.
    # put shares the check: a memo hit is answered without a range check
    before = odd_double_factorial.cache_info(), double_factorial.cache_info()
    with pytest.raises(CacheError, match="line 3: no bracket has the key"):
        cache_load(io.StringIO(_sealed("1|1|1/24", entry)))
    g, exps, value = entry.split("|")
    key = (int(g), tuple(int(x) for x in exps.split(",")))
    with pytest.raises(ValueError, match="no bracket has the key"):
        BracketTable().put(key, Fraction(value))
    assert (odd_double_factorial.cache_info(), double_factorial.cache_info()) == before


@pytest.mark.parametrize("entry", [
    "2|4|1",  # <tau_4>_2 = 1/1152: bracket would read 1 from the memo
    "16667|49999|1",  # checked before the weight (99997)!! is computed
    "2|4|1/1151",
])
def test_cache_rejects_one_point_value_other_than_the_closed_form(entry):
    with pytest.raises(CacheError, match="line 2: stored value .* is not 1/\\(24\\^g g!\\)"):
        cache_load(io.StringIO(_sealed(entry)))
    assert bracket(2, (4,), cache_load(io.StringIO(_sealed("2|4|1/1152")))) == Fraction(1, 1152)


def test_cache_load_leaves_the_factorial_caches_alone():
    # <tau_88>_30 = 1/(24^30 30!) by the one-point formula
    text = _sealed("1|1|1/24", "3|3,3,3|583/96768", f"30|88|{one_point(30)}")
    before = odd_double_factorial.cache_info(), double_factorial.cache_info()
    table = cache_load(io.StringIO(text))
    assert (odd_double_factorial.cache_info(), double_factorial.cache_info()) == before
    values = dict(table.items())
    assert values[(30, (88,))] == one_point(30)
    assert values[(3, (3, 3, 3))] == bracket(3, (3, 3, 3))


def test_truncated_cache_with_altered_value_is_rejected():
    # a cache cut off before its trailer, whose last value was changed
    table = BracketTable()
    assert bracket(4, [2, 2, 2, 4, 4], table) == Fraction(5609, 23040)
    lines = cache_dumps(table).splitlines()
    assert lines[-2] == "4|2,2,2,4,4|5609/23040"
    truncated = "\n".join(lines[:-2] + ["4|2,2,2,4,4|5609/7"]) + "\n"
    with pytest.raises(CacheError, match="trailer"):
        cache_load(io.StringIO(truncated))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_cache_is_rejected_or_equal(data):
    table = BracketTable()
    bracket(3, [2, 3, 4], table)
    text = cache_dumps(table)
    if data.draw(st.booleans()):
        damaged = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        i = data.draw(st.integers(0, len(text) - 1))
        damaged = text[:i] + data.draw(st.characters()) + text[i + 1 :]
    try:
        loaded = cache_load(io.StringIO(damaged))
    except CacheError:
        return
    assert dict(loaded.items()) == dict(table.items())


def test_cache_from_series_verifies_through_engine():
    # the series table is full of tau_0/tau_1 keys that the engine now
    # reduces by string and dilaton instead of descending on them
    table = BracketTable()
    assert warm_table_from_series(npoint_series(3, 8), table) > 0
    assert any(exps[0] <= 1 for (_, exps), _ in table.items())
    loaded = cache_load(io.StringIO(cache_dumps(table)), verify=True)
    assert dict(loaded.items()) == dict(table.items())


def test_cache_verify_rejects_wrong_value():
    with pytest.raises(CacheError, match="contradicts"):
        cache_load(io.StringIO("TAUCACHE v1\n1|1,1|1/25\n"), verify=True)


def test_cache_rejects_malformed_and_version_mismatch():
    with pytest.raises(CacheError, match="line 2"):
        cache_load(io.StringIO("TAUCACHE v1\nnot-an-entry\n"))
    with pytest.raises(CacheError, match="version"):
        cache_load(io.StringIO("TAUCACHE v9\n"))
    with pytest.raises(CacheError, match="checksum"):
        cache_load(io.StringIO("TAUCACHE v1\n1|1|1/24\n#sha256=00\n"))


def test_cache_file_round_trip(tmp_path):
    table = BracketTable()
    bracket(2, [2, 3], table)
    path = str(tmp_path / "t.cache")
    cache_save(table, path)
    assert dict(cache_load(path).items()) == dict(table.items())


def test_cache_save_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "t.cache"
    table = BracketTable()
    bracket(2, [2, 3], table)
    cache_save(table, str(path))
    before = path.read_text()

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(br.os, "replace", crash)
    bracket(3, [2, 3, 4], table)
    with pytest.raises(OSError, match="simulated"):
        cache_save(table, str(path))
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.cache"]
