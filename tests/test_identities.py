import hashlib
import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taucalc import brackets, identities
from taucalc.brackets import BracketTable, bracket
from taucalc.identities import (
    IDENTITY_IDS,
    ParameterError,
    SweepLimits,
    alt_pair_sum,
    instances,
    n1_expected,
    n1_sum_reports,
    split_sum,
    sweep,
    verify,
)
from taucalc.report import Report, reports_to_json
from oracles import bracket_sum_by_fractions, cache_dumps, conv_pairs


def test_alt_pair_sum_examples():
    assert alt_pair_sum(1, 1, [1]) == Fraction(1, 12)
    assert alt_pair_sum(1, 0, [0, 0, 0]) == 0
    assert alt_pair_sum(2, 2, [2]) == Fraction(1, 240)  # 1/(2^{2g}(2g+1)!!) at g=2


def test_alt_pair_sum_one_point_closed_form():
    # single-insertion case: sum_j (-1)^j <tau_{2g-j} tau_j tau_g>_g
    # collapses to 1/(2^{2g} (2g+1)!!)
    from taucalc.rationals import odd_double_factorial

    for g in range(1, 6):
        want = Fraction(1, 2 ** (2 * g) * odd_double_factorial(g))
        assert alt_pair_sum(g, g, (g,)) == want, g


def brute(K, le, re_, g, d):
    """split_sum re-evaluated over explicit index subsets, genera and j."""
    total = Fraction(0)
    idx = range(len(d))
    for rsz in range(len(d) + 1):
        for I in combinations(idx, rsz):
            J = tuple(i for i in idx if i not in I)
            dI = tuple(d[i] for i in I)
            dJ = tuple(d[i] for i in J)
            for gp in range(g + 1):
                for j in range(K + 1):
                    total += (
                        (-1) ** j
                        * bracket(gp, (j,) + tuple(le) + dI)
                        * bracket(g - gp, (K - j,) + tuple(re_) + dJ)
                    )
    return total


def test_split_sum_examples():
    assert split_sum(0, [], [], 1, [0]) == 0
    cases = [
        (2, (), (), 2, (3,)),
        (2, (1,), (), 1, (1, 1)),
        (4, (0,), (0,), 2, (1, 2)),
        (3, (1, 2), (0,), 2, (2, 2)),
    ]
    for K, le, re_, g, d in cases:
        assert split_sum(K, le, re_, g, d) == brute(K, le, re_, g, d), (K, le, re_, g, d)


_extras = st.lists(st.integers(0, 2), max_size=2).map(tuple)


@given(g=st.integers(0, 3), le=_extras, re_=_extras,
       d=st.lists(st.integers(0, 4), max_size=3).map(tuple))
@settings(max_examples=100, deadline=None)
def test_split_sum_matches_brute_force(g, le, re_, d):
    # K is chosen so that genus g fits both factors' dimensions
    K = 3 * g - (sum(le) + sum(re_) + sum(d) + 4 - len(le) - len(re_) - len(d))
    assume(0 <= K <= 6)
    # one table for all calls: the mismatched genera run first, so a row
    # entry cached at a wrong genus would corrupt the matching call
    table = BracketTable()
    for genus in sorted(range(4), key=lambda x: x == g):
        want = brute(K, le, re_, genus, d)
        assert split_sum(K, le, re_, genus, d, table) == want, (K, le, re_, genus, d)
        if genus != g:
            assert want == 0


def test_split_sum_rows_are_table_scoped():
    args = (4, (0, 1), (0, 0), 2, (1, 2))  # a c35b instance, nonzero
    a = BracketTable()
    value = split_sum(*args, a)
    assert value == brute(*args) != 0
    assert a._rows
    # a fresh table is filled exactly as the first one was: no memo outside it
    b = BracketTable()
    assert split_sum(*args, b) == value
    assert list(b.items()) == list(a.items()) and b._rows == a._rows
    # the rows are derived data: never saved, and cleared with the memo
    plain = BracketTable()
    for key, v in a.items():
        plain.put(key, v)
    assert cache_dumps(a) == cache_dumps(plain)
    # so are the convolution slots: one per K met, each holding only pairs
    # (A, B) with A <= B, filled in the same order on a fresh table, absent
    # from the saved text, and emptied by clear()
    assert list(a._conv) == [4] and a._conv[4]
    assert all(A <= B for A, B in conv_pairs(a._conv[4], identities._SIDE_IDS))
    assert list(b._conv[4].items()) == list(a._conv[4].items())
    # a second K adds its own slot and leaves the first one as it was
    kept = dict(a._conv[4])
    assert split_sum(5, (0, 1), (0, 0), 2, (1, 1), a) == brute(5, (0, 1), (0, 0), 2, (1, 1))
    assert list(a._conv) == [4, 5] and a._conv[4] == kept
    dumped = cache_dumps(a)
    for key, v in a.items():
        plain.put(key, v)
    assert dumped == cache_dumps(plain)
    a.clear()
    assert len(a) == 0 and not a._rows and not a._conv
    a.clear()
    assert split_sum(*args, a) == value and list(a.items()) == list(b.items())
    assert list(a._conv) == [4] and list(a._conv[4].items()) == list(b._conv[4].items())


@given(g=st.integers(0, 3), le=_extras, re_=_extras,
       d=st.lists(st.integers(0, 4), max_size=3).map(tuple))
@settings(max_examples=60, deadline=None)
def test_split_sum_swaps_sides_with_sign(g, le, re_, d):
    # C_K(B, A) = (-1)^K C_K(A, B): swapping the extras flips the sum by
    # (-1)^K, and both orders agree with the brute force on one table
    K = 3 * g - (sum(le) + sum(re_) + sum(d) + 4 - len(le) - len(re_) - len(d))
    assume(0 <= K <= 6)
    table = BracketTable()
    forward = split_sum(K, le, re_, g, d, table)
    backward = split_sum(K, re_, le, g, d, table)
    assert forward == brute(K, le, re_, g, d)
    assert backward == brute(K, re_, le, g, d)
    assert backward == (-1) ** K * forward


def test_c35_default_grid_convolution_count(monkeypatch):
    # every distinct unordered (K, A, B) of the c35 grid is convolved once
    # on a fresh table: neither its mirror (B, A) nor a K met again costs
    # a second one
    computed = []
    convolution = identities._convolution

    def counted(*args):
        computed.append(args[1:4])
        return convolution(*args)

    monkeypatch.setattr(brackets, "_DEFAULT_TABLE", BracketTable())
    monkeypatch.setattr(identities, "_convolution", counted)
    g_max, n_max, run = identities.VERIFY_TOKENS["c35"]
    assert all(r.passed for r in run(g_max, n_max))
    assert len(computed) == len(set(computed)) == 2122
    assert all(A <= B for _, A, B in computed)


def test_c35_default_grid_sides_are_interned(monkeypatch):
    # each distinct side is one object per process: every side a slot key
    # decodes to is the registry's own, the decoded pairs keep A <= B, and
    # no two (K, A, B) share a slot: 2122 slots for the 2122 convolutions of
    # test_c35_default_grid_convolution_count.  Every side has its row; the
    # DVV descent of the cold table adds the rows of its own splits (such
    # as the empty one), keyed by the split's tuples, so 142 rows hold the
    # 133 sides
    table = BracketTable()
    monkeypatch.setattr(brackets, "_DEFAULT_TABLE", table)
    g_max, n_max, run = identities.VERIFY_TOKENS["c35"]
    assert all(r.passed for r in run(g_max, n_max))
    registry = identities._SIDE_IDS
    triples = [(K, A, B) for K, slot in table._conv.items() for A, B in conv_pairs(slot, registry)]
    assert len(set(triples)) == len(triples) == 2122
    assert all(registry[A][0] is A and registry[B][0] is B and A <= B for _, A, B in triples)
    sides = {E for _, A, B in triples for E in (A, B)}
    assert len(sides) == 133 and sides <= set(table._rows) and len(table._rows) == 142


def test_sweep_frees_each_grid_row_when_pulled():
    # the grid is held in reverse and popped, so a sweep keeps only the rows
    # it has not yet pulled, and still yields them in canonical order
    lim = SweepLimits(3, 2, k_span=2)
    reports = sweep("c35a", lim)
    grid = reports.gi_frame.f_locals["grid"]
    total = len(grid)
    pulled = [next(reports) for _ in range(5)]
    assert len(grid) == total - 5 > 0
    rest = list(reports)
    assert not grid and len(pulled) + len(rest) == total
    keys = [r.sort_key() for r in pulled + rest]
    assert keys == sorted(keys)


_call = st.tuples(st.integers(0, 6), _extras, _extras, st.lists(st.integers(0, 3), max_size=2).map(tuple))


@given(calls=st.lists(_call, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_convolution_slot_matches_brute_force(calls):
    # one shared table for calls of mixed K: each drawn call also runs at
    # K + 3 (the same (A, B) pairs one genus up) and then back at K with d
    # moved into the left extras, which reaches its (A, B) from another
    # (extras, d); a memo keyed by (A, B) alone, not by K too, would answer
    # stale values
    table = BracketTable()
    for K, le, re_, d in calls:
        rest = sum(le) + sum(re_) + sum(d) + 4 - len(le) - len(re_) - len(d)  # >= -2
        K += -(K + rest) % 3  # the least K' >= K that some genus fits
        g = (K + rest) // 3
        for args in ((K, le, re_, g, d), (K + 3, le, re_, g + 1, d), (K, le + d, re_, g, ())):
            assert split_sum(*args, table) == brute(*args), args


def test_verify_spec_examples():
    r = verify("eq4", g=1, d=(1,))
    assert r.passed and r.lhs == r.rhs == Fraction(1, 12)
    r = verify("eq5", g=1, d=(0,))
    assert r.passed and r.lhs == 0
    r = verify("eq6", g=0, K=1, d=(0, 0, 0))
    assert r.passed and r.lhs == 0
    # c33b's and c34b's grids start at g = 1, but that start is no bound:
    # these g = 0 tuples are admissible
    assert verify("c34b", g=0, m=3, s=0, r=(0, 0, 0), d=(1,)).passed
    assert verify("c33b", g=0, m=4, r=(0, 0, 0, 0), d=(1,)).passed


def test_verify_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="sum"):
        verify("eq4", g=2, d=(1,))
    with pytest.raises(ParameterError, match="K > g"):
        verify("eq6", g=2, K=2, d=(0,))
    with pytest.raises(ParameterError, match="unknown identity"):
        verify("zzz", g=1, d=(1,))
    with pytest.raises(ParameterError, match="d_j >= 1"):
        verify("eq8", g=2, d=(0, 4))
    # a negative genus or spectator is off every domain, whatever the sum
    off_domain = [
        ("c33b", dict(g=1, m=2, r=(-1, 0), d=(1, 1, 3)), "r_p >= 0"),
        ("c34b", dict(g=1, m=3, s=-1, r=(0, 0, 0), d=(1, 1, 3)), "s >= 0"),
        ("eq6", dict(g=-1, K=0, d=(0, 0, 0, 0)), "g >= 0"),
        ("c33a", dict(g=-1, K=0, m=2, r=(0, 0), d=(0,) * 5), "g >= 0"),
        ("c34a", dict(g=-1, K=0, m=2, s=0, r=(0, 0), d=(0,) * 4), "g >= 0"),
        ("c35a", dict(g=-1, K=0, m=2, l=2, r=(0, 0), s=(0, 0), d=(0,) * 3), "g >= 0"),
        # so is a value of the wrong type, whose bound states its type
        ("c32a", dict(g=1, K=1, r=[0], s=0, d=(0,)), "r >= 0"),
        ("c33a", dict(g=1, K=1, m=2, r=0, d=(0,)), "r_p >= 0"),
        ("c35b", dict(g=0, m=2, l=2, r=(0, 0), s=(0, "0"), d=(1,)), "s_p >= 0"),
        ("eq4", dict(g=1.0, d=(1,)), "g >= 0"),
        ("eq6", dict(g=1, K="2", d=(0,)), "K > g"),
        ("eq4", dict(g=1, d=1), "d_j >= 1"),
        ("eq4", dict(g=1, d=(1, "1")), "d_j >= 1"),
    ]
    for ident, params, message in off_domain:
        with pytest.raises(ParameterError, match=message):
            verify(ident, **params)


def test_theorem_sweeps_small():
    lim = SweepLimits(g_max=3, n_max=3)
    for ident in ("eq4", "eq6"):
        reports = list(sweep(ident, lim))
        assert reports and all(r.passed for r in reports)


def test_conjecture_sweeps_small():
    lim = SweepLimits(g_max=2, n_max=2, k_span=2, rs_max=1)
    for ident in ("eq5", "eq7", "eq8", "eq3", "c32a", "c32b", "c33a", "c33b",
                  "c34a", "c34b", "c35a", "c35b"):
        reports = list(sweep(ident, lim))
        assert reports, ident
        bad = [r for r in reports if not r.passed]
        assert not bad, (ident, bad[:2])


def test_eq7_shares_eq5_shape():
    # eq7 is eq5 with the insertion order raised beyond the genus and the
    # constant replaced by zero: same evaluator, different X
    r5 = verify("eq5", g=2, d=(1, 1))
    r7 = verify("eq7", g=2, K=3, d=(0, 0, 1))
    assert r5.rhs == 0 and r7.rhs == 0
    assert r5.passed and r7.passed


def test_string_dilaton_compatibility():
    # appending an exponent-1 insertion preserves admissibility; passing
    # instances must keep passing with it appended
    lim = SweepLimits(g_max=3, n_max=2)
    for ident in ("eq4", "eq5", "eq8"):
        for params in instances(ident, lim):
            assert verify(ident, **params).passed
            extended = dict(params)
            extended["d"] = tuple(sorted(tuple(params["d"]) + (1,)))
            assert verify(ident, **extended).passed, (ident, extended)


def test_c32a_lambda1_reduction():
    # with r = s = 0 and K > g the split collapses onto twice the
    # shifted bracket (all other alternating blocks vanish)
    table = BracketTable()
    for g in range(0, 4):
        for K in range(g + 1, g + 3):
            for n, d in [(1, (0,)), (2, (0, 1)), (2, (1, 1))]:
                total = 3 * g + n - 2 * K - 1
                if total != sum(d):
                    continue
                lhs = split_sum(2 * K, (0,), (0,), g, d, table)
                rhs = 2 * bracket(g, (2 * K + 1, 0) + d, table)
                assert lhs == rhs, (g, K, d)


def test_decomposition_check():
    for g, d in [(2, (1,)), (3, (2,)), (3, (1, 2))]:
        r = verify("decomp", g=g, d=d)
        assert r.passed and r.extra["constants_match"], (g, d)
    with pytest.raises(ParameterError):
        verify("decomp", g=3, d=(1, 1))


def test_decomp_is_an_identity_on_the_eq3_grid():
    # decomp takes eq3's tuples, and verify evaluates it like any identity
    r = verify("decomp", g=3, d=(1, 2))
    assert (r.id, r.params) == ("decomp", {"g": 3, "d": (1, 2)})
    # its two terms add up to eq3's bracket side, and its constant is eq3's
    eq3 = verify("eq3", g=3, d=(1, 2))
    assert r.extra["eq5_residual"] + r.extra["half_alt_pair_sum"] == r.lhs == eq3.lhs
    assert r.rhs == eq3.rhs and r.passed
    lim = SweepLimits(g_max=4, n_max=3)
    assert list(instances("decomp", lim)) == list(instances("eq3", lim))
    with pytest.raises(ParameterError, match="decomp needs"):
        verify("decomp", g=3, d=(1, 1))


def test_n1_sums():
    assert tuple(r.lhs for r in n1_sum_reports(1)) == (Fraction(1, 12), Fraction(1, 12), Fraction(1, 24))
    assert n1_expected(2) == (Fraction(1, 120), Fraction(1, 240), Fraction(1, 1152))
    assert n1_expected(3) == (Fraction(1, 2240), Fraction(1, 6720), Fraction(1, 82944))
    for g in range(1, 7):
        assert all(r.passed for r in n1_sum_reports(g)), g


@pytest.mark.parametrize("g", [0, -1])
def test_n1_sums_reject_a_genus_below_one(g):
    with pytest.raises(ParameterError, match="the one-point sums need g >= 1"):
        n1_sum_reports(g)


def test_sweep_is_deterministic_across_runs():
    # cold and warm on a fresh table, then on the process-wide one
    lim = SweepLimits(g_max=2, n_max=2)
    table = BracketTable()
    runs = [list(sweep("eq5", lim, table=table)), list(sweep("eq5", lim, table=table)),
            list(sweep("eq5", lim))]
    first = reports_to_json(runs[0], timing=False)
    assert all(reports_to_json(r, timing=False) == first for r in runs[1:])


def test_report_serialization():
    r = verify("eq4", g=1, d=(1,))
    payload = json.loads(reports_to_json([r], timing=False))
    assert payload == [
        {"id": "eq4", "params": {"g": 1, "d": [1]}, "lhs": "1/12", "rhs": "1/12", "pass": True}
    ]
    with_timing = json.loads(reports_to_json([r], timing=True))
    assert "ms" in with_timing[0]


def test_report_encoding_of_nested_values():
    # the shapes of the monotone violation records and the decomp extras:
    # tuples and lists in params, an int lhs, nested Fractions and a bool;
    # the expected text was captured before the encoder changed
    reports = [
        Report(id="c53", params={"g": 2, "n": 1}, lhs=7, rhs=Fraction(6), ms=1.23456,
               extra={"violations": [{"smaller_side": (0, 4), "larger_side": [1, 3]}]}),
        Report(id="decomp", params={"d": (1, 2), "r": [0, 2], "g": 3},
               lhs=Fraction(-5, 12), rhs=Fraction(-5, 12),
               extra={"eq5_residual": Fraction(1, 3), "constants_match": True,
                      "nested": {"pair": (Fraction(1, 2), [Fraction(-3, 4), False]), "bounds": {2: 7}}}),
    ]
    c53 = ('{"id": "c53", "params": {"g": 2, "n": 1}, "lhs": "7", "rhs": "6", "pass": false, '
           '"extra": {"violations": [{"smaller_side": [0, 4], "larger_side": [1, 3]}]}')
    decomp = ('{"id": "decomp", "params": {"d": [1, 2], "r": [0, 2], "g": 3}, "lhs": "-5/12", '
              '"rhs": "-5/12", "pass": true, "extra": {"eq5_residual": "1/3", "constants_match": true, '
              '"nested": {"pair": ["1/2", ["-3/4", false]], "bounds": {"2": 7}}}')
    assert reports_to_json(reports, timing=False) == f"[{c53}}}, {decomp}}}]"
    assert reports_to_json(reports, timing=True) == f'[{c53}, "ms": 1.235}}, {decomp}, "ms": 0.0}}]'


def test_instance_enumeration_respects_constraints():
    lim = SweepLimits(g_max=3, n_max=3, k_span=2, rs_max=2)
    for ident in IDENTITY_IDS:
        count = 0
        for params in instances(ident, lim):
            verify(ident, **params)  # must not raise ParameterError
            count += 1
        assert count > 0, ident


# sha256 of repr(list(instances(id, limits))) at each identity's CLI default
# grid (g_max, n_max, k_span), then on one small grid with k_span = 1 and
# rs_max = 1.  The instance order fixes the bracket visit order, and so the
# cold --cache file; the key order of each params dict fixes the JSON key
# order of the reports.
@pytest.mark.parametrize("ident, g_max, n_max, k_span, default_digest, small_digest", [
    ("eq3", 6, 4, 3,
     "8f083f1a940314c6cf1c61fb92d42e1f24d376a69ab0f618b1b41631a0db773d",
     "30a6cc2c2ee524a17832445d8f55ecda31a5685d4d34bd29478cbdcedff3b6c7"),
    ("eq4", 6, 4, 3,
     "9653eb47953fb6458cc658af7bb248d3fdc4b45ab080949e0ea50fbe1ac843c3",
     "0f43b60f02e1ba809280ffb091d46128e025ef9724e929df0a23855508557e51"),
    ("eq5", 6, 4, 3,
     "a7b9d10840b53b28f5df274eb443d4611c78aa91642db462a01d1ab21c8d417b",
     "0fe8c68f2e2693aacf3924f9b79b3667f35d13be227f12961262b0e224f6ac69"),
    ("eq6", 5, 4, 4,
     "2fa88555e1aef8a6f5e6b3e45bb20577b2722e2cf00831cacbb62d7437c64fd0",
     "80f5f7ef7b7b3479297d1ef69f3960db39095069e8c6e0a89cf3136e0f281fac"),
    ("eq7", 4, 3, 4,
     "ea195f1d190204e57b020d12f366f4eea0372d3b77dbfcb9ccef08da3dc12a48",
     "468237472af5f688fb4e62fc4f57f1598f948919aa9d53acb5d928c91f858d4e"),
    ("eq8", 6, 4, 3,
     "598dcc12591338956952227ad8f26e78a9a2a35bdc6c65236594c92e60f37bb5",
     "dbf7a7326d6f47248453a6ce09757b072ef2bcb1e31accfee6412518b78c2957"),
    ("c32a", 4, 3, 2,
     "26a32b833a5d1e0c4e01510a6830e9ff78c96dee25dfa4c7e6d60d880622e3ab",
     "03a7461a426041797cdbb2b10a3f54902aeef5e1973a62ff4a3fd1b39b897779"),
    ("c32b", 4, 3, 2,
     "8aacb6721cb4b54cfb2cd347d792b286fe97b18cb7f7d023a4280b0b43d5cd88",
     "5e6783d62445badfe1d2c94f852770228097e81f4b5cb6e83ab2bd5300a367cc"),
    ("c33a", 4, 3, 2,
     "b02514e6011344142cf5d00ed11ba9824bd46507b78e778d6826df9d54f5d9c4",
     "90cd5fac668ce3af7261427ea03accfeed6b9f87d05bd4f4d743048b9f4eb7a6"),
    ("c33b", 4, 3, 2,
     "b5e388711bfa4168190bf18ca6e6fbc7399611a9cd172d96806d9e850f4d9f57",
     "73a5d071e3226fb4453435a62e37631907d69b9f375d5344cb5a0d27c7f17830"),
    ("c34a", 4, 3, 2,
     "22aa376cf5b29f85da289c5799895c6219c0f2179c2f9c1d28cc0409b15bc98b",
     "201a817aaa17a11525bcdcfb36c114bed19474410c3417b04169c97d81e46557"),
    ("c34b", 4, 3, 2,
     "63d42df9d5eabb652286bd2ea2b938f87430981b02669362b75b453182372b2d",
     "486e186fe84e5ae10200b8a3aa6d243387f0b3043c04730165264b99fa42f0c1"),
    ("c35a", 4, 3, 2,
     "1ef5f0f5ddc97412338b4f8ad68b78af3b2fa78346f0d368e0c9fd19281acaa8",
     "662770ac247157af88670418a23b9f38ae345d69f2534b88522b05c43933b1a3"),
    ("c35b", 4, 3, 2,
     "4e48a54e9eea94b568439e25391fc1f019ace82f50b2b17492412089bd14c4a4",
     "b0887e32fc3e76b01343a02b6b67bf88c237e1c3a9eb4a842c7cbed1230e00cc"),
])
def test_instance_enumeration_is_pinned(ident, g_max, n_max, k_span, default_digest, small_digest):
    grids = (
        (SweepLimits(g_max=g_max, n_max=n_max, k_span=k_span), default_digest),
        (SweepLimits(g_max=2, n_max=2, k_span=1, rs_max=1), small_digest),
    )
    for lim, digest in grids:
        got = hashlib.sha256(repr(list(instances(ident, lim))).encode()).hexdigest()
        assert got == digest, (ident, lim)


def _box(ident):
    """Every tuple of a box around the grid, most of them off the domain,
    with g and the spectators >= 0: g in 0..2, K in 0..4, m and l in 1..3,
    int spectators in 0..2, tuple spectators of 2 or 3 parts in 0..1, and
    every sorted d of up to 3 parts in 0..2."""
    keys = identities._IDENTITIES[ident].keys
    sample = next(instances(ident, SweepLimits(2, 2, k_span=1, rs_max=1)))
    ranges = {"g": range(3), "K": range(5), "m": range(1, 4), "l": range(1, 4)}
    spectators = [t for n in (2, 3) for t in combinations_with_replacement(range(2), n)]
    values = [spectators if isinstance(sample[k], tuple) else ranges.get(k, range(3)) for k in keys]
    values.append([d for n in range(4) for d in combinations_with_replacement(range(3), n)])
    return (dict(zip(keys + ("d",), t)) for t in product(*values))


# the count and the sha256 of repr(list) of the tuples of `_box(id)` that
# verify accepts, captured before each loop carried its own bound
@pytest.mark.parametrize("ident, count, digest", [
    ("eq3", 3, "79c95a40d54768d21844edb32a963387872f9f6920283696f2800f3c8cef37c0"),
    ("eq4", 6, "0c035e9ffb8492990d15cf16bd2a1d5aabdf89bec76eb99540a9c2c30ed0e86f"),
    ("eq5", 9, "81a653c5c5e5c4c6bfdab9b525c199cd101f861fc6b9ec712edba3e43872e636"),
    ("eq6", 8, "58e285bf54a29ef71f7a630433887356f3d37acfc76276a4a13f56fdf474191e"),
    ("eq7", 3, "2e5c390289ee9b90ed9897c33a6cfa1b4b696af5a1054fb40617d337d6194fc5"),
    ("eq8", 2, "fd4924893536be0357cb2c8a893433d25f78dc3340bf0a89111eb48a8174093b"),
    ("c32a", 42, "61a578dfc94f2b7d33476b15a4757ea7f6200238830e49a2fa4a638371b67828"),
    ("c32b", 31, "b2658b70b89ba9b9d9a1503d100a6fc69d30645973540782ad01cbbf3d5c8f77"),
    ("c33a", 74, "378ef0fbab94a6ced66bc96a3594e5ac27fc4abfee4b7c017aa29e4ef4f207b1"),
    ("c33b", 20, "de043dd14deb6669d0c06924cec65d8a5502a033fcd22133c5cca132f371e179"),
    ("c34a", 126, "cc1e38b30ee99e5080a9aa86ea0b8eda30b3026dde0fdc56f4b243da79d493cd"),
    ("c34b", 39, "0c81e4692ebedce6503de902b8e32959ab75e35fcb519c0dd027e96a338726d0"),
    ("c35a", 142, "de87d0bbecd606ae9032cd83972b83573b83c33d45178dd0b587453de4a341db"),
    ("c35b", 140, "d825d0ff9c03d7f48d8e818b29d3ebc179f8b38809ddcc09c58154b4645cfceb"),
    ("decomp", 3, "79c95a40d54768d21844edb32a963387872f9f6920283696f2800f3c8cef37c0"),
])
def test_verify_accepted_set_is_pinned(ident, count, digest):
    spec = identities._IDENTITIES[ident]
    kept = [p for p in _box(ident) if spec.violation(p) is None]
    assert len(kept) == count
    assert hashlib.sha256(repr(kept).encode()).hexdigest() == digest


@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_sweep_reports_match_fresh_verify(ident):
    # the sweep rebuilds each params dict from its held tuple: keys in spec
    # order (that of the JSON), reports in canonical order, and every report
    # equal to a fresh, checked verify of its params
    keys = [*identities._IDENTITIES[ident].keys, "d"]
    reports = list(sweep(ident, SweepLimits(g_max=3, n_max=3, k_span=2, rs_max=1)))
    assert reports
    assert [r.sort_key() for r in reports] == sorted(r.sort_key() for r in reports)
    for r in reports:
        assert list(r.params) == keys
        fresh = verify(ident, **r.params)
        assert list(fresh.params) == keys and fresh.params == r.params
        assert (fresh.lhs, fresh.rhs, fresh.extra, fresh.passed) == (r.lhs, r.rhs, r.extra, r.passed)


@pytest.mark.parametrize("genus, terms, vanishes", [
    (2, (), True),
    # cancels to 0: one key twice with opposite signs, once unsorted
    (2, ((1, (2, 3)), (-1, (3, 2))), True),
    # only zero terms: off-dimension, unstable, negative exponent, negative genus
    (1, ((1, (1, 2)), (3, (0,)), (-2, (-1, 3)), (1, ())), True),
    (-1, ((1, (0, 0, 0)),), True),
    # a genus-0 key whose sigma value is 3^5 * 2^3, so its exponent is
    # negative, beside <tau_0^3>_0, an unstable key, a negative exponent and
    # an off-dimension key
    (0, ((1, (0, 0, 0, 1, 1, 1, 1)), (-2, (0, 0, 0)), (5, (0, 0)), (7, (-1, 1, 1, 1)), (1, (0, 0, 1))),
     False),
    # weights of every size and sigma values of every 2-adic order at one genus
    (2, ((1, (2, 3)), (-2, (1, 4)), (3, (0, 5)), (1, (4,)), (-1, (1, 1, 3)), (4, (0, 0, 6)),
         (1, (-2, 7)), (-5, (2, 2, 2))), False),
])
def test_bracket_sum_matches_fraction_sum(genus, terms, vanishes):
    table = BracketTable()
    want = bracket_sum_by_fractions(genus, terms, lambda g, E: bracket(g, E, table))
    got = identities._bracket_sum(genus, terms, BracketTable())
    assert type(got) is Fraction and got == want and (want == 0) == vanishes


@given(genus=st.integers(-1, 3), terms=st.lists(st.tuples(
    st.integers(-3, 3), st.lists(st.integers(-1, 7), max_size=4).map(tuple)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_bracket_sum_matches_fraction_sum_on_random_terms(genus, terms):
    table = BracketTable()
    want = bracket_sum_by_fractions(genus, terms, lambda g, E: bracket(g, E, table))
    assert identities._bracket_sum(genus, terms, table) == want


_BRACKET_SUM_IDS = ("eq3", "eq4", "eq5", "eq6", "eq7", "eq8", "decomp", "c32a", "c32b", "c33a", "c33b")


@pytest.mark.parametrize("ident", _BRACKET_SUM_IDS + ("c34a", "c34b"))
def test_identity_sides_match_fraction_sums(monkeypatch, ident):
    # every report on a small grid is the same when each integer bracket
    # sum of its sides is replaced by one Fraction per bracket
    lim = SweepLimits(g_max=4, n_max=3, k_span=2, rs_max=1)
    fast = list(sweep(ident, lim, BracketTable()))
    calls = []

    def by_fractions(genus, terms, table):
        calls.append(genus)
        return bracket_sum_by_fractions(genus, terms, lambda g, E: bracket(g, E, table))

    monkeypatch.setattr(identities, "_bracket_sum", by_fractions)
    slow = list(sweep(ident, lim, BracketTable()))
    assert fast and [r.params for r in slow] == [r.params for r in fast]
    for a, b in zip(fast, slow):
        assert (a.lhs, a.rhs, a.extra, a.passed) == (b.lhs, b.rhs, b.extra, b.passed), a.params
    # c34's sides are one bracket and a split sum: no bracket sum to compare
    assert bool(calls) == (ident in _BRACKET_SUM_IDS)


def test_sweep_builds_each_report_through_verify_once(monkeypatch):
    # identity evaluation has one entry point, the module's `verify`, looked
    # up on each pull (perfbench times the identity layer there): a sweep
    # yields exactly the reports it returned, one call each, checked=True
    calls = []
    plain = identities.verify

    def counted(*args, **kwargs):
        report = plain(*args, **kwargs)
        calls.append((kwargs["checked"], report))
        return report

    monkeypatch.setattr(identities, "verify", counted)
    for ident in IDENTITY_IDS:
        calls.clear()
        reports = list(sweep(ident, SweepLimits(g_max=3, n_max=2, k_span=1, rs_max=1)))
        assert reports and len(calls) == len(reports), ident
        assert all(checked is True and a is b for (checked, a), b in zip(calls, reports)), ident


def test_split_sum_mirror_sign_on_c35_tuples():
    # C_K(B, A) = (-1)^K C_K(A, B), the rule behind the split loop's A <= B
    # orientation, on every c35a tuple (whose sums vanish) and every c35b
    # tuple (whose sums do not), each side on its own fresh table
    lim = SweepLimits(4, 3, k_span=2)
    tuples = [(p["K"], p["r"], p["s"], p["g"], p["d"]) for p in instances("c35a", lim)]
    tuples += [(identities._k_c35(p["g"], p["m"], p["l"]) - 1, p["r"], p["s"], p["g"], p["d"])
               for p in instances("c35b", lim)]
    assert len(tuples) == 2557 + 844
    forward, backward = BracketTable(), BracketTable()
    nonzero = 0
    for K, r, s, g, d in tuples:
        value = split_sum(K, r, s, g, d, forward)
        assert split_sum(K, s, r, g, d, backward) == (-1) ** K * value, (K, r, s, g, d)
        nonzero += value != 0
    assert nonzero == 844
