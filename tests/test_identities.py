import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taucalc.brackets import BracketTable, bracket, cache_dumps
from taucalc.identities import (
    IDENTITY_IDS,
    ParameterError,
    SweepLimits,
    alt_pair_sum,
    decomposition_check,
    instances,
    n1_expected,
    n1_proof_sums,
    n1_sum_reports,
    run_sweep,
    split_sum,
    verify,
)
from taucalc.report import reports_to_json, summary_line


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
    a.clear()
    assert len(a) == 0 and not a._rows
    assert split_sum(*args, a) == value and list(a.items()) == list(b.items())


def test_verify_spec_examples():
    r = verify("eq4", g=1, d=(1,))
    assert r.passed and r.lhs == r.rhs == Fraction(1, 12)
    r = verify("eq5", g=1, d=(0,))
    assert r.passed and r.lhs == 0
    r = verify("eq6", g=0, K=1, d=(0, 0, 0))
    assert r.passed and r.lhs == 0


def test_verify_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="sum"):
        verify("eq4", g=2, d=(1,))
    with pytest.raises(ParameterError, match="K > g"):
        verify("eq6", g=2, K=2, d=(0,))
    with pytest.raises(ParameterError, match="unknown identity"):
        verify("zzz", g=1, d=(1,))
    with pytest.raises(ParameterError, match="d_j >= 1"):
        verify("eq8", g=2, d=(0, 4))


def test_theorem_sweeps_small():
    lim = SweepLimits(g_max=3, n_max=3)
    for ident in ("eq4", "eq6"):
        reports = run_sweep(ident, lim)
        assert reports and all(r.passed for r in reports)


def test_conjecture_sweeps_small():
    lim = SweepLimits(g_max=2, n_max=2, k_span=2, rs_max=1)
    for ident in ("eq5", "eq7", "eq8", "eq3", "c32a", "c32b", "c33a", "c33b",
                  "c34a", "c34b", "c35a", "c35b"):
        reports = run_sweep(ident, lim)
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
        r = decomposition_check(g, d)
        assert r.passed and r.extra["constants_match"], (g, d)
    with pytest.raises(ParameterError):
        decomposition_check(3, (1, 1))


def test_n1_sums():
    assert n1_proof_sums(1) == (Fraction(1, 12), Fraction(1, 12), Fraction(1, 24))
    assert n1_expected(2) == (Fraction(1, 120), Fraction(1, 240), Fraction(1, 1152))
    assert n1_expected(3) == (Fraction(1, 2240), Fraction(1, 6720), Fraction(1, 82944))
    for g in range(1, 7):
        assert all(r.passed for r in n1_sum_reports(g)), g


def test_sweep_is_deterministic_across_jobs():
    lim = SweepLimits(g_max=2, n_max=2)
    one = run_sweep("eq5", lim, jobs=1)
    two = run_sweep("eq5", lim, jobs=2)
    assert reports_to_json(one, timing=False) == reports_to_json(two, timing=False)


def test_report_serialization():
    r = verify("eq4", g=1, d=(1,))
    payload = json.loads(reports_to_json([r], timing=False))
    assert payload == [
        {"id": "eq4", "params": {"g": 1, "d": [1]}, "lhs": "1/12", "rhs": "1/12", "pass": True}
    ]
    assert summary_line([r]) == "PASS 1/1"
    with_timing = json.loads(reports_to_json([r], timing=True))
    assert "ms" in with_timing[0]


def test_instance_enumeration_respects_constraints():
    lim = SweepLimits(g_max=3, n_max=3, k_span=2, rs_max=2)
    for ident in IDENTITY_IDS:
        count = 0
        for params in instances(ident, lim):
            verify(ident, **params)  # must not raise ParameterError
            count += 1
        assert count > 0, ident
