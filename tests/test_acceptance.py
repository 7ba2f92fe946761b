"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line
per criterion.  A shared bracket table accumulates across criteria, as a
production run would.
"""

import time
from fractions import Fraction
from math import factorial

from taucalc.brackets import BracketTable, bracket, cache_load, one_point
from taucalc.combinat import multisets_with_sum
from taucalc.denominators import (
    compute_D,
    compute_script_D,
    conjectured_orders,
    divisibility_check,
    witness_search,
)
from taucalc.identities import (
    SweepLimits,
    lambda_gg1_bracket,
    n1_expected,
    n1_sum_reports,
    sweep,
    verify,
)
from taucalc.monotone import (
    bounds_check,
    lambda_g_swap_check,
    psi_floor_check,
    psi_swap_check,
    psi_swap_deep,
)
from taucalc.npoint import merged_series, npoint_series
from taucalc.rationals import odd_double_factorial
from taucalc.reduction import faber_closed_form, faber_kappa_value
from taucalc.report import reports_to_json
from oracles import cache_dumps, warm_table_from_series

TABLE = BracketTable()


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_base_values():
    start = time.perf_counter()
    ok = bracket(0, (0, 0, 0), TABLE) == 1
    ok = ok and bracket(1, (1,), TABLE) == Fraction(1, 24)
    for g in range(1, 9):
        want = Fraction(1, 24**g * factorial(g))
        ok = ok and one_point(g) == want == bracket(g, (3 * g - 2,), TABLE)
    elapsed = time.perf_counter() - start
    _verdict(1, ok and elapsed < 1.0,
             f"base values through genus 8 in {elapsed:.2f}s (< 1s)")


def test_criterion_02_eq4_sweep():
    reports = list(sweep("eq4", SweepLimits(g_max=6, n_max=4)))
    ok = bool(reports) and all(r.passed for r in reports)
    _verdict(2, ok, f"eq4 exact on all {len(reports)} admissible (g, d), g <= 6, n <= 4")


def test_criterion_03_eq6_vanishing():
    reports = list(sweep("eq6", SweepLimits(g_max=5, n_max=4, k_span=4)))
    ok = bool(reports) and all(r.passed for r in reports)
    _verdict(3, ok, f"eq6 alternating sums vanish on {len(reports)} tuples, g <= 5, K <= g+4, n <= 4")


def test_criterion_04_eq5_eq8_with_deep_slice():
    lim = SweepLimits(g_max=6, n_max=4)
    shallow = list(sweep("eq5", lim)) + list(sweep("eq8", lim))
    deep_table = BracketTable()
    for n, g_hi in ((1, 13), (2, 13), (3, 12)):
        warm_table_from_series(npoint_series(n, g_hi), deep_table)
    deep = []
    for g in range(1, 13):
        for ident, min_part, total_for in (
            ("eq5", 0, lambda n, g=g: g + n - 2),
            ("eq8", 1, lambda n, g=g: g + n),
        ):
            if ident == "eq8" and g < 2:
                continue
            for n in (1, 2):
                total = total_for(n)
                if total < n * min_part:
                    continue
                for d in multisets_with_sum(n, total, min_part):
                    deep.append(verify(ident, table=deep_table, g=g, d=d))
    ok = all(r.passed for r in shallow) and all(r.passed for r in deep)
    _verdict(4, ok and bool(deep),
             f"eq5/eq8: {len(shallow)} instances g <= 6 n <= 4 plus {len(deep)} deep (g <= 12, n <= 2)")


def test_criterion_05_eq7_sweep():
    reports = list(sweep("eq7", SweepLimits(g_max=4, n_max=3, k_span=3)))
    ok = bool(reports) and all(r.passed for r in reports)
    _verdict(5, ok, f"eq7 exact on {len(reports)} tuples, g <= 4, K <= g+3, n <= 3")


def test_criterion_06_one_point_proof_sums():
    start = time.perf_counter()
    ok = True
    for g in range(1, 11):
        ok = ok and tuple(r.lhs for r in n1_sum_reports(g, TABLE)) == n1_expected(g)
    elapsed = time.perf_counter() - start
    _verdict(6, ok, f"one-point proof sums match their formulas for g <= 10 ({elapsed:.1f}s)")


def test_criterion_07_npoint_oracle_equivalence():
    ok = True
    count = 0
    for n in (1, 2, 3, 4):
        g_hi = (15 + 3 - n) // 3
        series = npoint_series(n, g_hi)  # any inexact division aborts inside
        for g in range(0, g_hi + 1):
            total = 3 * g - 3 + n
            if total < 0 or total > 15:
                continue
            for d in multisets_with_sum(n, total):
                ok = ok and series.bracket(d) == bracket(g, d, TABLE)
                count += 1
    # stated divisibility range: the generic path with r <= 6
    npoint_series(3, 6)
    npoint_series(4, 6)
    _verdict(7, ok, f"n-point F matches the recursion on {count} coefficients (n <= 4, deg <= 15); all divisions exact")


def test_criterion_08_merged_series():
    ok = True
    formula_count = vanish_count = 0
    for n in (1, 2, 3):
        m = merged_series(n, 4)
        for g in range(0, 5):
            for d in multisets_with_sum(n, g - 1 + n, min_part=1):
                den = 4**g * factorial(2 * g + 1)
                for x in d:
                    den *= odd_double_factorial(x - 1)
                ok = ok and m.coefficient(g, d) == Fraction(factorial(2 * g + n - 1), den)
                formula_count += 1
            for K in range(g + 1, g + 4):
                total = 3 * g - 1 + n - 2 * K
                if total < 0 or 2 * K + total > m.degree_cap:
                    continue
                for d in multisets_with_sum(n, total):
                    ok = ok and m.coefficient(K, d) == 0
                    vanish_count += 1
    _verdict(8, ok and formula_count and vanish_count,
             f"merged series: {formula_count} closed-form coefficients and {vanish_count} vanishing ones (g <= 4, n <= 3, K <= g+3)")


def test_criterion_09_faber_chain():
    ok = True
    count = 0
    for g in range(2, 6):
        for n in range(1, 5):
            for d in multisets_with_sum(n, g - 2 + n, min_part=1):
                ok = ok and lambda_gg1_bracket(g, d, TABLE) == faber_closed_form(g, d)
                count += 1
    kappa_ok = (
        faber_kappa_value(2) == Fraction(1, 2880) == lambda_gg1_bracket(2, (1,), TABLE)
    )
    _verdict(9, ok and kappa_ok,
             f"lambda_g lambda_(g-1) chain: {count} instances g <= 5 agree; kappa form = 1/2880 at g = 2")


def test_criterion_10_section3_conjectures():
    lim = SweepLimits(g_max=4, n_max=3, k_span=3, rs_max=2)
    ok = True
    total = 0
    for ident in ("c32a", "c32b", "c33a", "c33b", "c34a", "c34b", "c35a", "c35b"):
        reports = list(sweep(ident, lim))
        ok = ok and bool(reports) and all(r.passed for r in reports)
        total += len(reports)
    _verdict(10, ok, f"c32-c35 pass on the gated grid ({total} instances)")


def test_criterion_11_denominators():
    ok = compute_D(1, 1, TABLE).value == 24
    p2 = compute_script_D(2, TABLE)
    ok = ok and p2.value == 5760
    ok = ok and p2.factors == conjectured_orders(2) == {2: 7, 3: 2, 5: 1}
    p3 = compute_script_D(3, TABLE)
    ok = ok and p3.factors == {2: 10, 3: 4, 5: 1, 7: 1}
    found, predicted, _ = witness_search(2, 5, TABLE)
    ok = ok and found == predicted == (2, 3)
    for g in range(0, 5):
        for h in range(0, 5 - g):
            ok = ok and divisibility_check(g, h, TABLE)
    _verdict(11, ok, "denominator profiles, witness search and product divisibility (g+h <= 4, script-D(4) included)")


def test_criterion_12_monotonicity():
    ok = True
    for g in range(0, 7):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0 or 3 * g - 3 + n < 0:
                continue
            ok = ok and psi_swap_check(g, n, TABLE).passed
    deep = psi_swap_deep(50)
    ok = ok and deep.passed
    for g in range(1, 9):
        for n in range(1, 5):
            if 2 * g - 3 + n < 0:
                continue
            ok = ok and lambda_g_swap_check(g, n).passed
    for g, n in ((1, 1), (1, 2), (2, 0), (2, 1), (3, 0)):
        ok = ok and bounds_check(g, n, TABLE).passed
        if n >= 1:
            ok = ok and psi_floor_check(g, n, TABLE).passed
    tight = bracket(1, (1,), TABLE) == Fraction(1, 24)
    _verdict(12, ok and tight,
             f"monotonicity: psi swaps g <= 6 n <= 4, deep 2-point g <= 50 ({int(deep.lhs)} comparisons), multinomial g <= 8, bounds with the (1,1) floor tight")


def test_criterion_13_infrastructure():
    # lossless cache round trip
    text = cache_dumps(TABLE)
    ok = cache_dumps(cache_load_from_text(text)) == text
    # cold vs warm bit-for-bit
    cold = BracketTable()
    keys = [(3, (2, 3, 4)), (2, (2, 3)), (4, (1, 4, 8))]
    ok = ok and all(bracket(g, d, cold) == bracket(g, d, TABLE) for g, d in keys)
    # sweeps deterministic across repeated runs: cold and warm on a fresh
    # table, then on the shared one
    lim = SweepLimits(g_max=2, n_max=2)
    fresh = BracketTable()
    one = reports_to_json(list(sweep("eq4", lim, table=fresh)), timing=False)
    two = reports_to_json(list(sweep("eq4", lim, table=fresh)), timing=False)
    three = reports_to_json(list(sweep("eq4", lim, table=TABLE)), timing=False)
    ok = ok and one == two == three
    _verdict(13, ok, "cache round trip lossless, cold == warm, sweeps deterministic across runs")


def cache_load_from_text(text: str):
    import io

    return cache_load(io.StringIO(text))
