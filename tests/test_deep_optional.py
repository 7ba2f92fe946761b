"""Opt-in deep sweeps beyond the pinned acceptance ranges.

Enable with TAUCALC_DEEP=1; the module takes about 33 s on a 2-vCPU VM
(CPython 3.11) and peaks near 210 MB: about 17 s checking Witten's KdV
relations with spectator sums up to 12 on a cold table, about 5 s the
two-point rows through genus 300 against the Horner oracle, about 3 s
script-D from psi-brackets against the kappa recursion at genus 8 to 10,
about 0.5 s the memo counts of script-D(10), about 5 s (peak RSS near
45 MB) the denominator block through genus 12, and about 1 s the
two-point monotonicity rows through genus 500.  The standard acceptance
module stays authoritative; this is head-room validation.
"""

import os

import pytest

from taucalc.brackets import BracketTable, _two_point_numerators, bracket_any_genus
from taucalc.combinat import multisets_with_sum
from taucalc.denominators import compute_script_D
from taucalc.identities import VERIFY_TOKENS, verify
from taucalc.monotone import psi_swap_deep
from taucalc.npoint import npoint_series
from taucalc.reduction import kappa_to_psi
from oracles import (
    SCRIPT_D_MEMO_SIZES,
    kdv_relations,
    script_D_by_kappa,
    two_point_numerators_by_horner,
    warm_table_from_series,
)

pytestmark = pytest.mark.skipif(
    not os.environ.get("TAUCALC_DEEP"),
    reason="set TAUCALC_DEEP=1 for the extended sweeps",
)


def test_insertion_identities_through_genus_twenty():
    table = BracketTable()
    for n, g_hi in ((1, 21), (2, 21), (3, 20)):
        warm_table_from_series(npoint_series(n, g_hi), table)
    checked = 0
    for g in range(1, 21):
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
                    report = verify(ident, table=table, g=g, d=d)
                    assert report.passed, (ident, g, d, report.lhs, report.rhs)
                    checked += 1
    assert checked > 150


def test_two_point_rows_match_horner_through_genus_300():
    for g in range(1, 301):
        assert _two_point_numerators(g) == two_point_numerators_by_horner(g), g


def test_two_point_monotonicity_deep():
    report = psi_swap_deep(500)
    assert report.passed and int(report.lhs) == sum((3 * g - 1) // 2 for g in range(1, 501))


@pytest.mark.parametrize("g", [8, 9, 10])
def test_script_D_from_psi_brackets_matches_kappa_route_deep(g):
    table = BracketTable()
    assert compute_script_D(g, table).value == script_D_by_kappa(g, kappa_to_psi)
    assert len(table) == SCRIPT_D_MEMO_SIZES[g]
    assert not table._kappa


def test_script_D_memo_counts_genus_ten():
    table = BracketTable()
    compute_script_D(10, table)
    rows = (len(table._rows), sum(map(len, table._rows.values())))
    assert (len(table), table.hits, table.misses, *rows) == (13196, 59495, 13196, 3009, 9097)


def test_denominator_block_through_genus_twelve():
    # `tau verify c41 --gmax 12`: c41, c42 and c4s for g = 2..12, and c43
    # for each pair g <= h with g + h <= 12
    reports = list(VERIFY_TOKENS["c41"][2](12, 1))
    assert all(r.passed for r in reports), [r.id for r in reports if not r.passed]
    assert len(reports) == 3 * 11 + 49 == 82


def test_kdv_equation_deep():
    # tests/test_brackets.py::test_kdv_equation's relations (sum(X) <= 8)
    # widened to sum(X) <= 12 on a cold table
    table = BracketTable()
    relations, failed = kdv_relations(12, lambda d: bracket_any_genus(d, table))
    assert not failed and relations == 4576
