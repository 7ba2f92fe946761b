"""Each public function rejects the arguments outside its domain with the
exception and message it documents, and the total functions read 0 there."""

import re
from fractions import Fraction

import pytest

from taucalc.denominators import (
    compute_D,
    conjecture41_check,
    divisibility_check,
    s_g_lower_bounds,
    threshold_check,
)
from taucalc.identities import ParameterError, alt_pair_sum, ch_insertion, split_sum, verify
from taucalc.monotone import (
    bounds_check,
    kappa_swap_check,
    lambda_g_swap_check,
    psi_floor_check,
    psi_swap_check,
)
from taucalc.npoint import merged_series, npoint_series
from taucalc.rationals import factorize, ord_at_prime
from taucalc.reduction import faber_closed_form, faber_kappa_value, kappa_to_psi, lambda_g_bracket

_STABILITY = "needs g >= 1 and stability, got g=0, n=3"


@pytest.mark.parametrize("call, exc, message", [
    (lambda: compute_D(3, -1), ValueError, "the number of points must be nonnegative, got n=-1"),
    (lambda: conjecture41_check(1), ValueError, "needs genus >= 2"),
    (lambda: threshold_check(1), ValueError, "needs genus >= 2"),
    (lambda: s_g_lower_bounds(1), ValueError, "needs genus >= 2"),
    (lambda: divisibility_check(-1, 2), ValueError, "need g, h >= 0"),
    (lambda: psi_swap_check(0, 2), ValueError, "unstable: g=0, n=2"),
    (lambda: kappa_swap_check(1, 0), ValueError, "unstable: g=1, n=0"),
    (lambda: lambda_g_swap_check(0, 3), ValueError, _STABILITY),
    (lambda: bounds_check(0, 3), ValueError, _STABILITY),
    (lambda: psi_floor_check(0, 3), ValueError, _STABILITY),
    (lambda: npoint_series(0, 2), ValueError, "need n >= 1 and g_max >= 0"),
    (lambda: npoint_series(2, -1), ValueError, "need n >= 1 and g_max >= 0"),
    (lambda: npoint_series(2, 3).stratum(4), ValueError, "genus 4 exceeds tracked degree 8"),
    (lambda: merged_series(0, 2), ValueError, "need at least one spectator variable"),
    (lambda: merged_series(1, 2).coefficient(9, (0,)), ValueError,
     "requested coefficient beyond the tracked degree"),
    (lambda: alt_pair_sum(-1, 1, (1,)), ParameterError, "K must be nonnegative"),
    (lambda: split_sum(-1, (), (), 1, (1,)), ParameterError, "K must be nonnegative"),
    (lambda: ch_insertion(2, 0, (1,)), ValueError, "the Chern character index 2k-1 needs k >= 1"),
    (lambda: faber_closed_form(2, (0, 0, 3)), ValueError,
     "the closed form needs every exponent >= 1, got (0, 0, 3)"),
    (lambda: faber_kappa_value(1), ValueError, "kappa_(g-2) needs genus >= 2, got g=1"),
    (lambda: faber_kappa_value(0), ValueError, "kappa_(g-2) needs genus >= 2, got g=0"),
    (lambda: verify("eq4", g=1, e=(1,)), ParameterError, "eq4 takes the parameters g, d"),
    (lambda: ord_at_prime(3, 1), ValueError, "not a prime: 1"),
    (lambda: factorize(0), ValueError, "expected a positive integer, got 0"),
])
def test_out_of_domain_call_raises(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ch_insertion(2, 1, (-1, 3)),
    lambda: kappa_to_psi(1, (-1,), (2,)),
    lambda: lambda_g_bracket(2, (5,)),
    lambda: faber_closed_form(3, ()),
    lambda: faber_closed_form(2, (1, 2)),
])
def test_total_function_reads_zero_off_its_domain(call):
    assert call() == Fraction(0)
