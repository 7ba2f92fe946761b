"""Exact intersection numbers on moduli spaces of stable curves.

A memoized descent recursion computes pure psi-brackets over arbitrary
precision rationals; an n-point generating-function engine reproduces and
deep-checks them; reduction routines handle kappa classes, the top lambda
class and odd Chern characters of the Hodge bundle; and a verification
harness evaluates both sides of a catalogue of identities exactly.
"""

from .brackets import (
    BracketTable,
    bracket,
    cache_load,
    cache_save,
    default_table,
    one_point,
)
from .identities import (
    SweepLimits,
    alt_pair_sum,
    ch_insertion,
    lambda_gg1_bracket,
    split_sum,
    sweep,
    verify,
)
from .npoint import (
    MergedSeries,
    NPointSeries,
    merged_series,
    npoint_series,
)
from .rationals import bernoulli, double_factorial, lcm_of_denominators, ord_at_prime
from .reduction import (
    faber_closed_form,
    kappa_to_psi,
    lambda_g_bracket,
)
from .report import Report

__version__ = "0.1.0"

__all__ = [
    "BracketTable",
    "MergedSeries",
    "NPointSeries",
    "Report",
    "SweepLimits",
    "alt_pair_sum",
    "bernoulli",
    "bracket",
    "cache_load",
    "cache_save",
    "ch_insertion",
    "default_table",
    "double_factorial",
    "faber_closed_form",
    "kappa_to_psi",
    "lambda_g_bracket",
    "lambda_gg1_bracket",
    "lcm_of_denominators",
    "merged_series",
    "npoint_series",
    "one_point",
    "ord_at_prime",
    "split_sum",
    "sweep",
    "verify",
]
