from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc.rationals import (
    bernoulli,
    double_factorial,
    factorize,
    format_rational,
    lcm_of_denominators,
    ord_at_prime,
    parse_ratio,
)
from oracles import bernoulli_tangent

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_double_factorial_small():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945
    assert double_factorial(10) == 3840


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_bernoulli_frozen_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_tangent_number_oracle():
    for m in range(2, 42, 2):
        assert bernoulli(m) == bernoulli_tangent(m)


@pytest.mark.parametrize("bad", [0, 1, 3, -2])
def test_bernoulli_rejects_bad_index(bad):
    with pytest.raises(ValueError):
        bernoulli(bad)


def test_ord_at_prime_examples():
    assert ord_at_prime(Fraction(1, 5760), 2) == -7
    assert ord_at_prime(24, 3) == 1
    assert ord_at_prime(Fraction(29, 5760), 5) == -1


def test_ord_at_prime_rejects_zero():
    with pytest.raises(ValueError):
        ord_at_prime(Fraction(0), 2)


def test_lcm_of_denominators():
    assert lcm_of_denominators([]) == 1
    assert lcm_of_denominators([Fraction(1, 24)]) == 24
    assert lcm_of_denominators([Fraction(1, 12), Fraction(1, 24)]) == 24
    assert lcm_of_denominators([Fraction(29, 5760), Fraction(1, 384)]) == 5760
    with pytest.raises(ValueError):
        lcm_of_denominators([Fraction(0)])


def test_factorize():
    assert list(factorize(5760).items()) == [(2, 7), (3, 2), (5, 1)]
    assert factorize(1) == {}


def test_serialization_round_trip():
    for r in [Fraction(29, 5760), Fraction(-7, 3), Fraction(5), Fraction(0)]:
        assert Fraction(*parse_ratio(format_rational(r))) == r
    assert format_rational(Fraction(29, 5760)) == "29/5760"
    assert format_rational(Fraction(5)) == "5"


@given(a=rationals, b=rationals)
@settings(max_examples=100, deadline=None)
def test_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    if b:
        assert (a * b) / b == a


@given(a=rationals, b=rationals, p=st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=100, deadline=None)
def test_valuation_is_additive(a, b, p):
    if a and b:
        assert ord_at_prime(a * b, p) == ord_at_prime(a, p) + ord_at_prime(b, p)
