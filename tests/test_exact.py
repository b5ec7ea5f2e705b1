import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from capclass import exact
from capclass.exact import (FactoringBudgetExceeded, QuadraticNumber, SqrtRat, ceil_sqrt,
                            compare_sqrt_diff, compare_sqrt_sum, floor_sqrt,
                            invmod, is_prime, padic_valuation, prime_factors,
                            rational_sqrt_approx)

fractions_st = st.fractions(min_value=0, max_value=10**6, max_denominator=997)


@given(fractions_st)
def test_floor_ceil_sqrt_definition(q):
    f = floor_sqrt(q)
    assert f * f <= q < (f + 1) * (f + 1)
    c = ceil_sqrt(q)
    assert (c - 1) * (c - 1) < q <= c * c or (q == 0 and c == 0)


def test_rational_sqrt_approx_accuracy():
    q = Fraction(2)
    approx = rational_sqrt_approx(q, 80)
    assert abs(approx * approx - 2) < Fraction(1, 2**70)
    # the error is absolute: a radicand below 4**-bits rounds to 0
    assert rational_sqrt_approx(Fraction(1, 10**60), 96) == 0


@given(st.fractions(min_value=0, max_value=10**40), st.integers(0, 200))
def test_rational_sqrt_approx_absolute_error(q, bits):
    approx = rational_sqrt_approx(q, bits)
    step = Fraction(1, 2**bits)
    assert approx * approx <= q < (approx + step) ** 2


def test_sqrtrat_ordering_and_arithmetic():
    r2 = SqrtRat(2)
    r8 = SqrtRat(8)
    assert r2 * r2 == SqrtRat.of_rational(2)
    assert r2 * SqrtRat(2) == SqrtRat(4)
    assert r8 / r2 == SqrtRat.of_rational(2)
    assert r2 < Fraction(3, 2) and r2 > Fraction(7, 5)
    assert SqrtRat(Fraction(9, 4)).as_rational() == Fraction(3, 2)
    assert not SqrtRat(3).is_rational()
    with pytest.raises(ValueError):
        SqrtRat(-1)


@given(st.fractions(min_value=0, max_value=50, max_denominator=32),
       st.fractions(min_value=0, max_value=50, max_denominator=32),
       st.fractions(min_value=-20, max_value=20, max_denominator=32))
def test_compare_sqrt_matches_float(a, b, c):
    lhs = math.sqrt(a) + math.sqrt(b) - c
    got = compare_sqrt_sum(SqrtRat(a), SqrtRat(b), c)
    if abs(lhs) > 1e-9:  # stay clear of float ties
        assert got == (1 if lhs > 0 else -1)
    lhs = math.sqrt(a) - math.sqrt(b) - c
    got = compare_sqrt_diff(SqrtRat(a), SqrtRat(b), c)
    if abs(lhs) > 1e-9:
        assert got == (1 if lhs > 0 else -1)


def test_compare_sqrt_exact_ties():
    one = Fraction(1)
    assert compare_sqrt_sum(SqrtRat(Fraction(1, 4)), SqrtRat(Fraction(1, 4)), one) == 0
    assert compare_sqrt_diff(SqrtRat(4), SqrtRat(1), one) == 0


def test_quadratic_number_ordering():
    # golden-ratio flavored checks around sqrt(5)
    x = QuadraticNumber(0, 1, 5)       # sqrt 5
    assert QuadraticNumber(2, 0, 5) < x < QuadraticNumber(Fraction(9, 4), 0, 5)
    y = QuadraticNumber(1, Fraction(1, 2), 5)
    assert y * 2 == QuadraticNumber(2, 1, 5)
    assert (x * x) == QuadraticNumber(5, 0, 5)
    assert x - x == QuadraticNumber(0, 0, 5)
    # conjugate-sensitive comparison: 7/5 sqrt(5) vs 3 + tiny
    assert QuadraticNumber(0, Fraction(7, 5), 5) > QuadraticNumber(3, 0, 5)


def test_padic_valuation():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(5, 8), 2) == -3
    assert padic_valuation(Fraction(7), 3) == 0
    with pytest.raises(ValueError):
        padic_valuation(Fraction(0), 2)


def test_prime_factors_and_invmod():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert prime_factors(-14) == [2, 7]
    assert invmod(3, 101) == 34
    with pytest.raises(ValueError):
        invmod(4, 12)


def _trial_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


# primes just past the trial-division bound: their products below 1e7 go
# through is_prime and Pollard rho
_MID_PRIMES = [p for p in range(1025, 3163) if is_prime(p)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(1, 10**7 - 1),
                 st.builds(lambda p, q, m: p * q * m,
                           st.sampled_from(_MID_PRIMES),
                           st.sampled_from(_MID_PRIMES),
                           st.integers(1, 9))))
def test_prime_factors_matches_trial_division(n):
    assert prime_factors(n) == _trial_factors(n)


def test_prime_factors_splits_large_semiprimes():
    p, q = 10000000019, 10000000033
    assert is_prime(p) and is_prime(q)
    assert prime_factors(p * q) == [p, q]
    assert prime_factors(-12 * p * q * q) == [2, 3, p, q]
    # d1 of the 40-digit analyze instance: a prime cofactor near 2e17
    assert prime_factors(11027354260824491315) == [5, 11, 200497350196808933]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_refuses_rather_than_guess(monkeypatch):
    # a probable prime past the proven Miller-Rabin bound
    with pytest.raises(FactoringBudgetExceeded, match="proven bound"):
        prime_factors(3 * (2**89 - 1))
    monkeypatch.setattr(exact, "RHO_BUDGET", 1000)
    with pytest.raises(FactoringBudgetExceeded, match="rho budget of 1000"):
        prime_factors(10000000019 * 10000000033)
    assert prime_factors(1031 * 1033) == [1031, 1033]


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(0, 2000):
        assert is_prime(n) == trial(n), n
    assert is_prime(10007)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417
