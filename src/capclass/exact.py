"""Exact arithmetic helpers: rational square roots, quadratic irrationals, valuations.

Everything here is exact. Floating point never enters a comparison; square
roots are kept symbolic (as the rational under the radical) and compared by
squaring, which is valid because all radicands are nonnegative.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

RationalLike = Union[int, Fraction]


def floor_sqrt(q: Fraction) -> int:
    """Largest integer k with k*k <= q, for rational q >= 0; it equals
    isqrt(floor(q)), since k*k <= q iff k*k <= floor(q)."""
    if q < 0:
        raise ValueError("negative radicand")
    return isqrt(q.numerator // q.denominator)


def ceil_sqrt(q: Fraction) -> int:
    """Smallest integer k with k*k >= q, for rational q >= 0."""
    k = floor_sqrt(q)
    return k if Fraction(k * k) == q else k + 1


def rational_sqrt_approx(q: Fraction, bits: int = 96) -> Fraction:
    """floor(sqrt(q) * 2**bits) / 2**bits: at most sqrt(q), with an absolute
    error below 2**-bits (so a q below 4**-bits gives 0)."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = q.numerator * scale * scale
    return Fraction(isqrt(n // q.denominator), scale)


def frac_token(fr: Fraction) -> str:
    """Exact string form of a rational: 'p' when integral, else 'p/q'."""
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def is_rational_square(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    if n < 0:
        return False
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


class SqrtRat:
    """The nonnegative real sqrt(q) for an exact rational q >= 0.

    Closed under multiplication and division and under comparison with
    rationals and other SqrtRat values, which covers every bound check the
    lattice search and the lens geometry need. Rationals embed exactly
    (SqrtRat.of_rational), so size bounds may be rational or quadratic
    irrational without separate code paths.
    """

    __slots__ = ("sq",)

    def __init__(self, square: RationalLike):
        sq = Fraction(square)
        if sq < 0:
            raise ValueError("SqrtRat needs a nonnegative square")
        self.sq = sq

    @classmethod
    def of_rational(cls, value: RationalLike) -> "SqrtRat":
        v = Fraction(value)
        if v < 0:
            raise ValueError("SqrtRat represents nonnegative reals")
        return cls(v * v)

    def is_rational(self) -> bool:
        return is_rational_square(self.sq)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"sqrt({self.sq}) is irrational")
        return Fraction(isqrt(self.sq.numerator), isqrt(self.sq.denominator))

    def __mul__(self, other) -> "SqrtRat":
        if isinstance(other, SqrtRat):
            return SqrtRat(self.sq * other.sq)
        f = Fraction(other)
        if f < 0:
            raise ValueError("negative factor would leave the nonnegative reals")
        return SqrtRat(self.sq * f * f)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SqrtRat":
        if isinstance(other, SqrtRat):
            return SqrtRat(self.sq / other.sq)
        f = Fraction(other)
        if f <= 0:
            raise ValueError("divisor must be positive")
        return SqrtRat(self.sq / (f * f))

    def _cmp(self, other) -> int:
        """Sign of (self - other) against SqrtRat or rational."""
        if isinstance(other, SqrtRat):
            a, b = self.sq, other.sq
            return (a > b) - (a < b)
        f = Fraction(other)
        if f < 0:
            return 0 if (self.sq == 0 and f == 0) else 1
        a, b = self.sq, f * f
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (SqrtRat, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        return hash(("sqrt", self.sq))

    def __float__(self) -> float:
        return float(rational_sqrt_approx(self.sq, 64))

    def __repr__(self) -> str:
        if self.is_rational():
            return f"SqrtRat({self.as_rational()})"
        return f"sqrt({self.sq})"


def compare_sqrt_sum(a: SqrtRat, b: SqrtRat, c: Fraction) -> int:
    """Sign of (sqrt(a.sq) + sqrt(b.sq) - c), exactly."""
    if c < 0:
        return 1
    # sqrt(A) + sqrt(B) vs c  <=>  A + B + 2 sqrt(AB) vs c^2
    A, B = a.sq, b.sq
    lhs = c * c - A - B          # compare 2 sqrt(AB) vs lhs
    if lhs < 0:
        return 1
    t = 4 * A * B
    rhs = lhs * lhs
    return (t > rhs) - (t < rhs)


def compare_sqrt_diff(a: SqrtRat, b: SqrtRat, c: Fraction) -> int:
    """Sign of (sqrt(a.sq) - sqrt(b.sq) - c), exactly (any rational c)."""
    # sqrt(A) vs c + sqrt(B)
    A, B = a.sq, b.sq
    if c >= 0:
        # both sides nonnegative: square once, then once more
        lhs = A - B - c * c      # compare vs 2 c sqrt(B)
        if lhs < 0:
            return -1
        t = lhs * lhs
        rhs = 4 * c * c * B
        return (t > rhs) - (t < rhs)
    # c < 0: flip to sqrt(B) - sqrt(A) vs -c > 0 and negate
    lhs = B - A - c * c
    if lhs < 0:
        return 1
    t = lhs * lhs
    rhs = 4 * c * c * A
    return (t < rhs) - (t > rhs)


class QuadraticNumber:
    """Exact element a + b*sqrt(m) of a real quadratic field, m a positive
    nonsquare rational fixed per computation. Supports subtraction,
    multiplication and exact comparison, which is what the census interval
    endpoints need."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: RationalLike, b: RationalLike, m: RationalLike):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.m = Fraction(m)
        if self.m <= 0:
            raise ValueError("radicand must be positive")

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, QuadraticNumber):
            if other.m != self.m and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands")
            return other
        return QuadraticNumber(Fraction(other), 0, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(self.a - o.a, self.b - o.b, self.m)

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(
            self.a * o.a + self.m * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        """Sign of a + b*sqrt(m), exactly."""
        a, b, m = self.a, self.b, self.m
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 vs b^2 m, sign decided by the larger side
        t, u = a * a, b * b * m
        if t == u:
            return 0
        bigger_rational = t > u
        return (1 if a > 0 else -1) if bigger_rational else (1 if b > 0 else -1)

    def _cmp(self, other) -> int:
        return (self - self._coerce(other)).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (QuadraticNumber, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.m))

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.m}))"


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p(x) for nonzero rational x; raises on x = 0 (valuation infinite)."""
    if x == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# trial division runs to this bound, which covers every d1 below 2**20
_TRIAL_BOUND = 1 << 10
# is_prime is a proof below this bound (Sorenson-Webster), a guess above it
PROVEN_PRIME_BOUND = 3317044064679887385961981
# Pollard rho iterations one prime_factors call may spend
RHO_BUDGET = 1 << 20


class FactoringBudgetExceeded(Exception):
    """prime_factors gave up rather than guess a factorization."""


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| (n != 0), ascending.

    Trial division to _TRIAL_BOUND, then is_prime on what is left and
    Pollard rho with Brent's cycle finding on composites, with RHO_BUDGET
    iterations in all. Raises FactoringBudgetExceeded when the budget runs
    out or a factor is a probable prime of PROVEN_PRIME_BOUND or more.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = []
    for p in (2, 3):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    f = 5
    while f * f <= n and f < _TRIAL_BOUND:
        for p in (f, f + 2):
            if n % p == 0:
                out.append(p)
                while n % p == 0:
                    n //= p
        f += 6
    if f * f > n:
        # no prime factor below f is left, so n is 1 or a prime
        return out + [n] if n > 1 else out
    large, todo, budget = set(), [n], RHO_BUDGET
    while todo:
        m = todo.pop()
        if is_prime(m):
            if m >= PROVEN_PRIME_BOUND:
                raise FactoringBudgetExceeded(
                    f"cannot factor {n}: {m} passes Miller-Rabin but is not "
                    f"below the proven bound {PROVEN_PRIME_BOUND}")
            large.add(m)
            continue
        d, budget = _rho_divisor(m, budget)
        if d is None:
            raise FactoringBudgetExceeded(
                f"cannot factor {n}: Pollard rho budget of {RHO_BUDGET} "
                f"iterations exhausted on {m}")
        todo += [d, m // d]
    return out + sorted(large)


def _rho_divisor(m: int, budget: int) -> tuple:
    """(d, budget left) with d a proper divisor of the composite m, or
    (None, 0) once budget iterations are spent (Brent 1980)."""
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                return None, 0
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                k += 128
                g = gcd(q, m)
            r *= 2
        if g == m:
            # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g, budget
    return None, 0


# witnesses proving primality for every n below PROVEN_PRIME_BOUND
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all inputs below
    PROVEN_PRIME_BOUND (about 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def invmod(a: int, n: int) -> int:
    """Inverse of a modulo n (n >= 1, gcd(a, n) = 1)."""
    g = gcd(a % n if n else a, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    return pow(a, -1, n)

