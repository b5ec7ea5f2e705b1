"""Directed-rounding real intervals with exact rational endpoints.

Enclosures are built at a configurable binary precision (env var
CAPCLASS_PRECISION_BITS, default 128): square roots as isqrt enclosures,
and the genuine-lens formula in mpmath's interval context. Results are frozen
into RealInterval values whose endpoints are exact Fractions, so downstream
decisions (compare against 1, serialize, multiply by exact rationals) never
touch floating point.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import to_rational

from .exact import frac_token

DEFAULT_PRECISION_BITS = 128
_ENV_VAR = "CAPCLASS_PRECISION_BITS"


def precision_bits() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if bits < 16:
        raise ValueError(f"{_ENV_VAR} must be at least 16 bits")
    return bits


def iv_context():
    """The shared mpmath interval context, set to the configured precision."""
    ctx = mpmath.iv
    ctx.prec = precision_bits()
    return ctx


def iv_from_fraction(fr: Fraction):
    ctx = iv_context()
    return ctx.mpf(fr.numerator) / ctx.mpf(fr.denominator)


def _endpoint_fraction(point_iv, upper: bool) -> Fraction:
    lo_mpf, hi_mpf = point_iv._mpi_
    return Fraction(*to_rational(hi_mpf if upper else lo_mpf))


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value) -> "RealInterval":
        v = Fraction(value)
        return cls(v, v)

    @classmethod
    def from_iv(cls, x) -> "RealInterval":
        return cls(_endpoint_fraction(x.a, upper=False), _endpoint_fraction(x.b, upper=True))

    def scale(self, factor) -> "RealInterval":
        f = Fraction(factor)
        if f >= 0:
            return RealInterval(self.lo * f, self.hi * f)
        return RealInterval(self.hi * f, self.lo * f)

    def strictly_below(self, value) -> bool:
        return self.hi < Fraction(value)

    def strictly_above(self, value) -> bool:
        return self.lo > Fraction(value)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {"lo": frac_token(self.lo), "hi": frac_token(self.hi)}

    @classmethod
    def from_json(cls, obj: dict) -> "RealInterval":
        return cls(Fraction(obj["lo"]), Fraction(obj["hi"]))

    def __repr__(self):
        return f"[{float(self.lo):.12g}, {float(self.hi):.12g}]"


ZERO_INTERVAL = RealInterval(Fraction(0), Fraction(0))
