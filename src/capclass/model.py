"""Problem instances and the Minkowski-style feasibility gate.

An instance fixes a congruence x + t*y + a = 0 (mod n) over the rationals
together with size bounds X, Y at the archimedean place. Bounds are exact:
rational or square roots of rationals (SqrtRat), so the census scale
X = Y = c*sqrt(p) needs no floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import SqrtRat, frac_token, rational_sqrt_approx


def _as_bound(value) -> SqrtRat:
    if isinstance(value, SqrtRat):
        return value
    return SqrtRat.of_rational(Fraction(value))


@dataclass(frozen=True)
class CongruenceInstance:
    """x + t*y + a = 0 (mod n) with |x| <= X, |y| <= Y at the real place.

    t and a are stored as least nonnegative residues; t must be a unit mod n.
    """

    n: int
    t: int
    a: int
    X: SqrtRat
    Y: SqrtRat

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "t", self.t % self.n)
        object.__setattr__(self, "a", self.a % self.n)
        if gcd(self.t, self.n) != 1:
            raise ValueError(f"t = {self.t} is not a unit mod {self.n}")
        object.__setattr__(self, "X", _as_bound(self.X))
        object.__setattr__(self, "Y", _as_bound(self.Y))
        if not self.X > 0:
            raise ValueError("X must be positive")
        if not self.Y > Fraction(1, 3):
            raise ValueError("Y must exceed 1/3")

    def to_json(self) -> dict:
        return {
            "n": str(self.n),
            "t": str(self.t),
            "a": str(self.a),
            "X": bound_token(self.X),
            "Y": bound_token(self.Y),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CongruenceInstance":
        """Inverse of to_json; keys other than n, t, a, X, Y are ignored."""
        return cls(
            n=_json_int(obj, "n"),
            t=_json_int(obj, "t"),
            a=_json_int(obj, "a"),
            X=parse_bound(obj["X"]),
            Y=parse_bound(obj["Y"]),
        )


def _json_int(obj: dict, key: str) -> int:
    """obj[key] as an int: a JSON integer (not a bool) or an integer string;
    a float is refused rather than truncated."""
    value = obj[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def bound_token(b: SqrtRat) -> str:
    """Serialize a bound: plain 'p/q' when rational, else 'sqrt(p/q)'."""
    if b.is_rational():
        return frac_token(b.as_rational())
    return f"sqrt({frac_token(b.sq)})"


def parse_bound(token) -> SqrtRat:
    if isinstance(token, SqrtRat):
        return token
    s = str(token).strip()
    if s.startswith("sqrt(") and s.endswith(")"):
        return SqrtRat(Fraction(s[5:-1]))
    return SqrtRat.of_rational(Fraction(s))


def minkowski_threshold(n: int) -> Fraction:
    """The threshold n/27 that X*Y must stay below for an admissible line
    (Minkowski's bound for the rank-3 line lattice of covolume 1/n)."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return Fraction(n, 27)


def feasible(n: int, X: SqrtRat, Y: SqrtRat) -> tuple[bool, Fraction]:
    """Whether X*Y clears the threshold n/27, plus the margin.

    The margin is n/27 - X*Y, exact when X*Y is rational and rounded toward
    zero otherwise (conservative both ways).
    """
    threshold = minkowski_threshold(n)
    product = X * Y
    ok = product < threshold
    if product.is_rational():
        margin = threshold - product.as_rational()
    else:
        # round the subtrahend up so a positive margin is trustworthy
        approx = rational_sqrt_approx(product.sq, 128)
        up = approx + max(approx, Fraction(1)) * Fraction(1, 1 << 100)
        margin = threshold - up
    return ok, margin
