"""The adelic constraint set induced by an auxiliary line.

Fixing the line g = b1*x + b2*y + b3, a solution y of the congruence must lie
in a disk at every place: at a finite prime the three membership conditions
(integrality of y, the size condition on b2*y + b3, and the congruence
condition) each cut out an ultrametric disk, the empty set, or everything;
at the real place the conditions cut out the intersection of two disks (a
lens). All finite-place data is exact: centers are rationals and radii are
integer powers of the prime.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exact import SqrtRat, frac_token, padic_valuation, prime_factors
from .lattice import AuxiliaryLine
from .model import CongruenceInstance, bound_token, parse_bound


@dataclass(frozen=True)
class PAdicDisk:
    """Disk |y - center|_p <= p**radius_exp, or the empty set (center None)."""

    prime: int
    center: Optional[Fraction]
    radius_exp: Optional[int]

    @classmethod
    def empty(cls, prime: int) -> "PAdicDisk":
        return cls(prime=prime, center=None, radius_exp=None)

    @property
    def is_empty(self) -> bool:
        return self.center is None

    @property
    def radius(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty disk has no radius")
        p, k = self.prime, self.radius_exp
        return Fraction(p) ** k

    def contains(self, y: Fraction) -> bool:
        if self.is_empty:
            return False
        diff = y - self.center
        if diff == 0:
            return True
        return -padic_valuation(diff, self.prime) <= self.radius_exp

    def same_disk(self, other: "PAdicDisk") -> bool:
        """Set equality of disks (centers may differ by an element of radius)."""
        if self.prime != other.prime:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        if self.radius_exp != other.radius_exp:
            return False
        diff = self.center - other.center
        return diff == 0 or -padic_valuation(diff, self.prime) <= self.radius_exp

    def to_json(self) -> dict:
        if self.is_empty:
            return {"p": self.prime, "empty": True}
        return {"p": self.prime, "center": frac_token(self.center),
                "radius_exp": self.radius_exp}

    @classmethod
    def from_json(cls, obj: dict) -> "PAdicDisk":
        if obj.get("empty"):
            return cls.empty(int(obj["p"]))
        return cls(prime=int(obj["p"]), center=Fraction(obj["center"]),
                   radius_exp=int(obj["radius_exp"]))


# a condition at a finite place: a disk, everything, or nothing
_ALL = "all"
_EMPTY = "empty"
Condition = Union[str, PAdicDisk]


def padic_intersect(a: PAdicDisk, b: PAdicDisk) -> PAdicDisk:
    """Ultrametric intersection: nested or disjoint, never partial."""
    if a.prime != b.prime:
        raise ValueError("different primes")
    if a.is_empty or b.is_empty:
        return PAdicDisk.empty(a.prime)
    small, big = (a, b) if a.radius_exp <= b.radius_exp else (b, a)
    diff = small.center - big.center
    if diff != 0 and -padic_valuation(diff, a.prime) > big.radius_exp:
        return PAdicDisk.empty(a.prime)
    return small


def _abs_exp(x: Fraction, p: int) -> Optional[int]:
    """Integer k with |x|_p = p**k, or None for x = 0 (absolute value 0)."""
    if x == 0:
        return None
    return -padic_valuation(x, p)


def _linear_condition(u: Fraction, v: Fraction, rhs_exp: int, p: int) -> Condition:
    """Solution set of |u*y + v|_p <= p**rhs_exp."""
    if u == 0:
        ve = _abs_exp(v, p)
        return _ALL if ve is None or ve <= rhs_exp else _EMPTY
    return PAdicDisk(prime=p, center=-v / u,
                     radius_exp=rhs_exp - (_abs_exp(u, p) or 0))


def _meet(acc: Condition, cond: Condition, p: int) -> Condition:
    if acc == _EMPTY or cond == _EMPTY:
        return _EMPTY
    if acc == _ALL:
        return cond
    if cond == _ALL:
        return acc
    return padic_intersect(acc, cond)


def local_set_at(instance: CongruenceInstance, line: AuxiliaryLine, p: int) -> PAdicDisk:
    """Exact local constraint disk at the prime p.

    Conditions: |y| <= 1; |b2*y + b3| <= |b1|; and the congruence condition
    |(t - b2/b1)*y + (a - b3/b1)| <= |n|, all at p.
    """
    b1, b2, b3 = line.b1, line.b2, line.b3
    if b1 == 0:
        raise ValueError("line has zero leading coefficient")
    n_exp = -padic_valuation(Fraction(instance.n), p) if instance.n % p == 0 else 0
    acc: Condition = PAdicDisk(prime=p, center=Fraction(0), radius_exp=0)
    b1_exp = _abs_exp(b1, p)
    acc = _meet(acc, _linear_condition(b2, b3, b1_exp, p), p)
    u = Fraction(instance.t) - b2 / b1
    v = Fraction(instance.a) - b3 / b1
    acc = _meet(acc, _linear_condition(u, v, n_exp, p), p)
    if acc == _EMPTY:
        return PAdicDisk.empty(p)
    if acc == _ALL:  # cannot happen: the unit disk is always a factor
        raise AssertionError("unconstrained local set")
    return acc


@dataclass(frozen=True)
class ArchLens:
    """Real-place constraint set: D(0, Y) intersected with D(center, rho).

    center None means the second condition is vacuous (the set is the full
    disk D(0, Y)); empty means the second condition is unsatisfiable.
    """

    Y: SqrtRat
    center: Optional[Fraction]
    rho: Optional[SqrtRat]
    empty: bool = False

    @property
    def kind(self) -> str:
        if self.empty:
            return "empty"
        return "disk" if self.center is None else "lens"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "Y": bound_token(self.Y)}
        if self.kind == "lens":
            out["center"] = frac_token(self.center)
            out["rho"] = bound_token(self.rho)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ArchLens":
        kind = obj["kind"]
        Y = parse_bound(obj["Y"])
        if kind == "empty":
            return cls(Y=Y, center=None, rho=None, empty=True)
        if kind == "disk":
            return cls(Y=Y, center=None, rho=None)
        return cls(Y=Y, center=Fraction(obj["center"]), rho=parse_bound(obj["rho"]))


def arch_set(instance: CongruenceInstance, line: AuxiliaryLine) -> ArchLens:
    """Real-place constraint set {|y| <= Y, |b2*y + b3| <= |b1|*X}."""
    b1, b2, b3 = line.b1, line.b2, line.b3
    if b1 == 0:
        raise ValueError("line has zero leading coefficient")
    if b2 == 0:
        # |b3| <= |b1| X decides everything
        lhs = Fraction(b3 * b3)
        rhs = b1 * b1 * instance.X.sq
        if lhs <= rhs:
            return ArchLens(Y=instance.Y, center=None, rho=None)
        return ArchLens(Y=instance.Y, center=None, rho=None, empty=True)
    center = -b3 / b2
    rho = instance.X * abs(Fraction(b1, 1) / b2)
    return ArchLens(Y=instance.Y, center=center, rho=rho)


@dataclass(frozen=True)
class AdelicSet:
    """Constraint disks at the exceptional primes plus the real-place lens.

    At every prime not listed the local set is the full unit disk D(0, 1),
    which contributes a factor 1 to the capacity product.
    """

    finite: tuple[PAdicDisk, ...]
    arch: ArchLens

    def to_json(self) -> dict:
        return {"finite": [d.to_json() for d in self.finite],
                "arch": self.arch.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "AdelicSet":
        return cls(
            finite=tuple(PAdicDisk.from_json(d) for d in obj["finite"]),
            arch=ArchLens.from_json(obj["arch"]),
        )


def exceptional_primes(line: AuxiliaryLine) -> list[int]:
    """Primes where the local set can differ from D(0, 1): the divisors of d1.

    At p not dividing d1, on D(0, 1): |d2*y + d3|_p <= 1 = |d1|_p, and the
    congruence term ((t*d1 - d2)*y + (a*d1 - d3))/d1 has numerator
    coefficients that are multiples of n over the p-unit d1, so its
    absolute value is at most |n|_p. Both conditions hold on all of D(0, 1).
    Raises FactoringBudgetExceeded when d1 cannot be factored.
    """
    return prime_factors(line.d1)


def assemble(instance: CongruenceInstance, line: AuxiliaryLine) -> AdelicSet:
    primes = exceptional_primes(line)
    return AdelicSet(
        finite=tuple(local_set_at(instance, line, p) for p in primes),
        arch=arch_set(instance, line),
    )
