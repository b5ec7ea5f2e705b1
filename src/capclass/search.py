"""Brute-force solution search for x + t*y + a = 0 (mod n) over small boxes.

Everything here is an oracle: exhaustive enumeration with exact arithmetic,
used to cross-check the capacity verdicts and to test the no-smaller-solution
statement for coprime pairs. Nothing is clever; the point is that it cannot
be wrong in the same way the analytic code could be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

from .model import CongruenceInstance
from .rings import Element, SearchRing, RING_Z

# hard cap on the *box* size (pairs of lattice points), not the work actually
# done: a search walks the y-disk once and steps through the prebuilt x-disk
# rows by residue class, so its work is the y-disk plus the hits
MAX_BOX_POINTS = 10**8


class BoxTooLarge(ValueError):
    """Search box exceeds MAX_BOX_POINTS lattice-point pairs."""


def _disk_points_estimate(ring: SearchRing, radius_sq: Fraction) -> float:
    """Rough count of ring elements with |.|^2 <= radius_sq; inf when the
    radius is beyond the float range."""
    try:
        r = math.sqrt(radius_sq) if radius_sq > 0 else 0.0
    except OverflowError:
        return math.inf
    if ring.b == 0 and ring.c == 0:
        return 2.0 * r + 1.0
    covol = math.sqrt(float(Fraction(4 * ring.c - ring.b * ring.b, 4)))
    return math.pi * r * r / covol + 4.0 * r + 1.0


def box_points_estimate(ring: SearchRing, x_radius_sq: Fraction,
                        y_radius_sq: Fraction) -> float:
    return (_disk_points_estimate(ring, Fraction(x_radius_sq))
            * _disk_points_estimate(ring, Fraction(y_radius_sq)))


def _guard_box(ring: SearchRing, x_radius_sq: Fraction,
               y_radius_sq: Fraction) -> None:
    estimate = box_points_estimate(ring, x_radius_sq, y_radius_sq)
    if estimate > MAX_BOX_POINTS:
        raise BoxTooLarge(
            f"search box has ~{estimate:.3g} point pairs in {ring.name} "
            f"(limit {MAX_BOX_POINTS:.0e})")


def _congruent_pairs(ring: SearchRing, n: int, t: int, a: int,
                     x_radius_sq: Fraction,
                     y_radius_sq: Fraction) -> Iterator[Tuple[Element, Element]]:
    """All (x, y) in the closed box with x + t*y + a = 0 mod n (both
    coordinates of the congruence, since n acts diagonally on the ring)."""
    x_rows = ring.disk_rows(x_radius_sq)
    for y in ring.elements_in_disk(y_radius_sq):
        yu, yv = y
        for x in ring.elements_in_disk_congruent(x_rows, n,
                                                 (-t * yu - a, -t * yv)):
            yield x, y


def enumerate_solutions(instance: CongruenceInstance,
                        ring: SearchRing = RING_Z) -> List[Tuple[Element, Element]]:
    """Every ring pair (x, y) with x + t*y + a = 0 mod n, |x| <= X, |y| <= Y.

    Deterministic order (sorted tuples). Raises BoxTooLarge when the box
    holds more than MAX_BOX_POINTS pairs.
    """
    x_rs, y_rs = instance.X.sq, instance.Y.sq
    _guard_box(ring, x_rs, y_rs)
    pairs = list(_congruent_pairs(ring, instance.n, instance.t, instance.a,
                                  x_rs, y_rs))
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class SolutionCount:
    raw: int      # all solutions in the closed box
    nonzero: int  # excluding (0, 0), which solves every homogeneous instance

    def to_json(self) -> dict:
        return {"raw": self.raw, "nonzero": self.nonzero}


def count_solutions(t: int, a: int, n: int, X, Y,
                    ring: SearchRing = RING_Z) -> SolutionCount:
    """N(t, a, n, X, Y): number of box solutions, with the zero pair broken
    out so homogeneous instances can report the interesting count."""
    instance = CongruenceInstance(n=n, t=t, a=a, X=X, Y=Y)
    pairs = enumerate_solutions(instance, ring)
    zero = ((0, 0), (0, 0)) in pairs
    return SolutionCount(raw=len(pairs), nonzero=len(pairs) - (1 if zero else 0))


@dataclass(frozen=True)
class ObstructionInstance:
    """A known solution (x0, y0) of x + t*y = 0 mod n that is small and
    coprime: |x0*y0| <= n/2 and x0, y0, n pairwise coprime in the ring.

    Under these hypotheses no nonzero solution fits in the closed box
    |x| <= |x0|, |y| <= |y0| with either inequality strict; check_obstruction
    verifies that by exhaustion.
    """

    n: int
    t: int
    x0: Element
    y0: Element
    ring: SearchRing = RING_Z

    def __post_init__(self):
        ring = self.ring
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if math.gcd(self.t, self.n) != 1:
            raise ValueError("t must be invertible mod n")
        if ring.is_zero(self.x0) or ring.is_zero(self.y0):
            raise ValueError("x0 and y0 must be nonzero")
        lhs = ring.add(self.x0, ring.scale(self.t, self.y0))
        if lhs[0] % self.n != 0 or lhs[1] % self.n != 0:
            raise ValueError("x0 + t*y0 is not divisible by n")
        # |x0*y0| <= n/2 at the (single) infinite place, squared to stay exact
        if 4 * ring.norm(self.x0) * ring.norm(self.y0) > self.n * self.n:
            raise ValueError("|x0*y0| exceeds n/2")
        n_elt = ring.embed_int(self.n)
        for u, v, label in ((self.x0, self.y0, "x0, y0"),
                            (self.x0, n_elt, "x0, n"),
                            (self.y0, n_elt, "y0, n")):
            if not ring.coprime(u, v):
                raise ValueError(f"{label} must be coprime in {ring.name}")

    def to_json(self) -> dict:
        return {"n": self.n, "t": self.t, "ring": self.ring.name,
                "x0": list(self.x0), "y0": list(self.y0)}


def smaller_solutions(obs: ObstructionInstance) -> List[Tuple[Element, Element]]:
    """Nonzero box solutions strictly smaller than (x0, y0) in at least one
    coordinate. Expected empty; returned (not just counted) so a violation
    names its witness."""
    ring = obs.ring
    nx0 = Fraction(ring.norm(obs.x0))
    ny0 = Fraction(ring.norm(obs.y0))
    _guard_box(ring, nx0, ny0)
    found = []
    for x, y in _congruent_pairs(ring, obs.n, obs.t, 0, nx0, ny0):
        if ring.is_zero(x) and ring.is_zero(y):
            continue
        if ring.norm(x) < nx0 or ring.norm(y) < ny0:
            found.append((x, y))
    found.sort()
    return found


def check_obstruction(obs: ObstructionInstance) -> bool:
    """True iff exhaustive search finds no smaller nonzero solution."""
    return not smaller_solutions(obs)
