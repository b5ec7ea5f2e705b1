"""Construction of the first auxiliary line by exact lattice search.

A line (d1*x + d2*y + d3)/n qualifies when d1 != 0, d2 = t*d1 and
d3 = a*d1 (mod n), and the coefficients clear the instance's box
|d1| < n/(3X), |d2| < n/(3Y), |d3| < n/3. The integer vectors satisfying the
congruences form the lattice spanned by (1, t, a), (0, n, 0), (0, 0, n).
Under the inner product sum(e_k*f_k / R_k^2), with R_k the box radii, the box
lies inside the ball of squared radius 3. Scaled by n^2*D/9, with D the lcm
of the denominators of X^2 and Y^2, that inner product has the integer
weights D*(X^2, Y^2, 1) and the ball has squared radius n^2*D/3.

The search LLL-reduces the basis (r0, r1, r2) under the integer weights and
walks the (z2, z3) projection of the ball. For fixed (z2, z3) the vectors
z1*r0 + z2*r1 + z3*r2 inside the box form one integer interval of z1, and
the smallest of them sits at an endpoint, so the innermost coordinate is
solved in closed form and only a running minimum is kept. Floating point is
never consulted, so results are reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from .exact import ceil_sqrt, floor_sqrt
from .model import CongruenceInstance

LLL_DELTA = Fraction(99, 100)
_MAX_NODES = 5_000_000


class LineNotFound(Exception):
    """The box contains no nonzero lattice vector."""


class SearchSpaceTooLarge(Exception):
    """The box/lattice geometry would force an enumeration beyond the node cap."""


@dataclass(frozen=True)
class AuxiliaryLine:
    """Line (d1*x + d2*y + d3)/n with d1 > 0.

    The smallest in-box vector is primitive in the lattice: dividing it by a
    common factor would give a smaller in-box lattice vector.
    """

    d1: int
    d2: int
    d3: int
    n: int

    @property
    def b1(self) -> Fraction:
        return Fraction(self.d1, self.n)

    @property
    def b2(self) -> Fraction:
        return Fraction(self.d2, self.n)

    @property
    def b3(self) -> Fraction:
        return Fraction(self.d3, self.n)

    def evaluate(self, x, y) -> Fraction:
        return self.b1 * Fraction(x) + self.b2 * Fraction(y) + self.b3

    def to_json(self) -> dict:
        return {"d1": str(self.d1), "d2": str(self.d2), "d3": str(self.d3),
                "n": str(self.n)}

    @classmethod
    def from_json(cls, obj: dict) -> "AuxiliaryLine":
        return cls(d1=int(obj["d1"]), d2=int(obj["d2"]), d3=int(obj["d3"]),
                   n=int(obj["n"]))


def build_lattice(instance: CongruenceInstance) -> list[tuple[int, int, int]]:
    """Integer basis of the line vectors; determinant n^2."""
    n, t, a = instance.n, instance.t, instance.a
    return [(1, t, a), (0, n, 0), (0, 0, n)]


def _box_limits(instance: CongruenceInstance) -> tuple[int, int, int]:
    """Largest integers L_k < R_k for the box radii R = (n/(3X), n/(3Y), n/3),
    so |e_k| < R_k iff |e_k| <= L_k."""
    third_sq = Fraction(instance.n * instance.n, 9)
    radii_sq = (third_sq / instance.X.sq, third_sq / instance.Y.sq, third_sq)
    return tuple(ceil_sqrt(r) - 1 for r in radii_sq)


def _gram_schmidt(basis, weights):
    """Exact Gram-Schmidt under sum(u_k*v_k*weights_k), from the Gram matrix:
    mu and squared norms."""
    gram = [[sum(w * x * y for w, x, y in zip(weights, u, v)) for v in basis]
            for u in basis]
    mu, norms = [[Fraction(0)] * 3 for _ in range(3)], []
    for i in range(3):
        for j in range(i):
            if norms[j] == 0:
                raise ValueError("basis is singular")
            mu[i][j] = (gram[i][j] - sum(mu[j][l] * mu[i][l] * norms[l]
                                         for l in range(j))) / norms[j]
        norms.append(Fraction(gram[i][i]) - sum(mu[i][l] ** 2 * norms[l]
                                                for l in range(i)))
    return mu, norms


def lll_reduce(basis, weights, delta: Fraction = LLL_DELTA):
    """Exact LLL on a rank-3 integer basis under sum(u_k*v_k*weights_k).

    Size reduction leaves the squared norms alone and updates row k of mu in
    place; Gram-Schmidt is recomputed only after a swap.
    """
    b = [list(row) for row in basis]
    mu, norms = _gram_schmidt(b, weights)
    k = 1
    while k < 3:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r != 0:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gram_schmidt(b, weights)
            k = max(k - 1, 1)
    return [tuple(row) for row in b]


def _z1_range(r0, c, limits) -> tuple[int, int]:
    """Integer interval [lo, hi] of z1 with 1 <= e1 <= L1, |e2| <= L2 and
    |e3| <= L3 for e = z1*r0 + c; empty when lo > hi."""
    lows, highs = [], []
    for r, ck, low, high in zip(r0, c, (1, -limits[1], -limits[2]), limits):
        if r < 0:
            r, ck, low, high = -r, -ck, -high, -low
        if r != 0:
            lows.append(-((ck - low) // r))
            highs.append((high - ck) // r)
        elif not low <= ck <= high:
            return 1, 0
    return max(lows), min(highs)


def find_auxiliary_line(instance: CongruenceInstance) -> AuxiliaryLine:
    """Smallest in-box line under (d1, |d2|, |d3|, d2, d3).

    No nonzero in-box vector has e1 = 0: it would need n | e2 with
    |e2| < n/(3Y) < n and n | e3 with |e3| < n/3. The box is symmetric, so
    of each pair +-e only the one with e1 > 0 is searched.
    """
    n = instance.n
    scale = lcm(instance.X.sq.denominator, instance.Y.sq.denominator)
    weights = (int(scale * instance.X.sq), int(scale * instance.Y.sq), scale)
    bound = Fraction(n * n * scale, 3)
    r0, r1, r2 = lll_reduce(build_lattice(instance), weights)
    mu, norms = _gram_schmidt((r0, r1, r2), weights)
    # rough node estimate to refuse hopeless searches
    est = 1.0
    for i in range(3):
        est *= 2.0 * float(bound / norms[i]) ** 0.5 + 1.0
    if est > _MAX_NODES:
        raise SearchSpaceTooLarge(
            f"enumeration would visit about {est:.3g} nodes (cap {_MAX_NODES})")

    # the box lies in the ball, so the (z2, z3) cover below reaches every
    # in-box vector; an extra z2 only yields an empty or in-box interval
    limits = _box_limits(instance)
    best = None
    f3 = floor_sqrt(bound / norms[2])
    for z3 in range(-f3, f3 + 1):
        m = floor(-mu[2][1] * z3)
        f2 = floor_sqrt((bound - z3 * z3 * norms[2]) / norms[1])
        for z2 in range(m - f2, m + f2 + 2):
            c = [z2 * x + z3 * y for x, y in zip(r1, r2)]
            lo, hi = _z1_range(r0, c, limits)
            if lo > hi:
                continue
            # e1 is monotone in z1 when r0[0] != 0; when r0[0] = 0, r0 is a
            # multiple of n in e2 and e3 and the box is narrower than 2n
            # there, so the interval holds at most two points
            for z1 in (lo, hi):
                e1, e2, e3 = (z1 * x + y for x, y in zip(r0, c))
                key = (e1, abs(e2), abs(e3), e2, e3)
                if best is None or key < best:
                    best = key
    if best is None:
        raise LineNotFound(
            f"no nonzero lattice vector in box for n={n}, t={instance.t}, a={instance.a}")
    return AuxiliaryLine(d1=best[0], d2=best[3], d3=best[4], n=n)


def verify_line(line: AuxiliaryLine, instance: CongruenceInstance) -> bool:
    """Exact re-check of the defining properties of an auxiliary line."""
    n, t, a = instance.n, instance.t, instance.a
    if line.n != n or line.d1 == 0:
        return False
    if (line.d2 - t * line.d1) % n or (line.d3 - a * line.d1) % n:
        return False
    l1, l2, l3 = _box_limits(instance)
    return abs(line.d1) <= l1 and abs(line.d2) <= l2 and abs(line.d3) <= l3
