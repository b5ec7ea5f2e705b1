"""Construction of the first auxiliary line by exact lattice search.

A line (d1*x + d2*y + d3)/n qualifies when d1 != 0, d2 = t*d1 and
d3 = a*d1 (mod n), and the coefficients clear the instance's box
|d1| < n/(3X), |d2| < n/(3Y), |d3| < n/3. The integer vectors satisfying the
congruences form the lattice spanned by (1, t, a), (0, n, 0), (0, 0, n).
Under the inner product sum(e_k*f_k / R_k^2), with R_k the box radii, the box
lies inside the ball of squared radius 3. The search LLL-reduces the basis
under that inner product, enumerates every lattice point of the ball exactly
and keeps the integer vectors that pass an integer box test. Floating point
is never consulted, so results are reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ceil_shifted_sqrt, ceil_sqrt, floor_shifted_sqrt
from .model import CongruenceInstance

LLL_DELTA = Fraction(99, 100)
_BALL = 3  # squared radius of the ball covering the box
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


def _box_radii_sq(instance: CongruenceInstance) -> tuple[Fraction, Fraction, Fraction]:
    """R_k^2 for the box |e1| < n/(3X), |e2| < n/(3Y), |e3| < n/3."""
    third_sq = Fraction(instance.n * instance.n, 9)
    return third_sq / instance.X.sq, third_sq / instance.Y.sq, third_sq


def _box_limits(instance: CongruenceInstance) -> tuple[int, int, int]:
    """Largest integers L_k < R_k, so |e_k| < R_k iff |e_k| <= L_k."""
    return tuple(ceil_sqrt(r) - 1 for r in _box_radii_sq(instance))


def _gram_schmidt(basis, weights):
    """Exact Gram-Schmidt under sum(u_k*v_k*weights_k): mu and squared norms."""
    def dot(u, v):
        return u[0] * v[0] * weights[0] + u[1] * v[1] * weights[1] \
            + u[2] * v[2] * weights[2]

    ortho, mu, norms = [], [[Fraction(0)] * 3 for _ in range(3)], []
    for i, b in enumerate(basis):
        w = list(b)
        for j in range(i):
            if norms[j] == 0:
                raise ValueError("basis is singular")
            mu[i][j] = dot(b, ortho[j]) / norms[j]
            for k in range(3):
                w[k] -= mu[i][j] * ortho[j][k]
        ortho.append(w)
        norms.append(dot(w, w))
    return mu, norms


def lll_reduce(basis, weights, delta: Fraction = LLL_DELTA):
    """Exact LLL on a rank-3 integer basis under sum(u_k*v_k*weights_k)."""
    b = [list(row) for row in basis]
    k = 1
    while k < 3:
        mu, norms = _gram_schmidt(b, weights)
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r != 0:
                for c in range(3):
                    b[k][c] -= r * b[j][c]
                mu, norms = _gram_schmidt(b, weights)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return [tuple(row) for row in b]


def _enumerate_ball(basis, weights, bound):
    """All nonzero integer combinations z with ||z . basis||^2 <= bound."""
    mu, norms = _gram_schmidt(basis, weights)
    # rough node estimate to refuse hopeless searches
    est = 1.0
    for i in range(3):
        est *= 2.0 * float(bound / norms[i]) ** 0.5 + 1.0
    if est > _MAX_NODES:
        raise SearchSpaceTooLarge(
            f"enumeration would visit about {est:.3g} nodes (cap {_MAX_NODES})")

    out = []
    for z3 in range(ceil_shifted_sqrt(Fraction(0), bound / norms[2]),
                    floor_shifted_sqrt(Fraction(0), bound / norms[2]) + 1):
        rem2 = bound - z3 * z3 * norms[2]
        if rem2 < 0:
            continue
        c2 = mu[2][1] * z3
        for z2 in range(ceil_shifted_sqrt(-c2, rem2 / norms[1]),
                        floor_shifted_sqrt(-c2, rem2 / norms[1]) + 1):
            t2 = z2 + c2
            rem1 = rem2 - t2 * t2 * norms[1]
            if rem1 < 0:
                continue
            c1 = mu[1][0] * z2 + mu[2][0] * z3
            for z1 in range(ceil_shifted_sqrt(-c1, rem1 / norms[0]),
                            floor_shifted_sqrt(-c1, rem1 / norms[0]) + 1):
                if z1 == 0 and z2 == 0 and z3 == 0:
                    continue
                out.append((z1, z2, z3))
    return out


def enumerate_admissible(instance: CongruenceInstance) -> list[tuple[int, int, int]]:
    """Every lattice vector (e1, e2, e3) in the box with e1 > 0, each once,
    sorted by (e1, |e2|, |e3|, e2, e3).

    No nonzero in-box vector has e1 = 0: it would need n | e2 with
    |e2| < n/(3Y) < n and n | e3 with |e3| < n/3. The ball is symmetric, so
    of each pair +-e exactly the one with e1 > 0 is kept.
    """
    weights = tuple(1 / r for r in _box_radii_sq(instance))
    r0, r1, r2 = lll_reduce(build_lattice(instance), weights)
    l1, l2, l3 = _box_limits(instance)
    found = []
    for z1, z2, z3 in _enumerate_ball((r0, r1, r2), weights, _BALL):
        e1 = z1 * r0[0] + z2 * r1[0] + z3 * r2[0]
        if not 0 < e1 <= l1:
            continue
        e2 = z1 * r0[1] + z2 * r1[1] + z3 * r2[1]
        e3 = z1 * r0[2] + z2 * r1[2] + z3 * r2[2]
        if abs(e2) <= l2 and abs(e3) <= l3:
            found.append((e1, e2, e3))
    return sorted(found, key=lambda e: (e[0], abs(e[1]), abs(e[2]), e[1], e[2]))


def find_auxiliary_line(instance: CongruenceInstance) -> AuxiliaryLine:
    """Smallest in-box line under (d1, |d2|, |d3|, d2, d3)."""
    found = enumerate_admissible(instance)
    if not found:
        raise LineNotFound(
            f"no nonzero lattice vector in box for n={instance.n}, t={instance.t}, a={instance.a}")
    d1, d2, d3 = found[0]
    return AuxiliaryLine(d1=d1, d2=d2, d3=d3, n=instance.n)


def verify_line(line: AuxiliaryLine, instance: CongruenceInstance) -> bool:
    """Exact re-check of the defining properties of an auxiliary line."""
    n, t, a = instance.n, instance.t, instance.a
    if line.n != n or line.d1 == 0:
        return False
    if (line.d2 - t * line.d1) % n or (line.d3 - a * line.d1) % n:
        return False
    l1, l2, l3 = _box_limits(instance)
    return abs(line.d1) <= l1 and abs(line.d2) <= l2 and abs(line.d3) <= l3
