"""The four imaginary quadratic orders the brute-force oracle searches.

Elements are integer pairs (u, v) standing for u + v*theta, where theta is
0 (plain integers), sqrt(-1), sqrt(-2), or (1 + sqrt(-3))/2. Each ring has
a single archimedean place, so "for every embedding" size conditions reduce
to one exact integer comparison of norms, and each is norm-Euclidean, so
gcds are computable by rounded division.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

Element = tuple[int, int]


@dataclass(frozen=True)
class SearchRing:
    """Quadratic order Z[theta] with norm form u^2 + b*u*v + c*v^2."""

    name: str
    b: int  # trace of theta (the u*v coefficient of the norm form)
    c: int  # norm of theta

    def norm(self, x: Element) -> int:
        u, v = x
        return u * u + self.b * u * v + self.c * v * v

    def conj(self, x: Element) -> Element:
        # theta + theta_bar = b and theta*theta_bar = c, so
        # conj(u + v*theta) = (u + b*v) - v*theta
        u, v = x
        return (u + self.b * v, -v)

    def mul(self, x: Element, y: Element) -> Element:
        # theta^2 = b*theta - c
        (a, bb), (cc, d) = x, y
        return (a * cc - self.c * bb * d, a * d + bb * cc + self.b * bb * d)

    def add(self, x: Element, y: Element) -> Element:
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x: Element, y: Element) -> Element:
        return (x[0] - y[0], x[1] - y[1])

    def neg(self, x: Element) -> Element:
        return (-x[0], -x[1])

    def scale(self, k: int, x: Element) -> Element:
        return (k * x[0], k * x[1])

    def is_zero(self, x: Element) -> bool:
        return x == (0, 0)

    def is_unit(self, x: Element) -> bool:
        return self.norm(x) == 1

    def divmod_rounded(self, x: Element, y: Element) -> tuple[Element, Element]:
        """Euclidean step: q with N(x - q*y) < N(y), via rounding x/y."""
        if self.is_zero(y):
            raise ZeroDivisionError("division by zero ring element")
        ny = self.norm(y)
        prod = self.mul(x, self.conj(y))  # = (x/y) * N(y)
        q = (_round_div(prod[0], ny), _round_div(prod[1], ny))
        r = self.sub(x, self.mul(q, y))
        return q, r

    def gcd(self, x: Element, y: Element) -> Element:
        while not self.is_zero(y):
            _, r = self.divmod_rounded(x, y)
            x, y = y, r
        return x

    def coprime(self, x: Element, y: Element) -> bool:
        g = self.gcd(x, y)
        return not self.is_zero(g) and self.is_unit(g)

    def embed_int(self, k: int) -> Element:
        return (k, 0)

    def disk_rows(self, radius_sq: Fraction) -> list[tuple[int, int, int]]:
        """Exact integer rows (v, ulo, uhi) of the disk |u + v*theta|^2 <=
        radius_sq = P/Q, for v = -vmax..vmax (row k has v = k - vmax; rows
        with ulo > uhi are kept empty). A negative radius gives no rows.

        With D = 4c - b^2 the norm condition reads
        Q*(2u + b*v)^2 <= 4P - Q*D*v^2, so |2u + b*v| <= h with
        h = isqrt((4P - Q*D*v^2) // Q), and |v| <= isqrt(4P // (Q*D)).
        """
        radius_sq = Fraction(radius_sq)
        P, Q = radius_sq.numerator, radius_sq.denominator
        if P < 0:
            return []
        b, D = self.b, 4 * self.c - self.b * self.b
        vmax = 0 if D == 0 else isqrt(4 * P // (Q * D))
        rows = []
        for v in range(-vmax, vmax + 1):
            h = isqrt((4 * P - Q * D * v * v) // Q)
            rows.append((v, -((h + b * v) // 2), (h - b * v) // 2))
        return rows

    def elements_in_disk(self, radius_sq: Fraction) -> Iterator[Element]:
        """All ring elements with |u + v*theta|^2 <= radius_sq, exactly."""
        return self.elements_in_disk_congruent(self.disk_rows(radius_sq), 1,
                                               (0, 0))

    def elements_in_disk_congruent(self, rows: list[tuple[int, int, int]],
                                   modulus: int,
                                   residue: Element) -> Iterator[Element]:
        """Elements of the disk given by disk_rows whose coordinates are
        congruent to residue mod modulus, row by row."""
        r0, r1 = residue
        # row k holds v = k - vmax, and vmax = len(rows) // 2
        for k in range((r1 + len(rows) // 2) % modulus, len(rows), modulus):
            v, ulo, uhi = rows[k]
            for u in range(ulo + (r0 - ulo) % modulus, uhi + 1, modulus):
                yield (u, v)


def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b (ties toward +infinity); b > 0."""
    return (2 * a + b) // (2 * b)


RING_Z = SearchRing(name="Z", b=0, c=0)
RING_GAUSS = SearchRing(name="Z[i]", b=0, c=1)
RING_SQRT_MINUS_2 = SearchRing(name="Z[sqrt(-2)]", b=0, c=2)
# omega = (1 + sqrt(-3))/2 satisfies omega^2 = omega - 1: norm u^2 + uv + v^2
RING_OMEGA = SearchRing(name="Z[omega]", b=1, c=1)

ALL_RINGS = (RING_Z, RING_GAUSS, RING_SQRT_MINUS_2, RING_OMEGA)
RINGS_BY_NAME = {r.name: r for r in ALL_RINGS}
# accepted CLI spellings
RING_ALIASES = {
    "Z": "Z", "int": "Z", "integers": "Z",
    "Z[i]": "Z[i]", "gauss": "Z[i]", "gaussian": "Z[i]",
    "Z[sqrt(-2)]": "Z[sqrt(-2)]", "sqrt-2": "Z[sqrt(-2)]",
    "Z[omega]": "Z[omega]", "eisenstein": "Z[omega]", "omega": "Z[omega]",
}


def ring_by_name(name: str) -> SearchRing:
    key = RING_ALIASES.get(name)
    if key is None:
        raise KeyError(f"unknown ring {name!r}; choose from {sorted(RING_ALIASES)}")
    return RINGS_BY_NAME[key]
