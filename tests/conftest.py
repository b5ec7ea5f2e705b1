"""Shared helpers for the test suite: seeded instance generators, naive
reference enumerations used to cross-check the fast paths, and a terminal
hook that replays the acceptance-criteria result lines after the run."""

import math
import random
from fractions import Fraction

from capclass.model import CongruenceInstance

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_unit(rng: random.Random, n: int) -> int:
    while True:
        t = rng.randrange(1, n)
        if math.gcd(t, n) == 1:
            return t


def seeded_instance(rng: random.Random, n_lo: int, n_hi: int,
                    homogeneous: bool = False) -> CongruenceInstance:
    """Random instance with an integer square box strictly inside the
    guaranteed-feasible region X*Y < n/27."""
    n = rng.randrange(n_lo, n_hi + 1)
    t = random_unit(rng, n)
    a = 0 if homogeneous else rng.randrange(n)
    side_max = math.isqrt(max(1, n // 28))
    side = rng.randint(1, max(1, side_max))
    while 27 * side * side >= n:
        side -= 1
        if side < 1:
            return seeded_instance(rng, n_lo, n_hi, homogeneous)
    return CongruenceInstance(n=n, t=t, a=a, X=side, Y=side)


def brute_disk(ring, radius_sq):
    """Ring elements of norm <= radius_sq, sorted: a scan of the square
    |u|, |v| <= 2*(isqrt(floor(radius_sq)) + 2), which holds the disk of
    every search ring, with an exact integer norm test."""
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return []
    reach = 2 * (math.isqrt(math.floor(radius_sq)) + 2)
    vs = [0] if ring.c == 0 else range(-reach, reach + 1)
    p, q = radius_sq.numerator, radius_sq.denominator
    return sorted((u, v) for v in vs for u in range(-reach, reach + 1)
                  if q * ring.norm((u, v)) <= p)


def naive_pairs(ring, n: int, t: int, a: int, x_sq, y_sq):
    """Reference double loop for box solutions of x + t*y + a = 0 mod n."""
    xs = brute_disk(ring, x_sq)
    out = set()
    for y in brute_disk(ring, y_sq):
        for x in xs:
            lhs = ring.add(x, ring.add(ring.scale(t, y), ring.embed_int(a)))
            if lhs[0] % n == 0 and lhs[1] % n == 0:
                out.add((x, y))
    return out
