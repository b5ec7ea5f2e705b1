"""Seeded workload generators for the capclass benchmark.

Each op is one argv for ``capclass.cli.main``. An op depends only on
(workload, seed, index), so a run can stop after any number of ops and the
same seed always replays the same inputs.

The parameter that sets an op's cost (skew, modulus size) is read from a
golden-ratio sequence with a seeded offset instead of being drawn
independently. Any prefix of that sequence covers its range evenly, so runs
with different seeds do the same mix of cheap and costly ops and their
throughput and latency agree closely; everything else (units, constants,
secrets, residues) is drawn at random.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

GOLDEN = (math.sqrt(5) - 1) / 2

# analyze-skewed: integer boxes with skew n/(X*Y) log-uniform in
# [SKEW_LO, SKEW_HI]; SKEW_LO > 27 keeps every box inside the guaranteed
# region 27*X*Y < n. Line-search cost grows linearly with the skew.
SKEW_LO, SKEW_HI = 28, 5000
IRRATIONAL_K = (4, 9, 16, 27)

# census-wide: the paper's default window (c = 1/2) yields no genuine lens
# records, so the widest legal window is used to reach the interval path.
CENSUS_FLAGS = ("--c", "3/5", "--w", "1", "--z", "1/4")
CENSUS_SAMPLES = 60

# search-rings: largest radius per ring whose box stays under the search
# module's cap of 1e8 point pairs. Boxes hold 20-40% of the cap, which keeps
# an op near 0.1 s (a box at the cap costs about 0.15 s in Z[i] and 0.3 s in
# Z) so that a run has enough ops for a p90 tail.
RING_RADIUS_MAX = {"Z": 4999, "Z[i]": 55, "Z[sqrt(-2)]": 66, "Z[omega]": 51}
SEARCH_RINGS = ("Z", "Z[i]", "Z[sqrt(-2)]", "Z[omega]")
SEARCH_CAP_SHARE = (0.2, 0.4)
Z_SMALL_MODULUS_ROWS = 3000


@dataclass(frozen=True)
class Op:
    argv: tuple
    secret: Optional[int] = None  # planted hnp secret, for the output check


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], Op]
    cycle: int  # ops per cycle of slots; runs end on a cycle boundary
    why: str
    # ops that reproduce a known defect; run and reported beside the
    # workload, not counted in it
    probe: Optional[Callable[[int, int], Op]] = None


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _spread(workload: str, seed: int, stream: str, k: int) -> float:
    """k-th point in [0, 1) of an evenly spread sequence with a seeded start."""
    offset = _rng(workload, seed, stream).random()
    return (offset + k * GOLDEN) % 1.0


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _unit(rng: random.Random, n: int) -> int:
    while True:
        t = rng.randrange(1, n)
        if math.gcd(t, n) == 1:
            return t


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24. The benchmark keeps
    its own copy so that its inputs do not depend on the code under test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def analyze_skewed(seed: int, i: int) -> Op:
    """Four integer square boxes, then one irrational box sqrt(n/k)."""
    name = "analyze-skewed"
    rng = _rng(name, seed, i)
    cycle, slot = divmod(i, 5)
    if slot == 4:
        n = rng.randrange(10**3, 10**6 + 1)
        k = IRRATIONAL_K[cycle % len(IRRATIONAL_K)]
        box = f"sqrt({n}/{k})"
    else:
        skew = _log_between(SKEW_LO, SKEW_HI,
                            _spread(name, seed, "skew", 4 * cycle + slot))
        # draw the side, then n = side^2 * skew, so the realized skew (which
        # sets the cost) is the drawn one and n stays in [1e3, 1e6]
        side = rng.randint(math.isqrt(math.ceil(10**3 / skew)) + 1,
                           math.isqrt(int(10**6 / skew)))
        n = round(side * side * skew)
        box = str(side)
    t = _unit(rng, n)
    a = rng.randrange(n)
    return Op(("analyze", "--n", str(n), "--t", str(t), "--a", str(a),
               "--X", box, "--Y", box))


def _hnp_op(rng: random.Random, n: int, X: int) -> Op:
    """Planted secret: d_i = c_i*s - x_i mod n with |x_i| <= X/2."""
    s = rng.randrange(n)
    c0, c1 = rng.randrange(1, n), rng.randrange(1, n)
    half = X // 2
    x0, x1 = rng.randint(-half, half), rng.randint(-half, half)
    d0, d1 = (c0 * s - x0) % n, (c1 * s - x1) % n
    argv = ("hnp", "--n", str(n), "--c0", str(c0), "--d0", str(d0),
            "--c1", str(c1), "--d1", str(d1), "--X", str(X))
    return Op(argv, secret=s)


def hnp_prime(seed: int, i: int) -> Op:
    """Prime n in [1e11, 1e13], X just under the homogeneous limit."""
    name = "hnp-prime"
    rng = _rng(name, seed, i)
    n = next_prime(int(10 ** (11 + 2 * _spread(name, seed, "n", i))))
    limit = math.isqrt((n - 1) // 27)  # largest X with 27*X^2 < n
    return _hnp_op(rng, n, limit - rng.randrange(limit // 20 + 1))


def hnp_small_x(seed: int, i: int) -> Op:
    """Known-defect probe: X in {1, 2, 3} makes the homogeneous line search
    refuse with SearchSpaceTooLarge, which the hnp command does not catch."""
    rng = _rng("hnp-small-x", seed, i)
    n = next_prime(rng.randrange(10**11, 10**13))
    return _hnp_op(rng, n, 1 + i % 3)


def census_wide(seed: int, i: int) -> Op:
    name = "census-wide"
    rng = _rng(name, seed, i)
    p = next_prime(int(10 ** (4 + _spread(name, seed, "p", i))))
    return Op(("census", "--p", str(p), *CENSUS_FLAGS,
               "--samples", str(CENSUS_SAMPLES),
               "--seed", str(rng.randrange(2**31))))


def search_rings(seed: int, i: int) -> Op:
    """Slots cycle through the four rings, each with a small modulus
    (1e2..1e3, many rows) and a large one (1e5..1e6, few rows)."""
    name = "search-rings"
    rng = _rng(name, seed, i)
    cycle, slot = divmod(i, 2 * len(SEARCH_RINGS))
    ring, large = SEARCH_RINGS[slot // 2], slot % 2 == 1
    u = _spread(name, seed, f"{ring}/{large}", cycle)
    n = round(10 ** ((5 if large else 2) + u))
    if ring == "Z" and not large:
        # with a small modulus a box near the cap would emit ~1e5 rows;
        # size it for about Z_SMALL_MODULUS_ROWS instead
        radius = math.isqrt(Z_SMALL_MODULUS_ROWS * n) // 2
    else:
        # point pairs grow as radius^2 in Z and radius^4 in the others
        share = rng.uniform(*SEARCH_CAP_SHARE)
        radius = int(RING_RADIUS_MAX[ring] * share ** (0.5 if ring == "Z" else 0.25))
    t = _unit(rng, n)
    a = rng.randrange(n)
    return Op(("search", "--ring", ring, "--n", str(n), "--t", str(t),
               "--a", str(a), "--X", str(radius), "--Y", str(radius)))


WORKLOADS = {w.name: w for w in (
    Workload("analyze-skewed", analyze_skewed, 5,
             "line search (LLL plus exact ball enumeration) dominates and "
             "grows with skew; adelic and capacity are idle"),
    Workload("hnp-prime", hnp_prime, 1,
             "prime moduli: trial division of n in the adelic stage dominates; "
             "the ball is tiny and the arch set concentric",
             probe=hnp_small_x),
    Workload("census-wide", census_wide, 1,
             "only workload reaching the genuine-lens interval path, the "
             "census bound and heavy JSON output; no line search"),
    Workload("search-rings", search_rings, 2 * len(SEARCH_RINGS),
             "only workload reaching search and rings: brute-force boxes near "
             "the point-pair cap over Z, Z[i], Z[sqrt(-2)] and Z[omega]"),
)}
