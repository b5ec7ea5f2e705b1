"""Seeded sampling census over normalized lines (d1*x + d2*y + d3)/p.

The census estimates, for a prime modulus p and square box of side c*sqrt(p),
what proportion of instances has capacity > 1 (method provably cannot
succeed) and what proportion has capacity 0. Triples are drawn from the
parameter set

    3*w*c*sqrt(p)/4 <= d1 <= 3*c*sqrt(p)/2,
    1 <= d2 <= 3*c*sqrt(p)/2,
    0 <= d3 < z*p,   gcd(d1, d2) = 1,

whose members are exactly the lines the lattice construction recovers for the
corresponding (t, a) instance (see roundtrip_uniqueness). Since |S| grows
like p^2, proportions are estimated by seeded uniform sampling and reported
with Wilson confidence intervals rather than enumerated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .adelic import assemble
from .capacity import (CapacityReport, CensusBound, census_capacity_bound,
                       global_capacity)
from .exact import (QuadraticNumber, SqrtRat, ceil_sqrt, floor_sqrt,
                    frac_token, invmod, is_prime)
from .lattice import AuxiliaryLine, LineNotFound, find_auxiliary_line
from .model import CongruenceInstance

# 97.5% normal quantile, for two-sided 95% Wilson intervals
_WILSON_Z = 1.959963984540054


def _ceil_frac(fr: Fraction) -> int:
    return -((-fr.numerator) // fr.denominator)


@dataclass(frozen=True)
class CensusParams:
    """Modulus, box scale and sampling window for one census run.

    The box side is X = Y = c*sqrt(p). Defaults w = 1/24 and z = 9c^2/576
    give the window used for the positive-proportion estimates; any z up to
    the uniqueness ceiling 3*w*c^2 is accepted.
    """

    p: int
    c: Fraction
    w: Fraction = Fraction(1, 24)
    z: Optional[Fraction] = None
    sample_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "w", Fraction(self.w))
        z = 9 * self.c ** 2 / 576 if self.z is None else Fraction(self.z)
        object.__setattr__(self, "z", z)
        if not is_prime(self.p):
            raise ValueError(f"census modulus {self.p} is not prime")
        if not 0 < self.c < Fraction(2, 3):
            raise ValueError("c must lie in (0, 2/3)")
        if not 0 < self.w <= 2:
            raise ValueError("w must lie in (0, 2]")
        if not 0 <= z < 1:
            raise ValueError("z must lie in [0, 1)")
        if z > 3 * self.w * self.c ** 2:
            raise ValueError(f"z={z} exceeds the uniqueness ceiling "
                             f"3wc^2={3 * self.w * self.c ** 2}")
        if self.c ** 2 * self.p <= Fraction(1, 9):
            raise ValueError("box side c*sqrt(p) must exceed 1/3")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")

    @property
    def box_bound(self) -> SqrtRat:
        """X = Y = c*sqrt(p), exactly."""
        return SqrtRat(self.c ** 2 * self.p)

    def to_json(self) -> dict:
        return {"p": self.p, "c": frac_token(self.c), "w": frac_token(self.w),
                "z": frac_token(self.z), "sample_size": self.sample_size,
                "seed": self.seed}


@dataclass(frozen=True)
class TripleBox:
    """Inclusive integer ranges for (d1, d2, d3)."""

    d1: Tuple[int, int]
    d2: Tuple[int, int]
    d3: Tuple[int, int]

    def is_empty(self) -> bool:
        return any(lo > hi for lo, hi in (self.d1, self.d2, self.d3))

    def to_json(self) -> dict:
        return {"d1": list(self.d1), "d2": list(self.d2), "d3": list(self.d3)}


def base_box(params: CensusParams) -> TripleBox:
    """Integer points of the full sampling window, endpoints exact."""
    # floor(3c sqrt(p)/2) and ceil(3wc sqrt(p)/4) via integer square roots
    upper = floor_sqrt(Fraction(9, 4) * params.c ** 2 * params.p)
    d1_lo = max(1, ceil_sqrt(Fraction(9, 16) * (params.w * params.c) ** 2
                             * params.p))
    d3_hi = _ceil_frac(params.z * params.p) - 1  # largest integer < z*p
    return TripleBox(d1=(d1_lo, upper), d2=(1, upper), d3=(0, d3_hi))


def chi_box(params: CensusParams, chi1: Tuple[Fraction, Fraction],
            chi2: Tuple[Fraction, Fraction]) -> TripleBox:
    """Sub-window in normalized coordinates chi_i = d_i/(3c*sqrt(p)/2) for
    i = 1, 2, intersected with the base window; d3 keeps its full range."""
    base = base_box(params)
    scale_sq = Fraction(9, 4) * params.c ** 2 * params.p  # (3c sqrt(p)/2)^2

    def d_range(chi, lo0, hi0):
        lo, hi = Fraction(chi[0]), Fraction(chi[1])
        if not 0 <= lo <= hi:
            raise ValueError(f"bad chi range {chi}")
        return (max(lo0, ceil_sqrt(lo * lo * scale_sq)),
                min(hi0, floor_sqrt(hi * hi * scale_sq)))

    return TripleBox(d1=d_range(chi1, *base.d1), d2=d_range(chi2, *base.d2),
                     d3=base.d3)


def gamma_gt_one_box(params: CensusParams) -> TripleBox:
    """chi1, chi2 in [w, 2w]: every triple here has capacity bound >= 1."""
    band = (params.w, 2 * params.w)
    return chi_box(params, band, band)


def gamma_zero_box(params: CensusParams) -> TripleBox:
    """Corner with d2 = 1, small d1, d3 large enough that the real trace of
    the arch lens is empty (delta1 > delta2, capacity 0).

    Raises ValueError when no such corner exists: emptiness needs
    d3 > c*sqrt(p)*(d1 + d2), and for small z the ceiling z*p sits below
    that for every admissible triple.
    """
    base = base_box(params)
    l1, u1 = base.d1
    d3_max = base.d3[1]
    c2p = params.c ** 2 * params.p

    def d3_floor(top: int) -> int:
        # smallest d3 with d3 > c*sqrt(p)*(d1 + 1) for every d1 <= top
        return floor_sqrt(c2p * (top + 1) ** 2) + 1

    # widest d1 slice whose required d3 still fits under z*p
    d1_hi = min(u1, max(l1, floor_sqrt(Fraction(d3_max * d3_max) / c2p)
                        if d3_max >= 0 else l1))
    while d1_hi >= l1 and d3_floor(d1_hi) > d3_max:
        d1_hi -= 1
    if d1_hi < l1:
        raise ValueError(
            f"no capacity-zero corner: need d3 >= {d3_floor(l1)} but "
            f"d3 < z*p allows at most {d3_max}")
    return TripleBox(d1=(l1, d1_hi), d2=(1, 1), d3=(d3_floor(d1_hi), d3_max))


def sample_triples(params: CensusParams,
                   box: Optional[TripleBox] = None) -> Iterator[Tuple[int, int, int]]:
    """Uniform seeded samples from the window, with gcd(d1, d2) = 1 enforced
    by rejection. Same seed, same stream."""
    box = base_box(params) if box is None else box
    if box.is_empty():
        raise ValueError(f"empty sampling window {box.to_json()} "
                         f"(p={params.p} too small for these parameters?)")
    rng = random.Random(params.seed)
    emitted = 0
    attempts = 0
    limit = 1000 * params.sample_size + 1000
    while emitted < params.sample_size:
        attempts += 1
        if attempts > limit:
            raise RuntimeError("rejection sampling stalled: window "
                               f"{box.to_json()} has too few coprime pairs")
        d1 = rng.randint(*box.d1)
        d2 = rng.randint(*box.d2)
        d3 = rng.randint(*box.d3)
        if math.gcd(d1, d2) != 1:
            continue
        emitted += 1
        yield d1, d2, d3


def lambda_map(d1: int, d2: int, d3: int, p: int) -> Tuple[int, int]:
    """Instance class of a triple: least nonnegative (t, a) with
    d1*(1, t, a) = (d1, d2, d3) mod p. Injective on gcd(d1, d2) = 1 triples
    with 0 < d1, d2 < sqrt(p), 0 <= d3 < p."""
    if d1 % p == 0:
        raise ValueError(f"d1={d1} is divisible by the modulus {p}")
    inv = invmod(d1, p)
    return (d2 * inv) % p, (d3 * inv) % p


def roundtrip_uniqueness(d1: int, d2: int, d3: int,
                         params: CensusParams) -> bool:
    """Run the lattice construction on the instance lambda(d1, d2, d3) and
    compare its line with the triple.

    For triples inside the window with z <= 3wc^2 the construction is
    guaranteed to return exactly this line; outside that hypothesis the
    comparison is still performed but nothing promises it is true. When no
    admissible line exists at all there is nothing to compare and the
    uniqueness statement holds vacuously.
    """
    t, a = lambda_map(d1, d2, d3, params.p)
    instance = CongruenceInstance(n=params.p, t=t, a=a,
                                  X=params.box_bound, Y=params.box_bound)
    try:
        line = find_auxiliary_line(instance)
    except LineNotFound:
        return True
    return (line.d1, line.d2, line.d3) == (d1, d2, d3)


def wilson_interval(successes: int, trials: int,
                    z: float = _WILSON_Z) -> Tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion.

    At 0 (resp. all) successes the exact lower (resp. upper) endpoint is 0
    (resp. 1); pinning those avoids float residue like 2.7e-20 posing as a
    positive lower bound."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials
                                   + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _quadratic_json(q: QuadraticNumber) -> dict:
    return {"a": frac_token(q.a), "b": frac_token(q.b), "m": frac_token(q.m)}


@dataclass(frozen=True)
class CensusRecord:
    d1: int
    d2: int
    d3: int
    t: int
    a: int
    bound: CensusBound
    report: CapacityReport
    outcome: str  # "gamma_gt_1" | "gamma_zero" | "other"

    def to_json(self) -> dict:
        return {
            "triple": [self.d1, self.d2, self.d3],
            "t": self.t,
            "a": self.a,
            "delta1": _quadratic_json(self.bound.delta1),
            "delta2": _quadratic_json(self.bound.delta2),
            "bound": _quadratic_json(self.bound.bound),
            "bound_interval": self.bound.bound_interval.to_json(),
            "gamma": self.report.gamma.to_json(),
            "outcome": self.outcome,
        }


def _classify_record(bound: CensusBound, report: CapacityReport) -> str:
    if bound.is_zero:
        return "gamma_zero"
    if bound.exceeds_one or report.gamma.lo > 1:
        return "gamma_gt_1"
    return "other"


@dataclass(frozen=True)
class CensusResult:
    params: CensusParams
    records: Tuple[CensusRecord, ...]
    counts: Dict[str, int]
    lambda_injective: bool

    @property
    def sample_size(self) -> int:
        return len(self.records)

    def fraction(self, outcome: str) -> Fraction:
        return Fraction(self.counts.get(outcome, 0), self.sample_size)

    def wilson(self, outcome: str) -> Tuple[float, float]:
        return wilson_interval(self.counts.get(outcome, 0), self.sample_size)

    def to_json(self, include_records: bool = True) -> dict:
        out = {
            "params": self.params.to_json(),
            "sample_size": self.sample_size,
            "lambda_injective": self.lambda_injective,
        }
        for outcome in ("gamma_gt_1", "gamma_zero", "other"):
            lo, hi = self.wilson(outcome)
            out[f"fraction_{outcome}"] = frac_token(self.fraction(outcome))
            out[f"wilson_{outcome}"] = [f"{lo:.9f}", f"{hi:.9f}"]
        if include_records:
            out["records"] = [r.to_json() for r in self.records]
        return out


def run_census(params: CensusParams,
               box: Optional[TripleBox] = None) -> CensusResult:
    """Sample triples, compute the exact capacity bound and the full adelic
    capacity for each, and tally outcomes in emission order.

    The full pipeline never searches the lattice here: the triple *is* the
    line, so the adelic set is assembled from it directly.
    """

    def evaluate(triple: Tuple[int, int, int]) -> CensusRecord:
        d1, d2, d3 = triple
        t, a = lambda_map(d1, d2, d3, params.p)
        bound = census_capacity_bound(d1, d2, d3, params.p, params.c)
        line = AuxiliaryLine(d1=d1, d2=d2, d3=d3, n=params.p)
        instance = CongruenceInstance(n=params.p, t=t, a=a,
                                      X=params.box_bound, Y=params.box_bound)
        report = global_capacity(assemble(instance, line))
        return CensusRecord(d1=d1, d2=d2, d3=d3, t=t, a=a, bound=bound,
                            report=report,
                            outcome=_classify_record(bound, report))

    records = tuple(evaluate(tr) for tr in sample_triples(params, box))

    counts = {"gamma_gt_1": 0, "gamma_zero": 0, "other": 0}
    image: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    injective = True
    for rec in records:
        counts[rec.outcome] += 1
        triple = (rec.d1, rec.d2, rec.d3)
        prior = image.get((rec.t, rec.a))
        if prior is not None and prior != triple:
            injective = False
        image[(rec.t, rec.a)] = triple
    return CensusResult(params=params, records=records, counts=counts,
                        lambda_injective=injective)
