"""Capacity of the adelic constraint set.

Finite places contribute exact rational disk radii; the global finite part
is their product. The archimedean place contributes the transfinite
diameter of a two-disk lens: when the set is a single disk, its radius,
enclosed exactly with isqrt; otherwise a conformal-map closed form in mpmath
interval arithmetic. A greedy Fekete-point estimator on a boundary
discretization serves as an independent numerical cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .adelic import AdelicSet, ArchLens, PAdicDisk
from .exact import (QuadraticNumber, SqrtRat, compare_sqrt_diff,
                    compare_sqrt_sum, frac_token, rational_sqrt_approx)
from .intervals import (RealInterval, ZERO_INTERVAL, iv_context,
                        iv_from_fraction, precision_bits)

RadiusLike = Union[SqrtRat, Fraction, int, float, str]


def _as_radius(x: RadiusLike) -> SqrtRat:
    if isinstance(x, SqrtRat):
        return x
    return SqrtRat.of_rational(Fraction(x))


def finite_capacity(disk: PAdicDisk) -> Fraction:
    """Local capacity at a finite place: the disk radius, 0 for empty."""
    if disk.is_empty:
        return Fraction(0)
    return disk.radius


def finite_product(disks: Sequence[PAdicDisk]) -> Fraction:
    out = Fraction(1)
    for d in disks:
        out *= finite_capacity(d)
    return out


def sqrtrat_interval(x: SqrtRat) -> RealInterval:
    """Exact point when x is rational, else the isqrt enclosure
    [lo, lo + 2**-k] of relative width below 2**-precision_bits()."""
    if x.is_rational():
        return RealInterval.point(x.as_rational())
    q = x.sq
    # q > 2**(e - 1), so sqrt(q) > 2**((e - 1) // 2) and a step 2**-k is at
    # most 2**-(bits + 1) * sqrt(q), which keeps it below 2**-bits * lo
    e = q.numerator.bit_length() - q.denominator.bit_length()
    k = max(0, precision_bits() + 1 - (e - 1) // 2)
    lo = rational_sqrt_approx(q, k)
    return RealInterval(lo, lo + Fraction(1, 1 << k))


@dataclass(frozen=True)
class NormalizedLens:
    """The lens written as xi * (D(0,r) /\\ D(1,s)).

    Centers here are real, so the rotation carrying the center-to-center
    vector onto the positive axis is either 0 or a half turn; neither
    changes the capacity.
    """

    xi: Fraction            # positive scale |center|
    r: SqrtRat
    s: SqrtRat


def normalize_lens(lens: ArchLens) -> NormalizedLens:
    if lens.kind != "lens":
        raise ValueError("not a two-disk lens")
    if lens.center == 0:
        raise ValueError("concentric lens; use the smaller-disk fast path")
    xi = abs(lens.center)
    return NormalizedLens(
        xi=xi,
        r=lens.Y / SqrtRat.of_rational(xi),
        s=lens.rho / SqrtRat.of_rational(xi),
    )


def lens_value(r: RadiusLike, s: RadiusLike) -> tuple[RealInterval, str]:
    """Transfinite diameter of D(0,r) /\\ D(1,s) plus a case label.

    The case split (empty / tangent / containment / genuine lens) is decided
    exactly; only the genuine-lens formula goes through interval arithmetic.
    """
    r = _as_radius(r)
    s = _as_radius(s)
    one = Fraction(1)
    touch = compare_sqrt_sum(r, s, one)  # sign of r + s - 1
    if touch < 0:
        return ZERO_INTERVAL, "empty"
    if touch == 0:
        return ZERO_INTERVAL, "tangent"
    if compare_sqrt_diff(r, s, one) >= 0:  # r >= 1 + s: V = D(1,s)
        return sqrtrat_interval(s), "disk1"
    if compare_sqrt_diff(s, r, one) >= 0:  # s >= 1 + r: V = D(0,r)
        return sqrtrat_interval(r), "disk0"
    return _genuine_lens(r.sq, s.sq), "lens"


def lens_capacity(r: RadiusLike, s: RadiusLike) -> RealInterval:
    return lens_value(r, s)[0]


def _genuine_lens(r2: Fraction, s2: Fraction) -> RealInterval:
    # Intersection points u, u_bar = x0 -+ i*y0; all squared data is rational.
    x0 = (1 + r2 - s2) / 2
    y0sq = r2 - x0 * x0
    if y0sq <= 0:
        raise ArithmeticError("case split admitted a non-transversal lens")
    cos_num = 1 - r2 - s2
    cos2 = cos_num * cos_num / (4 * r2 * s2)
    sin2 = 1 - cos2
    if sin2 <= 0:
        raise ArithmeticError("case split admitted a degenerate angle")
    iv = iv_context()
    y0 = iv.sqrt(iv_from_fraction(y0sq))
    sina = iv.sqrt(iv_from_fraction(sin2))
    cosa = iv.sqrt(iv_from_fraction(cos2))
    if cos_num < 0:
        cosa = -cosa
    elif cos_num == 0:
        cosa = iv.mpf(0)
    # alpha in (0, pi): the interior angle of the lens at u
    alpha = iv.atan2(sina, cosa)
    m = iv.pi / (2 * iv.pi - alpha)
    # arg(u - r) lies in (pi/2, pi); the branch walks it to phi = 2pi - 2theta1
    x0r = iv_from_fraction(x0) - iv.sqrt(iv_from_fraction(r2))
    theta1 = iv.atan2(y0, x0r)
    phi = 2 * iv.pi - 2 * theta1
    gamma = m * y0 / iv.sin(m * phi)
    out = RealInterval.from_iv(gamma)
    if out.lo < 0:
        out = RealInterval(Fraction(0), out.hi)
    return out


# ---------------------------------------------------------------------------
# greedy Fekete-point oracle


@dataclass(frozen=True)
class FeketeEstimate:
    """Greedy transfinite-diameter estimate from N near-Fekete points.

    `raw` is the greedy d_N, an upper-biased estimate decreasing toward the
    capacity as N grows. `estimate` divides out N**(1/(N-1)), the exact
    d_N/capacity ratio for a disk (Fekete points at the roots of unity),
    which removes the leading bias for every set tested here.
    """

    raw: float
    estimate: float
    count: int
    trend: tuple[tuple[int, float], ...]


def _empty_estimate(count: int) -> FeketeEstimate:
    return FeketeEstimate(raw=0.0, estimate=0.0, count=count, trend=())


def fekete_oracle(boundary: np.ndarray, count: int) -> FeketeEstimate:
    """Greedy Fekete selection of `count` points from a boundary cloud."""
    if count < 10:
        raise ValueError("need at least 10 points for a usable estimate")
    pts = np.asarray(boundary, dtype=complex).ravel()
    if pts.size == 0:
        return _empty_estimate(count)
    if pts.size <= count:
        raise ValueError("boundary discretization too coarse for count")
    chosen = [int(np.argmax(np.abs(pts)))]
    logsum = np.full(pts.size, 0.0)
    with np.errstate(divide="ignore"):
        logsum += np.log(np.abs(pts - pts[chosen[0]]))
    total = 0.0
    marks = {max(10, count // 8), max(10, count // 4), max(10, count // 2), count}
    trend = []
    for k in range(2, count + 1):
        nxt = int(np.argmax(logsum))
        total += logsum[nxt]
        chosen.append(nxt)
        with np.errstate(divide="ignore"):
            logsum += np.log(np.abs(pts - pts[nxt]))
        logsum[nxt] = -np.inf
        if k in marks:
            trend.append((k, math.exp(2.0 * total / (k * (k - 1)))))
    raw = math.exp(2.0 * total / (count * (count - 1)))
    calibrated = raw * count ** (-1.0 / (count - 1))
    return FeketeEstimate(raw=raw, estimate=calibrated, count=count,
                          trend=tuple(trend))


def disk_boundary(radius: float, samples: int, center: complex = 0j) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    return center + radius * np.exp(1j * ang)


def segment_boundary(a: complex, b: complex, samples: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, samples)
    return a + (b - a) * t


def lens_boundary(r: float, s: float, samples: int) -> np.ndarray:
    """Boundary of D(0,r) /\\ D(1,s): empty/containment handled, else the two
    arcs meeting at the intersection points."""
    if r + s <= 1.0:
        return np.empty(0, dtype=complex)
    if r >= 1.0 + s:
        return disk_boundary(s, samples, center=1.0 + 0j)
    if s >= 1.0 + r:
        return disk_boundary(r, samples)
    x0 = (1.0 + r * r - s * s) / 2.0
    y0 = math.sqrt(r * r - x0 * x0)
    half = samples // 2
    # arc of |z| = r between the intersection points, through z = r
    tu = math.atan2(y0, x0)
    a1 = r * np.exp(1j * np.linspace(-tu, tu, half))
    # arc of |z - 1| = s between them, through z = 1 - s
    psi = math.atan2(y0, x0 - 1.0)
    a2 = 1.0 + s * np.exp(1j * np.linspace(psi, 2.0 * math.pi - psi, samples - half))
    return np.concatenate([a1, a2])


def oracle_for_lens(r: float, s: float, count: int = 400,
                    boundary_samples: Optional[int] = None) -> FeketeEstimate:
    m = boundary_samples or max(4096, 8 * count)
    pts = lens_boundary(float(r), float(s), m)
    if pts.size == 0:
        return _empty_estimate(count)
    return fekete_oracle(pts, count)


# ---------------------------------------------------------------------------
# the global product


@dataclass(frozen=True)
class CapacityReport:
    finite_product: Fraction
    arch: RealInterval
    arch_case: str
    gamma: RealInterval
    is_zero: bool
    precision: int

    def to_json(self) -> dict:
        return {
            "finite_product": frac_token(self.finite_product),
            "arch": self.arch.to_json(),
            "arch_case": self.arch_case,
            "gamma": self.gamma.to_json(),
            "is_zero": self.is_zero,
            "precision_bits": self.precision,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CapacityReport":
        return cls(
            finite_product=Fraction(obj["finite_product"]),
            arch=RealInterval.from_json(obj["arch"]),
            arch_case=obj["arch_case"],
            gamma=RealInterval.from_json(obj["gamma"]),
            is_zero=bool(obj["is_zero"]),
            precision=int(obj["precision_bits"]),
        )


def arch_capacity(arch: ArchLens) -> tuple[RealInterval, str]:
    if arch.kind == "empty":
        return ZERO_INTERVAL, "empty"
    if arch.kind == "disk":
        return sqrtrat_interval(arch.Y), "disk"
    if arch.center == 0:
        smaller = arch.Y if arch.Y <= arch.rho else arch.rho
        return sqrtrat_interval(smaller), "concentric"
    nl = normalize_lens(arch)
    cap, case = lens_value(nl.r, nl.s)
    return cap.scale(nl.xi), case


def global_capacity(adset: AdelicSet) -> CapacityReport:
    fin = finite_product(adset.finite)
    arch, case = arch_capacity(adset.arch)
    gamma = arch.scale(fin)
    zero = fin == 0 or case in ("empty", "tangent")
    if zero:
        gamma = ZERO_INTERVAL
    return CapacityReport(
        finite_product=fin,
        arch=arch,
        arch_case=case,
        gamma=gamma,
        is_zero=zero,
        precision=precision_bits(),
    )


# ---------------------------------------------------------------------------
# exact capacity data for census-shaped lines


@dataclass(frozen=True)
class CensusBound:
    """Exact interval endpoints delta1, delta2 of the real trace of the arch
    lens (in units of sqrt(p)) and the segment-capacity lower bound
    sqrt(p)*(delta2 - delta1)/(4*d1) on the global capacity."""

    delta1: QuadraticNumber
    delta2: QuadraticNumber
    is_zero: bool
    bound: QuadraticNumber
    bound_interval: RealInterval
    exceeds_one: bool


def census_capacity_bound(d1: int, d2: int, d3: int, p: int,
                          c: Fraction) -> CensusBound:
    if d1 <= 0 or d2 <= 0:
        raise ValueError("census lines have positive d1, d2")
    if math.gcd(d1, d2) != 1:
        raise ValueError("census lines have coprime d1, d2")
    c = Fraction(c)
    shift = Fraction(-d3, p * d2)  # the -d3/(sqrt(p) d2) term, as b*sqrt(p)
    lo_cand = QuadraticNumber(Fraction(-d1) * c / d2, shift, p)
    hi_cand = QuadraticNumber(Fraction(d1) * c / d2, shift, p)
    neg_c = QuadraticNumber(-c, 0, p)
    pos_c = QuadraticNumber(c, 0, p)
    delta1 = lo_cand if lo_cand > neg_c else neg_c
    delta2 = hi_cand if hi_cand < pos_c else pos_c
    if delta1 > delta2:
        zero_q = QuadraticNumber(0, 0, p)
        return CensusBound(delta1=delta1, delta2=delta2, is_zero=True,
                           bound=zero_q, bound_interval=ZERO_INTERVAL,
                           exceeds_one=False)
    diff = delta2 - delta1
    # sqrt(p)*(A + B*sqrt(p)) = B*p + A*sqrt(p)
    bound = QuadraticNumber(diff.b * p / (4 * d1), diff.a / (4 * d1), p)
    return CensusBound(
        delta1=delta1,
        delta2=delta2,
        is_zero=False,
        bound=bound,
        bound_interval=_quadratic_interval(bound),
        exceeds_one=bound > QuadraticNumber(1, 0, p),
    )


def _quadratic_interval(q: QuadraticNumber) -> RealInterval:
    root = sqrtrat_interval(SqrtRat(q.m)).scale(q.b)
    return RealInterval(q.a + root.lo, q.a + root.hi)
