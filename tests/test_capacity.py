"""Capacity evaluation: closed-form lens values against the greedy Fekete
oracle, the exact census segment bound, and the assembled global product."""
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capclass.adelic import PAdicDisk, assemble
from capclass.capacity import (
    CapacityReport,
    census_capacity_bound,
    disk_boundary,
    fekete_oracle,
    finite_capacity,
    finite_product,
    global_capacity,
    lens_boundary,
    lens_capacity,
    lens_value,
    normalize_lens,
    oracle_for_lens,
    segment_boundary,
    sqrtrat_interval,
)
from capclass.exact import QuadraticNumber, SqrtRat
from capclass.intervals import precision_bits
from capclass.lattice import find_auxiliary_line
from capclass.model import CongruenceInstance

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# closed-form lens values


def test_vesica_closed_form():
    # r = s = 1: the interior angle is 2*pi/3 and the closed form collapses
    # to 3*sqrt(3)/8 = 0.6495190528...
    iv, case = lens_value(1, 1)
    assert case == "lens"
    assert iv.width < Fraction(1, 10**25)
    assert 0 <= iv.lo and iv.lo**2 <= Fraction(27, 64) <= iv.hi**2
    assert abs(float(iv.mid) - 0.649519052838329) < 1e-15


def test_containment_cases_are_exact_points():
    iv, case = lens_value(Fraction(5, 2), 1)
    assert case == "disk1" and iv.lo == iv.hi == 1
    iv, case = lens_value(1, Fraction(5, 2))
    assert case == "disk0" and iv.lo == iv.hi == 1


def test_empty_and_tangent_have_zero_capacity():
    iv, case = lens_value(Fraction(1, 4), Fraction(1, 4))
    assert case == "empty" and iv.lo == iv.hi == 0
    iv, case = lens_value(HALF, HALF)
    assert case == "tangent" and iv.lo == iv.hi == 0


def test_lens_value_accepts_sqrtrat_radii():
    iv, case = lens_value(SqrtRat(Fraction(101, 4)), SqrtRat(Fraction(101, 4)))
    assert case == "lens" and iv.lo > 1


def test_containment_limit():
    # as s -> (1 + r)-, the lens fills D(0,r) and the value tends to r
    iv = lens_capacity(HALF, Fraction(1499999, 1000000))
    assert abs(float(iv.mid) - 0.5) <= 1e-2


def test_lens_symmetry():
    # swapping the two radii reflects the lens through x = 1/2
    a = lens_capacity(1, Fraction(3, 4))
    b = lens_capacity(Fraction(3, 4), 1)
    assert a.lo <= b.hi and b.lo <= a.hi


def test_lens_monotone_in_radius():
    small = lens_capacity(1, Fraction(3, 4))
    large = lens_capacity(1, Fraction(5, 4))
    assert large.hi >= small.lo


@dataclass(frozen=True)
class LensGeometry:
    """Float diagnostics of a genuine lens: the upper intersection point u,
    the interior angle alpha at u, and the branch value zeta (|zeta| = 1)."""

    u: complex
    u_bar: complex
    alpha: float
    zeta: complex

    @property
    def exponent(self) -> float:
        return math.pi / (2.0 * math.pi - self.alpha)


def lens_geometry(r: float, s: float) -> LensGeometry:
    """Independent float evaluation of the quantities the interval closed
    form in capclass.capacity is built from."""
    x0 = (1.0 + r * r - s * s) / 2.0
    y0sq = r * r - x0 * x0
    if y0sq <= 0.0:
        raise ValueError("disks do not intersect transversally")
    y0 = math.sqrt(y0sq)
    u = complex(x0, y0)
    cos_alpha = (1.0 - r * r - s * s) / (2.0 * r * s)
    alpha = math.acos(max(-1.0, min(1.0, cos_alpha)))
    m = math.pi / (2.0 * math.pi - alpha)
    q = (u.conjugate() - r) / (u - r)
    arg = cmath.phase(q) % (2.0 * math.pi)  # log branch with Im in [0, 2*pi)
    zeta = cmath.exp(m * complex(math.log(abs(q)), arg))
    return LensGeometry(u=u, u_bar=u.conjugate(), alpha=alpha, zeta=zeta)


def capacity_from_geometry(geom: LensGeometry) -> float:
    m = geom.exponent
    return m * abs(geom.u_bar - geom.u) / (2.0 * geom.zeta.imag)


def test_float_geometry_cross_check():
    geom = lens_geometry(1.0, 1.0)
    assert abs(abs(geom.zeta) - 1.0) <= 1e-12
    iv, _ = lens_value(1, 1)
    assert abs(capacity_from_geometry(geom) - float(iv.mid)) <= 1e-12


def test_normalize_lens_rejects_non_lens():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    adset = assemble(inst, find_auxiliary_line(inst))
    with pytest.raises(ValueError):
        normalize_lens(adset.arch)  # concentric: no center to scale by


# ---------------------------------------------------------------------------
# Fekete oracle


def test_fekete_disk_calibration():
    # unit disk: capacity 1; greedy d_400 from 4096 boundary points
    est = fekete_oracle(disk_boundary(1.0, 4096), 400)
    assert est.raw == pytest.approx(1.014558553618345, abs=1e-12)
    assert est.estimate == pytest.approx(0.999437551704933, abs=1e-12)
    assert abs(est.estimate - 1.0) < 1e-3


def test_fekete_trend_decreases():
    est = fekete_oracle(disk_boundary(1.0, 4096), 400)
    values = [v for _, v in est.trend]
    assert len(values) >= 3
    assert all(a > b for a, b in zip(values, values[1:]))


def test_fekete_vesica():
    est = oracle_for_lens(1.0, 1.0, count=400)
    assert est.estimate == pytest.approx(0.649238974079408, abs=1e-12)
    assert abs(est.estimate - 0.649519052838329) < 2e-3


def test_fekete_segment():
    # [-1, 1] has capacity 1/2
    est = fekete_oracle(segment_boundary(-1 + 0j, 1 + 0j, 4096), 400)
    assert est.estimate == pytest.approx(0.500343552796144, abs=1e-12)
    assert abs(est.estimate - 0.5) < 1e-3


def test_fekete_empty_lens():
    est = oracle_for_lens(0.25, 0.25, count=50)
    assert est.raw == 0.0 and est.estimate == 0.0 and est.trend == ()


def test_fekete_input_validation():
    with pytest.raises(ValueError):
        fekete_oracle(disk_boundary(1.0, 4096), 9)
    with pytest.raises(ValueError):
        fekete_oracle(disk_boundary(1.0, 100), 400)


def test_lens_boundary_cases():
    assert lens_boundary(0.25, 0.25, 64).size == 0
    assert lens_boundary(2.5, 1.0, 64).size == 64  # containment: one circle
    pts = lens_boundary(1.0, 1.0, 64)
    assert pts.size == 64
    assert all(abs(z) <= 1 + 1e-9 and abs(z - 1) <= 1 + 1e-9 for z in pts)


# ---------------------------------------------------------------------------
# census segment bound


def test_census_bound_worked_example():
    cb = census_capacity_bound(3, 5, 7, 101, HALF)
    assert not cb.is_zero
    assert cb.bound == QuadraticNumber(0, Fraction(1, 20), 101)
    assert not cb.exceeds_one  # sqrt(101)/20 ~ 0.502
    assert cb.bound_interval.lo <= Fraction(503, 1000) <= cb.bound_interval.hi * 2


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 400),
       st.sampled_from((101, 10007, 1000003)))
def test_census_bound_interval_encloses_bound(d1, d2, d3, p):
    if math.gcd(d1, d2) != 1:
        return
    cb = census_capacity_bound(d1, d2, d3, p, HALF)
    lo, hi = cb.bound_interval.lo, cb.bound_interval.hi
    assert QuadraticNumber(lo, 0, p) <= cb.bound <= QuadraticNumber(hi, 0, p)


def test_census_bound_zero_case():
    # d3 so large the strip misses the central square entirely
    cb = census_capacity_bound(2, 1, 301, 10007, HALF)
    assert cb.is_zero
    assert cb.bound == QuadraticNumber(0, 0, 10007)
    assert cb.bound_interval.lo == cb.bound_interval.hi == 0
    assert not cb.exceeds_one


def test_census_bound_exceeds_one():
    cb = census_capacity_bound(5, 4, 20, 10007, HALF)
    assert cb.bound == QuadraticNumber(0, Fraction(1, 20), 10007)
    assert cb.exceeds_one  # sqrt(10007)/20 ~ 5.0


def test_census_bound_validation():
    with pytest.raises(ValueError):
        census_capacity_bound(0, 1, 0, 101, HALF)
    with pytest.raises(ValueError):
        census_capacity_bound(2, 4, 0, 101, HALF)


# ---------------------------------------------------------------------------
# global product


def test_finite_product_rules():
    d = PAdicDisk(prime=3, center=Fraction(0), radius_exp=-2)
    assert finite_capacity(d) == Fraction(1, 9)
    assert finite_capacity(PAdicDisk.empty(3)) == 0
    assert finite_product([d, PAdicDisk(prime=5, center=Fraction(1), radius_exp=0)]) == Fraction(1, 9)
    assert finite_product([]) == 1


def test_sqrtrat_interval_rational_point():
    iv = sqrtrat_interval(SqrtRat.of_rational(Fraction(3, 7)))
    assert iv.lo == iv.hi == Fraction(3, 7)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-54, 54))
def test_sqrtrat_interval_is_a_tight_enclosure(num, den, e):
    # q from 1e-60 to 1e60: an isqrt enclosure of relative width 2**-bits
    q = Fraction(num, den) * Fraction(10) ** e
    iv = sqrtrat_interval(SqrtRat(q))
    assert 0 <= iv.lo and iv.lo ** 2 <= q <= iv.hi ** 2
    assert iv.width * 2 ** precision_bits() <= iv.lo


def test_global_capacity_concentric_instance():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    rep = global_capacity(assemble(inst, find_auxiliary_line(inst)))
    assert rep.finite_product == 1
    assert rep.arch_case == "concentric"
    assert rep.gamma.lo == rep.gamma.hi == Fraction(3, 25)
    assert not rep.is_zero


def test_global_capacity_census_instance():
    side = SqrtRat(Fraction(101, 4))
    inst = CongruenceInstance(n=101, t=69, a=36, X=side, Y=side)
    rep = global_capacity(assemble(inst, find_auxiliary_line(inst)))
    assert rep.finite_product == Fraction(1, 3)
    assert rep.arch_case == "disk1"  # one disk swallows the other
    g = rep.gamma
    # gamma = sqrt(101)/10 exactly; the interval brackets it tightly
    assert g.lo >= 0 and g.lo**2 <= Fraction(101, 100) <= g.hi**2
    assert g.width < Fraction(1, 10**25)
    # exactly twice the segment lower bound sqrt(101)/20
    seg = census_capacity_bound(3, 5, 7, 101, HALF).bound
    assert QuadraticNumber(0, Fraction(2, 1) * seg.b, 101) > QuadraticNumber(1, 0, 101)


def test_capacity_report_json_roundtrip():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    rep = global_capacity(assemble(inst, find_auxiliary_line(inst)))
    again = CapacityReport.from_json(rep.to_json())
    assert again == rep
