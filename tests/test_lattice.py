import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, settings, strategies as st

from capclass.exact import SqrtRat, floor_sqrt
from capclass.lattice import (AuxiliaryLine, LineNotFound, build_lattice,
                              find_auxiliary_line, lll_reduce, verify_line)
from capclass.model import CongruenceInstance, feasible

from conftest import seeded_instance


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _limit(r_sq: Fraction) -> int:
    """Largest integer e with e*e < r_sq."""
    e = floor_sqrt(r_sq)
    return e - 1 if e * e == r_sq else e


def _representatives(value: int, n: int, limit: int) -> range:
    """Every integer in [-limit, limit] congruent to value mod n."""
    return range(-limit + (value + limit) % n, limit + 1, n)


def _scan(inst):
    """Brute-force oracle: every line vector in the box with e1 > 0, sorted
    by (e1, |e2|, |e3|, e2, e3), plus the in-box (e2, e3) with e1 = 0."""
    n, t, a = inst.n, inst.t, inst.a
    third_sq = Fraction(n * n, 9)
    l1 = _limit(third_sq / inst.X.sq)
    l2 = _limit(third_sq / inst.Y.sq)
    l3 = _limit(third_sq)
    vectors = [(k, e2, e3) for k in range(1, l1 + 1)
               for e2 in _representatives(t * k, n, l2)
               for e3 in _representatives(a * k, n, l3)]
    vectors.sort(key=lambda e: (e[0], abs(e[1]), abs(e[2]), e[1], e[2]))
    zero_lead = [(e2, e3) for e2 in _representatives(0, n, l2)
                 for e3 in _representatives(0, n, l3)]
    return vectors, zero_lead


@st.composite
def _bounds(draw, n):
    """X or Y >= 1/2: an integer, a rational or sqrt(n/k)."""
    kind = draw(st.sampled_from(("integer", "rational", "sqrt")))
    if kind == "integer":
        return SqrtRat.of_rational(Fraction(draw(st.integers(1, 60))))
    if kind == "rational":
        q = draw(st.integers(1, 7))
        return SqrtRat.of_rational(Fraction(draw(st.integers((q + 1) // 2, 300)), q))
    return SqrtRat(Fraction(n, draw(st.integers(1, min(400, 4 * n)))))


@st.composite
def _small_instances(draw):
    n = draw(st.integers(2, 5000))
    t = draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
    a = draw(st.integers(0, n - 1))
    return CongruenceInstance(n=n, t=t, a=a, X=draw(_bounds(n)),
                              Y=draw(_bounds(n)))


# deadline=None: the wall time of one example varies with the host's CPU speed
@settings(deadline=None, max_examples=150)
@given(_small_instances())
def test_search_matches_brute_force_scan(inst):
    vectors, zero_lead = _scan(inst)
    inside = feasible(inst.n, inst.X, inst.Y)[0]
    event(f"X*Y {'<' if inside else '>='} n/27, {'line' if vectors else 'no line'}")
    assert zero_lead == [(0, 0)]
    if not vectors:
        with pytest.raises(LineNotFound):
            find_auxiliary_line(inst)
        return
    line = find_auxiliary_line(inst)
    assert (line.d1, line.d2, line.d3, line.n) == (*vectors[0], inst.n)
    assert verify_line(line, inst)
    m2 = (line.d2 - inst.t * line.d1) // inst.n
    m3 = (line.d3 - inst.a * line.d1) // inst.n
    assert gcd(line.d1, line.d2, line.d3, m2, m3) == 1


def test_lattice_covolume_is_one_over_n():
    # determinant n^2 for the integer vectors e is covolume n^2/n^3 = 1/n
    # for the coefficients b = e/n
    inst = CongruenceInstance(n=101, t=69, a=36, X=2, Y=2)
    basis = build_lattice(inst)
    # inverse squared box radii 9*(X^2, Y^2, 1)/n^2 at X = Y = 2, scaled to
    # integers
    assert abs(_det3(basis)) == 101 ** 2
    assert abs(_det3(lll_reduce(basis, (4, 4, 1)))) == 101 ** 2


def test_worked_example_recovers_census_line():
    b = SqrtRat(Fraction(101, 4))  # X = Y = sqrt(101)/2
    inst = CongruenceInstance(n=101, t=69, a=36, X=b, Y=b)
    line = find_auxiliary_line(inst)
    assert (line.d1, line.d2, line.d3, line.n) == (3, 5, 7, 101)
    assert verify_line(line, inst)
    # the first basis row is the instance vector itself
    assert build_lattice(inst)[0] == (1, 69, 36)


def test_homogeneous_example():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    line = find_auxiliary_line(inst)
    assert (line.d1, line.d2, line.d3) == (1, 5, 0)
    assert verify_line(line, inst)


def test_line_evaluation_and_json():
    line = AuxiliaryLine(d1=3, d2=5, d3=7, n=101)
    assert line.evaluate(-4, 1) == Fraction(0)
    assert line.to_json() == {"d1": "3", "d2": "5", "d3": "7", "n": "101"}
    assert AuxiliaryLine.from_json(line.to_json()) == line


def test_tiny_box_has_no_line():
    inst = CongruenceInstance(n=101, t=69, a=36, X=8, Y=8)
    with pytest.raises(LineNotFound):
        find_auxiliary_line(inst)
    line = find_auxiliary_line(CongruenceInstance(n=101, t=69, a=36, X=6, Y=6))
    assert (line.d1, line.d2, line.d3) == (3, 5, 7)


def test_eighteen_digit_modulus_with_short_instance_vector():
    # the instance vector (1, t, a) is far shorter than the box, so the ball
    # holds about a million of its multiples; the line is the vector itself
    inst = CongruenceInstance(n=10**18 + 3, t=12345, a=678, X=10**8, Y=10**8)
    line = find_auxiliary_line(inst)
    assert (line.d1, line.d2, line.d3) == (1, 12345, 678)
    assert verify_line(line, inst)


def test_seeded_instances_find_and_verify():
    rng = random.Random(20260814)
    for _ in range(30):
        inst = seeded_instance(rng, 10**3, 10**5)
        line = find_auxiliary_line(inst)
        assert verify_line(line, inst)
        # the line really is "small": coefficient box bounds hold strictly
        assert abs(line.b1) * 3 * inst.X < 1
        assert abs(line.b2) * 3 * inst.Y < 1
        assert abs(line.b3) < Fraction(1, 3)
        assert line.b1 != 0


def test_verify_line_rejects_garbage():
    inst = CongruenceInstance(n=101, t=69, a=36, X=2, Y=2)
    good = find_auxiliary_line(inst)
    assert not verify_line(AuxiliaryLine(d1=0, d2=101, d3=0, n=101), inst)
    assert not verify_line(AuxiliaryLine(d1=0, d2=0, d3=0, n=101), inst)
    assert not verify_line(AuxiliaryLine(d1=good.d1, d2=good.d2 + 1,
                                         d3=good.d3, n=101), inst)
    assert not verify_line(AuxiliaryLine(d1=101, d2=69 * 101, d3=36 * 101,
                                         n=101), inst)  # congruent but huge
