"""Exhaustive box search and the no-smaller-solution check, validated
against a naive double loop and random instances."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_pairs, random_unit, seeded_instance

from capclass.exact import SqrtRat
from capclass.lattice import LineNotFound, find_auxiliary_line
from capclass.model import CongruenceInstance
from capclass.rings import ALL_RINGS, RING_GAUSS, RING_Z
from capclass.search import (
    BoxTooLarge,
    ObstructionInstance,
    box_points_estimate,
    check_obstruction,
    count_solutions,
    enumerate_solutions,
    smaller_solutions,
)

SIDE = SqrtRat(Fraction(101, 4))
CENSUS_INST = CongruenceInstance(n=101, t=69, a=36, X=SIDE, Y=SIDE)


def test_census_box_solutions():
    sols = enumerate_solutions(CENSUS_INST)
    assert sols == [((-4, 0), (1, 0)), ((1, 0), (-2, 0))]
    line = find_auxiliary_line(CENSUS_INST)
    assert all(line.evaluate(x[0], y[0]) == 0 for x, y in sols)


def test_count_solutions_values():
    count = count_solutions(69, 36, 101, SIDE, SIDE)
    assert (count.raw, count.nonzero) == (2, 2)
    assert count_solutions(69, 36, 101, SIDE, SIDE, RING_GAUSS).raw == 2
    # homogeneous: the zero pair always solves and is broken out
    trivial = count_solutions(5, 0, 12, Fraction(3, 5), Fraction(3, 5))
    assert (trivial.raw, trivial.nonzero) == (1, 0)
    assert trivial.to_json() == {"raw": 1, "nonzero": 0}


def test_enumeration_matches_naive_loop():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randrange(20, 201)
        t, a = random_unit(rng, n), rng.randrange(n)
        x_sq, y_sq = rng.randint(1, 30), rng.randint(1, 30)
        inst = CongruenceInstance(n=n, t=t, a=a,
                                  X=SqrtRat(Fraction(x_sq)),
                                  Y=SqrtRat(Fraction(y_sq)))
        for ring in ALL_RINGS:
            got = set(enumerate_solutions(inst, ring))
            assert got == naive_pairs(ring, n, t, a, x_sq, y_sq), \
                (ring.name, n, t, a)


@st.composite
def _bounds(draw):
    """A rational bound p/q or sqrt(p/q), above 1/3, of norm at most 40."""
    q = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return SqrtRat.of_rational(Fraction(draw(st.integers(q // 3 + 1, 6 * q)), q))
    return SqrtRat(Fraction(draw(st.integers(q // 9 + 1, 40 * q)), q))


@st.composite
def _rational_box_instances(draw):
    n = draw(st.integers(1, 150))
    t = draw(st.sampled_from([u for u in range(n) if math.gcd(u, n) == 1]))
    a = draw(st.integers(-n, 2 * n))
    return CongruenceInstance(n=n, t=t, a=a, X=draw(_bounds()),
                              Y=draw(_bounds()))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(ALL_RINGS), _rational_box_instances())
def test_enumeration_matches_naive_loop_on_rational_boxes(ring, inst):
    got = enumerate_solutions(inst, ring)
    assert got == sorted(got) and len(got) == len(set(got))
    assert set(got) == naive_pairs(ring, inst.n, inst.t, inst.a,
                                   inst.X.sq, inst.Y.sq)


def test_line_vanishes_on_every_box_solution():
    # any admissible line takes integer values below 1 in absolute value on
    # box solutions, hence vanishes on all of them
    rng = random.Random(23)
    checked = 0
    while checked < 10:
        inst = seeded_instance(rng, 100, 5000)
        try:
            line = find_auxiliary_line(inst)
        except LineNotFound:
            continue
        for x, y in enumerate_solutions(inst):
            assert line.evaluate(x[0], y[0]) == 0
        checked += 1


def test_box_guard():
    big = CongruenceInstance(n=101, t=5, a=1, X=10**6, Y=10**6)
    assert box_points_estimate(RING_Z, big.X.sq, big.Y.sq) > 10**8
    with pytest.raises(BoxTooLarge):
        enumerate_solutions(big)


# ---------------------------------------------------------------------------
# no-smaller-solution instances


def test_obstruction_worked_example():
    obs = ObstructionInstance(n=12, t=7, x0=(5, 0), y0=(1, 0))
    assert smaller_solutions(obs) == []
    assert check_obstruction(obs)
    assert obs.to_json() == {"n": 12, "t": 7, "ring": "Z",
                             "x0": [5, 0], "y0": [1, 0]}


def test_obstruction_gaussian_examples():
    assert check_obstruction(
        ObstructionInstance(n=5, t=2, x0=(0, -2), y0=(0, 1), ring=RING_GAUSS))
    assert check_obstruction(
        ObstructionInstance(n=13, t=5, x0=(0, -5), y0=(0, 1), ring=RING_GAUSS))


def test_obstruction_hypothesis_validation():
    with pytest.raises(ValueError, match="invertible"):
        ObstructionInstance(n=12, t=4, x0=(5, 0), y0=(1, 0))
    with pytest.raises(ValueError, match="nonzero"):
        ObstructionInstance(n=12, t=7, x0=(0, 0), y0=(1, 0))
    with pytest.raises(ValueError, match="divisible"):
        ObstructionInstance(n=12, t=7, x0=(4, 0), y0=(1, 0))
    with pytest.raises(ValueError, match="coprime"):
        # 2 + 49*2 = 100, |x0*y0| = 4 <= 50, but gcd(2, 2) = 2
        ObstructionInstance(n=100, t=49, x0=(2, 0), y0=(2, 0))
    with pytest.raises(ValueError, match="exceeds n/2"):
        # 3 + 2*1 = 5, but |x0*y0| = 3 > 5/2
        ObstructionInstance(n=5, t=2, x0=(3, 0), y0=(1, 0))


def _centered(v: int, n: int) -> int:
    r = v % n
    return r - n if 2 * r > n else r


def _random_obstruction(rng: random.Random, ring) -> ObstructionInstance:
    while True:
        n = rng.randint(5, 400)
        t = random_unit(rng, n)
        if ring is RING_Z:
            y0 = (rng.randint(1, 3) * rng.choice((-1, 1)), 0)
        else:
            y0 = (rng.randint(-2, 2), rng.randint(-2, 2))
        ty = ring.scale(t, y0)
        x0 = (_centered(-ty[0], n), _centered(-ty[1], n))
        try:
            return ObstructionInstance(n=n, t=t, x0=x0, y0=y0, ring=ring)
        except ValueError:
            continue


def test_random_obstructions_hold():
    rng = random.Random(31)
    for ring in (RING_Z, RING_GAUSS):
        for _ in range(20):
            obs = _random_obstruction(rng, ring)
            assert check_obstruction(obs), obs
