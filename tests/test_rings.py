"""Arithmetic in the four quadratic search rings, checked against direct
definitions and brute-force disk enumeration."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_disk

from capclass.rings import (
    ALL_RINGS,
    RING_GAUSS,
    RING_OMEGA,
    RING_SQRT_MINUS_2,
    RING_Z,
    ring_by_name,
)


def _elements(ring, rng, span=20):
    # canonical plain integers keep v = 0
    while True:
        u = rng.randint(-span, span)
        v = 0 if ring is RING_Z else rng.randint(-span, span)
        yield (u, v)


def test_theta_squared_identities():
    assert RING_GAUSS.mul((0, 1), (0, 1)) == (-1, 0)         # i^2 = -1
    assert RING_SQRT_MINUS_2.mul((0, 1), (0, 1)) == (-2, 0)
    assert RING_OMEGA.mul((0, 1), (0, 1)) == (-1, 1)         # omega^2 = omega - 1


def test_norm_is_multiplicative():
    rng = random.Random(1)
    for ring in ALL_RINGS:
        gen = _elements(ring, rng)
        for _ in range(50):
            x, y = next(gen), next(gen)
            assert ring.norm(ring.mul(x, y)) == ring.norm(x) * ring.norm(y)


def test_conjugate_gives_norm():
    rng = random.Random(2)
    for ring in ALL_RINGS:
        gen = _elements(ring, rng)
        for _ in range(25):
            x = next(gen)
            assert ring.mul(x, ring.conj(x)) == (ring.norm(x), 0)


def test_units():
    assert RING_Z.is_unit((1, 0)) and RING_Z.is_unit((-1, 0))
    assert RING_GAUSS.is_unit((0, 1))
    assert not RING_SQRT_MINUS_2.is_unit((0, 1))  # norm 2
    assert RING_OMEGA.is_unit((0, 1)) and RING_OMEGA.is_unit((1, -1))


def test_divmod_rounded_is_euclidean():
    rng = random.Random(3)
    for ring in ALL_RINGS:
        gen = _elements(ring, rng)
        done = 0
        while done < 60:
            x, y = next(gen), next(gen)
            if ring.is_zero(y):
                continue
            q, r = ring.divmod_rounded(x, y)
            assert ring.add(ring.mul(q, y), r) == x
            assert ring.norm(r) < ring.norm(y)
            done += 1
        with pytest.raises(ZeroDivisionError):
            ring.divmod_rounded((1, 0), (0, 0))


def test_gcd_divides_both_arguments():
    rng = random.Random(4)
    for ring in ALL_RINGS:
        gen = _elements(ring, rng, span=30)
        done = 0
        while done < 40:
            x, y = next(gen), next(gen)
            if ring.is_zero(x) and ring.is_zero(y):
                continue
            g = ring.gcd(x, y)
            assert not ring.is_zero(g)
            for arg in (x, y):
                if not ring.is_zero(arg):
                    _, r = ring.divmod_rounded(arg, g)
                    assert ring.is_zero(r)
            done += 1


def test_gcd_on_plain_integers_matches_math_gcd():
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        if a == 0 and b == 0:
            continue
        g = RING_Z.gcd((a, 0), (b, 0))
        assert abs(g[0]) == math.gcd(a, b) and g[1] == 0


def test_gcd_worked_example():
    # 1 + i divides 2 in the Gaussian integers
    g = RING_GAUSS.gcd((2, 0), (1, 1))
    assert RING_GAUSS.norm(g) == 2
    assert RING_GAUSS.coprime((1, 1), (1, -2))  # norms 2 and 5


def test_disk_counts():
    assert len(list(RING_GAUSS.elements_in_disk(Fraction(25)))) == 81
    assert len(list(RING_GAUSS.elements_in_disk(Fraction(1)))) == 5
    assert len(list(RING_OMEGA.elements_in_disk(Fraction(1)))) == 7  # hexagonal
    assert len(list(RING_SQRT_MINUS_2.elements_in_disk(Fraction(2)))) == 5
    assert len(list(RING_Z.elements_in_disk(Fraction(2)))) == 3
    assert list(RING_GAUSS.elements_in_disk(Fraction(-1))) == []


def test_disk_enumeration_matches_brute_force():
    for ring in ALL_RINGS:
        for radius_sq in (Fraction(0), Fraction(1, 2), Fraction(7),
                          Fraction(101, 4), Fraction(30)):
            got = sorted(ring.elements_in_disk(radius_sq))
            assert got == brute_disk(ring, radius_sq), (ring.name, radius_sq)


def test_congruent_disk_enumeration():
    rows = {ring: ring.disk_rows(Fraction(30)) for ring in ALL_RINGS}
    for ring in ALL_RINGS:
        for modulus, residue in ((2, (1, 0)), (3, (1, 2)), (5, (0, 4))):
            if ring is RING_Z:
                residue = (residue[0], 0)
            got = sorted(ring.elements_in_disk_congruent(rows[ring], modulus,
                                                         residue))
            want = [x for x in brute_disk(ring, Fraction(30))
                    if (x[0] - residue[0]) % modulus == 0
                    and (x[1] - residue[1]) % modulus == 0]
            assert got == want, (ring.name, modulus, residue)


def test_disk_rows_shape():
    # row k is v = k - vmax, empty rows kept: Z[omega] at radius 3/4 has
    # rows v = -1, 0, 1 with only the middle one nonempty
    assert RING_OMEGA.disk_rows(Fraction(3, 4)) == [(-1, 1, 0), (0, 0, 0),
                                                    (1, 0, -1)]
    assert RING_GAUSS.disk_rows(Fraction(2)) == [(-1, -1, 1), (0, -1, 1),
                                                 (1, -1, 1)]
    assert RING_Z.disk_rows(Fraction(9, 4)) == [(0, -1, 1)]
    assert RING_GAUSS.disk_rows(Fraction(0)) == [(0, 0, 0)]
    assert RING_GAUSS.disk_rows(Fraction(-1, 3)) == []


_radii = st.builds(Fraction, st.integers(-20, 300), st.integers(1, 9))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(ALL_RINGS), _radii)
def test_disk_rows_match_square_scan(ring, radius_sq):
    want = brute_disk(ring, radius_sq)
    rows = ring.disk_rows(radius_sq)
    assert sorted((u, v) for v, lo, hi in rows
                  for u in range(lo, hi + 1)) == want
    assert (len(rows) % 2 == 1) == (radius_sq >= 0)
    assert [v for v, _, _ in rows] == [k - len(rows) // 2
                                       for k in range(len(rows))]
    assert sorted(ring.elements_in_disk(radius_sq)) == want


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(ALL_RINGS), _radii, st.integers(1, 12),
       st.tuples(st.integers(-60, 60), st.integers(-60, 60)))
def test_congruent_rows_match_square_scan(ring, radius_sq, modulus, residue):
    got = list(ring.elements_in_disk_congruent(ring.disk_rows(radius_sq),
                                               modulus, residue))
    want = [x for x in brute_disk(ring, radius_sq)
            if (x[0] - residue[0]) % modulus == 0
            and (x[1] - residue[1]) % modulus == 0]
    assert sorted(got) == want
    assert len(got) == len(set(got))


def test_ring_names_and_aliases():
    assert ring_by_name("gauss") is RING_GAUSS
    assert ring_by_name("eisenstein") is RING_OMEGA
    assert ring_by_name("int") is RING_Z
    assert ring_by_name("sqrt-2") is RING_SQRT_MINUS_2
    with pytest.raises(KeyError):
        ring_by_name("Z[sqrt(-5)]")

