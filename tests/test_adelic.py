from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import event, given, settings, strategies as st

from capclass.adelic import (AdelicSet, ArchLens, PAdicDisk, arch_set,
                             assemble, exceptional_primes, local_set_at,
                             padic_intersect)
from capclass.capacity import finite_capacity, finite_product
from capclass.exact import SqrtRat, is_prime, padic_valuation, prime_factors
from capclass.lattice import (AuxiliaryLine, LineNotFound, SearchSpaceTooLarge,
                              find_auxiliary_line)
from capclass.model import CongruenceInstance

CENSUS_LINE = AuxiliaryLine(d1=3, d2=5, d3=7, n=101)
CENSUS_INST = CongruenceInstance(n=101, t=69, a=36,
                                 X=SqrtRat(Fraction(101, 4)),
                                 Y=SqrtRat(Fraction(101, 4)))


def test_disk_basics():
    d = PAdicDisk(prime=3, center=Fraction(-7, 5), radius_exp=-1)
    assert d.radius == Fraction(1, 3)
    assert d.contains(Fraction(-7, 5) + 3)
    assert not d.contains(Fraction(-7, 5) + 1)
    e = PAdicDisk.empty(3)
    assert e.is_empty and not e.contains(Fraction(0))
    assert PAdicDisk.from_json(d.to_json()) == d


def test_padic_intersect_cases():
    unit = PAdicDisk(prime=5, center=Fraction(0), radius_exp=0)
    small = PAdicDisk(prime=5, center=Fraction(25), radius_exp=-2)
    assert padic_intersect(unit, small) == small  # nested (25 = 0 mod 1)
    far = PAdicDisk(prime=5, center=Fraction(1, 5), radius_exp=0)
    assert padic_intersect(unit, far).is_empty   # centers 1/5 apart: |.| = 5
    shifted = PAdicDisk(prime=5, center=Fraction(3), radius_exp=-1)
    got = padic_intersect(unit, shifted)
    assert got == shifted  # same class mod 1, smaller radius wins


def census_local_disk(line: AuxiliaryLine, p: int) -> PAdicDisk:
    """Fast-path local disk D(-d3/d2, |d1|_p), valid for census lines
    (coprime d1, d2; prime modulus) at primes p not dividing d2."""
    if line.d2 % p == 0:
        raise ValueError("fast path needs p coprime to d2")
    return PAdicDisk(prime=p, center=Fraction(-line.d3, line.d2),
                     radius_exp=-padic_valuation(Fraction(line.d1), p))


def old_exceptional_primes(instance, line) -> list[int]:
    """Every prime of d1, d2 and n: the reference set for the differential
    test below."""
    ps = set(prime_factors(line.d1)) | set(prime_factors(instance.n))
    if line.d2 != 0:
        ps |= set(prime_factors(line.d2))
    return sorted(ps)


def test_census_fast_path_agreement():
    # the direct formula and the three-condition intersection must coincide
    # at every prime of d1*d2*n where the formula applies (p not dividing d2)
    for p in old_exceptional_primes(CENSUS_INST, CENSUS_LINE):
        if CENSUS_LINE.d2 % p == 0:
            continue
        direct = census_local_disk(CENSUS_LINE, p)
        full = local_set_at(CENSUS_INST, CENSUS_LINE, p)
        assert direct.same_disk(full), (p, direct, full)


def test_local_set_values_for_worked_example():
    at3 = local_set_at(CENSUS_INST, CENSUS_LINE, 3)
    assert at3.radius == Fraction(1, 3)
    assert at3.contains(Fraction(-7, 5))
    at5 = local_set_at(CENSUS_INST, CENSUS_LINE, 5)
    assert at5.radius == Fraction(1)  # 5 divides d2 but not d1: full disk
    at101 = local_set_at(CENSUS_INST, CENSUS_LINE, 101)
    assert at101.radius == Fraction(1)


def test_exceptional_primes_cover_line_and_modulus():
    # only the primes of d1: 5 | d2 and 101 = n give the unit disk
    assert exceptional_primes(CENSUS_LINE) == [3]
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    line = find_auxiliary_line(inst)
    assert exceptional_primes(line) == prime_factors(line.d1)
    assert old_exceptional_primes(inst, line) == [2, 3, 5]


def test_arch_set_shapes():
    # b2 = 0 and |b3| <= |b1| X: a plain disk of radius Y
    inst = CongruenceInstance(n=12, t=5, a=0, X=2, Y=2)
    disk = arch_set(inst, AuxiliaryLine(d1=1, d2=0, d3=1, n=12))
    assert disk.kind == "disk" and disk.Y.sq == 4
    # b2 = 0 and |b3| > |b1| X: no point satisfies the line bound
    empty = arch_set(inst, AuxiliaryLine(d1=1, d2=0, d3=8, n=12))
    assert empty.kind == "empty"
    lens = arch_set(CENSUS_INST, CENSUS_LINE)
    assert lens.kind == "lens"
    assert lens.center == Fraction(-7, 5)
    assert lens.rho.sq == Fraction(101, 4) * Fraction(9, 25)  # X * |b1/b2|


def test_assemble_and_json_roundtrip():
    adset = assemble(CENSUS_INST, CENSUS_LINE)
    assert [d.prime for d in adset.finite] == [3]
    again = AdelicSet.from_json(adset.to_json())
    assert again == adset

    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    adset12 = assemble(inst, find_auxiliary_line(inst))
    assert all(d.radius == 1 for d in adset12.finite)
    assert adset12.arch.kind == "lens" and adset12.arch.center == 0


def test_census_disk_needs_coprime_d2():
    with pytest.raises(ValueError):
        census_local_disk(AuxiliaryLine(d1=3, d2=6, d3=1, n=101), 3)


@st.composite
def _bound(draw, n):
    """An integer, a rational or sqrt(n/k) bound above 1/3, from well inside
    the box X*Y < n/27 to just past it."""
    kind = draw(st.sampled_from(("integer", "rational", "sqrt")))
    if kind == "integer":
        return SqrtRat.of_rational(draw(st.integers(1, max(1, isqrt(n // 27)))))
    if kind == "rational":
        q = draw(st.integers(2, 9))
        lo = q // 3 + 1
        return SqrtRat.of_rational(Fraction(
            draw(st.integers(lo, max(lo, q * isqrt(n // 27)))), q))
    return SqrtRat(Fraction(n, draw(st.integers(20, 27 * 27))))


@st.composite
def _moduli(draw):
    kind = draw(st.sampled_from(("prime", "prime power", "composite")))
    if kind == "prime":
        n = draw(st.integers(100, 10**6))
        while not is_prime(n):
            n += 1
    elif kind == "prime power":
        p = draw(st.sampled_from((2, 3, 5, 7, 101)))
        n = p ** draw(st.integers(2, 20))
        while n > 10**6:
            n //= p
        while n < 100:
            n *= p
    else:
        n = draw(st.integers(10, 1000)) * draw(st.integers(10, 1000))
    event(kind)
    return n


@st.composite
def _instances(draw):
    n = draw(_moduli())
    t = draw(st.integers(1, n - 1))
    while gcd(t, n) != 1:
        t += 1
    return CongruenceInstance(n=n, t=t, a=draw(st.integers(0, n - 1)),
                              X=draw(_bound(n)), Y=draw(_bound(n)))


# deadline=None: the wall time of one example varies with the host's CPU speed
@settings(deadline=None, max_examples=400)
@given(_instances())
def test_primes_of_d1_give_the_old_finite_product(inst):
    # differential against a scan over every prime of d1*d2*n; off the
    # primes of d1 each local set must be the unit disk
    try:
        line = find_auxiliary_line(inst)
    except (LineNotFound, SearchSpaceTooLarge):
        event("refused")
        return
    old = Fraction(1)
    for p in old_exceptional_primes(inst, line):
        local = local_set_at(inst, line, p)
        old *= finite_capacity(local)
        if line.d1 % p:
            assert local.same_disk(PAdicDisk(p, Fraction(0), 0)), (p, local)
    assert finite_product(assemble(inst, line).finite) == old
