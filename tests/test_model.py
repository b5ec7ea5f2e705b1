from fractions import Fraction

import pytest

from capclass.exact import SqrtRat
from capclass.model import (CongruenceInstance, bound_token, feasible,
                            minkowski_threshold, parse_bound)


def test_instance_canonicalizes_residues():
    inst = CongruenceInstance(n=12, t=17, a=-1, X=1, Y=1)
    assert inst.t == 5 and inst.a == 11


def test_instance_validation():
    with pytest.raises(ValueError):
        CongruenceInstance(n=12, t=4, a=0, X=1, Y=1)  # gcd(t, n) != 1
    with pytest.raises(ValueError):
        CongruenceInstance(n=12, t=5, a=0, X=0, Y=1)  # X must be positive
    with pytest.raises(ValueError):
        CongruenceInstance(n=12, t=5, a=0, X=1, Y=Fraction(1, 3))  # Y > 1/3
    with pytest.raises(ValueError):
        CongruenceInstance(n=0, t=1, a=0, X=1, Y=1)


def test_instance_from_json_takes_only_integers():
    spec = {"n": "101", "t": 69, "a": "-65", "X": 2, "Y": "sqrt(3)"}
    inst = CongruenceInstance.from_json(spec)
    assert (inst.n, inst.t, inst.a) == (101, 69, 36)
    # a float is refused rather than truncated, and a bool is not an integer
    for key, bad in (("n", 101.9), ("t", True), ("a", "1.5"), ("n", None)):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            CongruenceInstance.from_json({**spec, key: bad})


def test_bound_token_roundtrip():
    for b in (SqrtRat.of_rational(Fraction(3, 5)), SqrtRat(101),
              SqrtRat(Fraction(101, 4)), SqrtRat.of_rational(2)):
        assert parse_bound(bound_token(b)).sq == b.sq
    assert bound_token(SqrtRat.of_rational(Fraction(3, 5))) == "3/5"
    assert bound_token(SqrtRat(Fraction(101, 4))) == "sqrt(101/4)"
    with pytest.raises(ValueError):
        parse_bound("sqrt(-1)")


def test_minkowski_threshold_rational_field():
    assert minkowski_threshold(1000) == Fraction(1000, 27)


def test_feasible_margins():
    six, seven = SqrtRat.of_rational(6), SqrtRat.of_rational(7)
    ok, margin = feasible(1000, six, six)
    assert ok and margin == Fraction(1000, 27) - 36
    ok, margin = feasible(1000, seven, seven)
    assert not ok and margin < 0
    # irrational box: X = Y = sqrt(101)/2 on n = 101 is infeasible (XY > n/27)
    b = SqrtRat(Fraction(101, 4))
    ok, _ = feasible(101, b, b)
    assert not ok
