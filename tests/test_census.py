"""Census machinery: sampling windows, the triple-to-instance map, seeded
sampling, outcome tallies, and the lattice round trip."""
import json
from fractions import Fraction
from itertools import islice

import pytest

from capclass.census import (
    CensusParams,
    TripleBox,
    base_box,
    chi_box,
    gamma_gt_one_box,
    gamma_zero_box,
    lambda_map,
    roundtrip_uniqueness,
    run_census,
    sample_triples,
    wilson_interval,
)
from capclass.exact import QuadraticNumber

HALF = Fraction(1, 2)


def params_10007(**kw):
    kw.setdefault("sample_size", 100)
    kw.setdefault("seed", 7)
    return CensusParams(p=10007, c=HALF, **kw)


# ---------------------------------------------------------------------------
# windows


def test_base_box_small_prime():
    box = base_box(CensusParams(p=101, c=HALF, sample_size=6, seed=3))
    assert box.d1 == (1, 7) and box.d2 == (1, 7) and box.d3 == (0, 0)


def test_base_box_census_prime():
    box = base_box(params_10007())
    assert box.d1 == (2, 75) and box.d2 == (1, 75) and box.d3 == (0, 39)


def test_gamma_gt_one_box():
    box = gamma_gt_one_box(params_10007())
    assert box.d1 == (4, 6) and box.d2 == (4, 6) and box.d3 == (0, 39)


def test_gamma_zero_box_with_wide_window():
    box = gamma_zero_box(params_10007(z=Fraction(1, 32)))
    assert box.d1 == (2, 5) and box.d2 == (1, 1) and box.d3 == (301, 312)


def test_gamma_zero_box_infeasible_at_default_window():
    # default z puts the ceiling on d3 at 39, but emptiness of the real
    # trace needs d3 >= 151 even at the smallest admissible d1
    with pytest.raises(ValueError, match="need d3 >= 151"):
        gamma_zero_box(params_10007())


def test_chi_box_rejects_bad_ranges():
    with pytest.raises(ValueError):
        chi_box(params_10007(), (Fraction(1, 2), Fraction(1, 4)), (0, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        CensusParams(p=10008, c=HALF)  # composite modulus
    with pytest.raises(ValueError):
        CensusParams(p=10007, c=Fraction(2, 3))
    with pytest.raises(ValueError):
        CensusParams(p=10007, c=HALF, w=0)
    with pytest.raises(ValueError):
        CensusParams(p=10007, c=HALF, z=1)
    with pytest.raises(ValueError, match="uniqueness ceiling"):
        CensusParams(p=10007, c=HALF, z=Fraction(1, 16))  # > 3wc^2 = 1/32
    with pytest.raises(ValueError):
        CensusParams(p=2, c=Fraction(1, 5))  # box side below 1/3
    with pytest.raises(ValueError):
        CensusParams(p=10007, c=HALF, sample_size=0)


def test_box_bound_is_c_sqrt_p():
    assert params_10007().box_bound.sq == Fraction(10007, 4)


# ---------------------------------------------------------------------------
# sampling and the instance map


def test_sampling_is_seeded_and_coprime():
    first = list(islice(sample_triples(params_10007()), 5))
    assert first == [(43, 20, 25), (14, 47, 37), (9, 65, 13),
                     (55, 9, 15), (13, 71, 27)]
    again = list(islice(sample_triples(params_10007()), 5))
    assert again == first
    import math
    box = base_box(params_10007())
    for d1, d2, d3 in sample_triples(params_10007()):
        assert math.gcd(d1, d2) == 1
        assert box.d1[0] <= d1 <= box.d1[1]
        assert box.d2[0] <= d2 <= box.d2[1]
        assert box.d3[0] <= d3 <= box.d3[1]


def test_sampling_rejects_empty_window():
    with pytest.raises(ValueError, match="empty sampling window"):
        list(sample_triples(params_10007(), TripleBox((5, 4), (1, 1), (0, 0))))


def test_lambda_map_values():
    assert lambda_map(3, 5, 7, 101) == (69, 36)
    assert lambda_map(1, 5, 9, 101) == (5, 9)  # d1 = 1 is the identity
    with pytest.raises(ValueError):
        lambda_map(101, 5, 9, 101)


def test_roundtrip_uniqueness_on_sampled_window():
    params = CensusParams(p=101, c=HALF, sample_size=6, seed=3)
    triples = list(sample_triples(params))
    assert triples == [(2, 5, 0), (3, 5, 0), (6, 5, 0),
                       (5, 1, 0), (3, 5, 0), (5, 7, 0)]
    assert all(roundtrip_uniqueness(*tr, params) for tr in triples)


def test_roundtrip_uniqueness_worked_triple():
    # d3 = 7 needs a window wider than the default: w = 1/10 lifts the
    # ceiling to 3wc^2 = 3/40 and z = 29/404 puts z*p just above 7
    params = CensusParams(p=101, c=HALF, w=Fraction(1, 10),
                          z=Fraction(29, 404), sample_size=1)
    assert base_box(params).d3 == (0, 7)
    assert roundtrip_uniqueness(3, 5, 7, params)


# ---------------------------------------------------------------------------
# tallies


def test_wilson_interval_shape():
    lo, hi = wilson_interval(5, 10)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_run_census_frozen_tallies():
    res = run_census(params_10007())
    assert res.sample_size == 100
    assert res.counts == {"gamma_gt_1": 39, "gamma_zero": 0, "other": 61}
    assert res.lambda_injective
    assert res.fraction("gamma_gt_1") == Fraction(39, 100)
    lo, hi = res.wilson("gamma_gt_1")
    assert f"{lo:.9f}" == "0.300168740" and f"{hi:.9f}" == "0.487969830"


def test_run_census_record_invariants():
    res = run_census(params_10007())
    for rec in res.records:
        # the exact segment bound can never exceed the full capacity
        assert rec.bound.bound_interval.lo <= rec.report.gamma.hi
        assert rec.bound.is_zero == (rec.bound.bound_interval.hi == 0)
        # finite part of a census line is exactly 1/d1
        assert rec.report.finite_product == Fraction(1, rec.d1)
        assert rec.outcome in ("gamma_gt_1", "gamma_zero", "other")


def test_census_json_is_deterministic():
    a = json.dumps(run_census(params_10007()).to_json(), sort_keys=True)
    b = json.dumps(run_census(params_10007()).to_json(), sort_keys=True)
    assert a == b


def test_census_json_without_records():
    obj = run_census(params_10007(sample_size=5)).to_json(include_records=False)
    assert "records" not in obj
    assert obj["sample_size"] == 5
    assert set(k for k in obj if k.startswith("fraction_")) == \
        {"fraction_gamma_gt_1", "fraction_gamma_zero", "fraction_other"}


def test_forced_gt1_box_is_pure():
    res = run_census(params_10007(sample_size=40), box=gamma_gt_one_box(params_10007()))
    assert res.counts["gamma_gt_1"] == 40
    one = QuadraticNumber(1, 0, 10007)
    for rec in res.records:
        assert rec.bound.exceeds_one or rec.report.gamma.lo > 1
        assert not rec.bound.bound < one


def test_forced_zero_box_is_pure():
    params = params_10007(z=Fraction(1, 32), sample_size=40)
    res = run_census(params, box=gamma_zero_box(params))
    assert res.counts["gamma_zero"] == 40
    assert all(rec.bound.is_zero for rec in res.records)
