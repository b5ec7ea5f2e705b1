"""Verdict thresholds, the full pipeline, and the hidden-number-problem
certification chain, each checked against brute-force secret counts."""
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import capclass
from capclass.adelic import AdelicSet
from capclass.capacity import CapacityReport
from capclass.classify import (
    CertificationResult,
    CertificationStatus,
    DichotomyKind,
    HnpSamples,
    VerdictKind,
    certify_unique_secret,
    classify,
    count_secrets_by_enumeration,
    hnp_reduce,
    homogeneous_dichotomy,
    run_pipeline,
)
from capclass.exact import SqrtRat
from capclass.intervals import RealInterval
from capclass.lattice import (AuxiliaryLine, LineNotFound,
                              SearchSpaceTooLarge)
from capclass.model import CongruenceInstance


def test_package_namespace_keeps_classify_module():
    namespace = {}
    exec("from capclass import *", namespace)
    assert inspect.ismodule(capclass.classify)
    assert capclass.classify.classify is classify
    assert "classify" not in namespace


def _report(lo, hi):
    gamma = RealInterval(Fraction(lo), Fraction(hi))
    return CapacityReport(finite_product=Fraction(1), arch=gamma,
                          arch_case="lens", gamma=gamma,
                          is_zero=(lo == hi == 0), precision=128)


LINE = AuxiliaryLine(d1=3, d2=5, d3=7, n=101)


def test_classify_thresholds():
    assert classify(_report(Fraction(11, 10), Fraction(6, 5)), LINE).kind \
        is VerdictKind.METHOD_CANNOT_SUCCEED
    assert classify(_report(Fraction(1, 2), Fraction(9, 10)), LINE).kind \
        is VerdictKind.METHOD_CAN_SUCCEED
    assert classify(_report(Fraction(99, 100), Fraction(101, 100)), LINE).kind \
        is VerdictKind.BOUNDARY
    # the fence gamma = 1 exactly is BOUNDARY, not a success claim
    assert classify(_report(1, 1), LINE).kind is VerdictKind.BOUNDARY


def test_verdict_narrative_and_json():
    v = classify(_report(Fraction(1, 2), Fraction(9, 10)), LINE)
    assert len(v.narrative) == 3
    assert all(isinstance(s, str) for s in v.narrative)
    obj = v.to_json()
    assert obj["kind"] == "METHOD_CAN_SUCCEED"
    assert obj["line"]["d1"] == "3"
    assert obj["narrative"][-1].startswith("gamma in")


def test_run_pipeline_small_gamma():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    result = run_pipeline(inst)
    assert result.verdict.kind is VerdictKind.METHOD_CAN_SUCCEED
    assert result.verdict.gamma.lo == Fraction(3, 25)
    obj = result.to_json()
    assert set(obj) == {"instance", "line", "adelic", "capacity", "verdict"}
    assert AdelicSet.from_json(obj["adelic"]) == result.adelic


def test_run_pipeline_large_gamma():
    side = SqrtRat(Fraction(101, 4))
    result = run_pipeline(CongruenceInstance(n=101, t=69, a=36, X=side, Y=side))
    assert (result.line.d1, result.line.d2, result.line.d3) == (3, 5, 7)
    assert result.verdict.kind is VerdictKind.METHOD_CANNOT_SUCCEED
    assert result.verdict.gamma.lo > 1


@st.composite
def _bound(draw, n):
    """sqrt(n/k) or a rational, above 1/3."""
    if draw(st.booleans()):
        return SqrtRat(Fraction(n, draw(st.integers(1, 9 * n - 1))))
    return Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 2)))


@st.composite
def _small_instances(draw):
    n = draw(st.integers(2, 3000))
    t = draw(st.integers(1, n))
    while math.gcd(t, n) != 1:
        t += 1
    return CongruenceInstance(n=n, t=t, a=draw(st.integers(0, n - 1)),
                              X=draw(_bound(n)), Y=draw(_bound(n)))


@settings(deadline=None, max_examples=100)
@given(_small_instances())
def test_pipeline_reports_roundtrip_through_json(inst):
    assert CongruenceInstance.from_json(inst.to_json()) == inst
    try:
        result = run_pipeline(inst)
    except (LineNotFound, SearchSpaceTooLarge):
        return
    assert AuxiliaryLine.from_json(result.line.to_json()) == result.line
    assert AdelicSet.from_json(result.adelic.to_json()) == result.adelic
    assert CapacityReport.from_json(result.report.to_json()) == result.report


# ---------------------------------------------------------------------------
# hidden number problem


def test_hnp_reduce_worked_example():
    samples = HnpSamples(c0=3, d0=7, c1=5, d1=11, n=101, X=4)
    assert hnp_reduce(samples) == (32, 33)
    # certification runs on the homogeneous instance at the full budget
    homogeneous = certify_unique_secret(samples).pipeline.instance
    assert (homogeneous.t, homogeneous.a) == (32, 0)
    assert homogeneous.X.sq == homogeneous.Y.sq == 16


def test_hnp_samples_validation():
    with pytest.raises(ValueError):
        HnpSamples(c0=0, d0=1, c1=1, d1=1, n=101, X=4)
    with pytest.raises(ValueError):
        HnpSamples(c0=5, d0=1, c1=1, d1=1, n=10, X=4)  # gcd(5, 10) > 1
    with pytest.raises(ValueError):
        HnpSamples(c0=1, d0=1, c1=1, d1=1, n=0, X=4)


def test_certify_and_enumerate_agree():
    samples = HnpSamples(c0=3, d0=7, c1=5, d1=11, n=101, X=4)
    cert = certify_unique_secret(samples)
    assert cert.status is CertificationStatus.AT_MOST_ONE
    # the certificate rests on the homogeneous instance, gamma = 4/5 exactly
    assert cert.pipeline is not None
    assert cert.pipeline.report.gamma.hi == Fraction(4, 5)
    assert count_secrets_by_enumeration(samples) == 1


def test_certify_planted_secret():
    # secret s = 17: d_i = c_i * s mod 101 with zero error
    samples = HnpSamples(c0=3, d0=51, c1=5, d1=85, n=101, X=4)
    assert certify_unique_secret(samples).status is CertificationStatus.AT_MOST_ONE
    assert count_secrets_by_enumeration(samples) == 1


def test_certify_inconclusive_when_budget_too_large():
    samples = HnpSamples(c0=3, d0=7, c1=5, d1=11, n=101, X=30)
    cert = certify_unique_secret(samples)
    assert cert.status is CertificationStatus.INCONCLUSIVE
    assert cert.pipeline is None
    assert "no auxiliary line" in cert.reason
    obj = cert.to_json()
    assert obj["pipeline"] is None and obj["status"] == "INCONCLUSIVE"


def test_enumeration_counts_zero_for_inconsistent_samples():
    samples = HnpSamples(c0=1, d0=0, c1=1, d1=50, n=101, X=2)
    assert count_secrets_by_enumeration(samples) == 0


# ---------------------------------------------------------------------------
# homogeneous dichotomy


def test_dichotomy_upgrades_finite_to_empty():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    result = run_pipeline(inst)
    assert homogeneous_dichotomy(inst, result.verdict) is DichotomyKind.NO_SOLUTIONS


def test_dichotomy_requires_homogeneous():
    inst = CongruenceInstance(n=12, t=5, a=0, X=Fraction(3, 5), Y=Fraction(3, 5))
    verdict = run_pipeline(inst).verdict
    other = CongruenceInstance(n=12, t=5, a=1, X=Fraction(3, 5), Y=Fraction(3, 5))
    with pytest.raises(ValueError):
        homogeneous_dichotomy(other, verdict)


def test_dichotomy_unknown_when_gamma_large():
    verdict = classify(_report(Fraction(11, 10), Fraction(6, 5)), LINE)
    inst = CongruenceInstance(n=101, t=69, a=0, X=2, Y=2)
    assert homogeneous_dichotomy(inst, verdict) is DichotomyKind.INFINITE_OR_UNKNOWN
