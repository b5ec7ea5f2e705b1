"""Verdicts from capacity reports, plus the hidden-number-problem reduction
and secret-uniqueness certification built on top of the pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .adelic import AdelicSet, assemble
from .capacity import CapacityReport, global_capacity
from .exact import FactoringBudgetExceeded, SqrtRat, invmod
from .intervals import RealInterval
from .lattice import (AuxiliaryLine, LineNotFound, SearchSpaceTooLarge,
                      find_auxiliary_line)
from .model import CongruenceInstance, bound_token


class VerdictKind(str, Enum):
    # gamma < 1: only finitely many small solutions, so the auxiliary-
    # polynomial construction can pin them down
    METHOD_CAN_SUCCEED = "METHOD_CAN_SUCCEED"
    # gamma > 1: infinitely many algebraic-integer solutions survive every
    # auxiliary polynomial divisible by the first line
    METHOD_CANNOT_SUCCEED = "METHOD_CANNOT_SUCCEED"
    # the interval straddles 1 (including the genuine gamma = 1 fence)
    BOUNDARY = "BOUNDARY"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    gamma: RealInterval
    line: AuxiliaryLine
    narrative: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "gamma": self.gamma.to_json(),
            "line": self.line.to_json(),
            "narrative": list(self.narrative),
        }


def classify(report: CapacityReport, line: AuxiliaryLine) -> Verdict:
    gamma = report.gamma
    if gamma.strictly_below(1):
        kind = VerdictKind.METHOD_CAN_SUCCEED
        tail = "strictly below 1: finitely many solutions, method can succeed"
    elif gamma.strictly_above(1):
        kind = VerdictKind.METHOD_CANNOT_SUCCEED
        tail = "strictly above 1: infinitely many solutions, method cannot succeed"
    else:
        kind = VerdictKind.BOUNDARY
        tail = "interval contains 1: no definite conclusion at this precision"
    narrative = (
        f"finite-place capacity product = {report.finite_product}",
        f"archimedean factor in [{float(report.arch.lo)!r}, "
        f"{float(report.arch.hi)!r}] ({report.arch_case})",
        f"gamma in [{float(gamma.lo)!r}, {float(gamma.hi)!r}] {tail}",
    )
    return Verdict(kind=kind, gamma=gamma, line=line, narrative=narrative)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the full analysis produces, each stage kept as evidence."""

    instance: CongruenceInstance
    line: AuxiliaryLine
    adelic: AdelicSet
    report: CapacityReport
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "instance": self.instance.to_json(),
            "line": self.line.to_json(),
            "adelic": self.adelic.to_json(),
            "capacity": self.report.to_json(),
            "verdict": self.verdict.to_json(),
        }


def run_pipeline(instance: CongruenceInstance) -> PipelineResult:
    line = find_auxiliary_line(instance)
    adset = assemble(instance, line)
    report = global_capacity(adset)
    return PipelineResult(
        instance=instance,
        line=line,
        adelic=adset,
        report=report,
        verdict=classify(report, line),
    )


# ---------------------------------------------------------------------------
# hidden number problem


@dataclass(frozen=True)
class HnpSamples:
    """Two samples (c_i, d_i) with c_i*s - d_i small mod n for a secret s.

    X is the size budget: each error c_i*s - d_i is promised to have
    absolute value at most X/2.
    """

    c0: int
    d0: int
    c1: int
    d1: int
    n: int
    X: SqrtRat

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if math.gcd(self.c0, self.n) != 1:
            raise ValueError("c0 must be invertible mod n")
        if not isinstance(self.X, SqrtRat):
            object.__setattr__(self, "X", SqrtRat.of_rational(Fraction(self.X)))
        if not self.X > Fraction(1, 3):
            raise ValueError("X must exceed 1/3")

    def to_json(self) -> dict:
        return {"c0": self.c0, "d0": self.d0, "c1": self.c1, "d1": self.d1,
                "n": self.n, "X": bound_token(self.X)}


def hnp_reduce(samples: HnpSamples) -> tuple[int, int]:
    """Eliminate the secret: with s = c0'(x0 + d0), the second sample reads
    x1 + t*x0 + a = 0 mod n with t = -c1*c0' and a = d1 - c1*c0'*d0.

    Returns (t, a); the pair of errors (x1, x0) plays (x, y).
    """
    n = samples.n
    c0_inv = invmod(samples.c0, n)
    t = (-samples.c1 * c0_inv) % n
    a = (samples.d1 - samples.c1 * c0_inv * samples.d0) % n
    return t, a


class CertificationStatus(str, Enum):
    AT_MOST_ONE = "AT_MOST_ONE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CertificationResult:
    status: CertificationStatus
    reason: str
    pipeline: Optional[PipelineResult]

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "reason": self.reason,
            "pipeline": self.pipeline.to_json() if self.pipeline else None,
        }


def certify_unique_secret(samples: HnpSamples) -> CertificationResult:
    """Certify that at most one secret s mod n fits the samples.

    Sound but not complete: AT_MOST_ONE needs the homogeneous capacity
    strictly below 1 over the whole interval; anything else (including a
    failed line search or an unfactored d1) is INCONCLUSIVE, never a false
    certificate.
    """
    t, _ = hnp_reduce(samples)
    homogeneous = CongruenceInstance(n=samples.n, t=t, a=0, X=samples.X,
                                     Y=samples.X)
    try:
        result = run_pipeline(homogeneous)
    except (LineNotFound, SearchSpaceTooLarge) as exc:
        return CertificationResult(
            status=CertificationStatus.INCONCLUSIVE,
            reason=f"no auxiliary line: {exc}",
            pipeline=None,
        )
    except FactoringBudgetExceeded as exc:
        return CertificationResult(
            status=CertificationStatus.INCONCLUSIVE,
            reason=f"no adelic set: {exc}",
            pipeline=None,
        )
    if result.verdict.kind is VerdictKind.METHOD_CAN_SUCCEED:
        return CertificationResult(
            status=CertificationStatus.AT_MOST_ONE,
            reason="homogeneous capacity strictly below 1: a difference of two "
                   "secrets would yield a small nonzero homogeneous solution, "
                   "and none exist",
            pipeline=result,
        )
    return CertificationResult(
        status=CertificationStatus.INCONCLUSIVE,
        reason=f"homogeneous verdict {result.verdict.kind.value} does not "
               "certify uniqueness",
        pipeline=result,
    )


def count_secrets_by_enumeration(samples: HnpSamples) -> int:
    """Brute-force ground truth: how many residues s mod n reproduce both
    samples with errors of absolute value at most X/2. Desk scale only."""
    n = samples.n
    half_sq = (samples.X / 2).sq
    hits = 0
    for s in range(n):
        x0 = _centered(samples.c0 * s - samples.d0, n)
        if x0 * x0 > half_sq:
            continue
        x1 = _centered(samples.c1 * s - samples.d1, n)
        if x1 * x1 <= half_sq:
            hits += 1
    return hits


def _centered(value: int, n: int) -> int:
    r = value % n
    return r - n if 2 * r > n else r


class DichotomyKind(str, Enum):
    NO_SOLUTIONS = "NO_SOLUTIONS"
    INFINITE_OR_UNKNOWN = "INFINITE_OR_UNKNOWN"


def homogeneous_dichotomy(instance: CongruenceInstance,
                          verdict: Verdict) -> DichotomyKind:
    """For a = 0 the solution count over all algebraic integers is 0 or
    infinite (root-of-unity scaling), so gamma < 1 upgrades finiteness to
    emptiness."""
    if instance.a != 0:
        raise ValueError("dichotomy only applies to the homogeneous case a = 0")
    if verdict.kind is VerdictKind.METHOD_CAN_SUCCEED:
        return DichotomyKind.NO_SOLUTIONS
    return DichotomyKind.INFINITE_OR_UNKNOWN
