"""Capacity-based solvability classification for x + t*y + a = 0 mod n
with size bounds |x| <= X, |y| <= Y.

The pipeline: construct the first auxiliary line by exact lattice reduction
(lattice), turn it into a local constraint set at every relevant place
(adelic), compute the capacity of that set with certified interval bounds
(capacity), and compare against 1 (classify). Census sampling, brute-force
box search and hidden-number certification sit on top.
"""

from .adelic import AdelicSet, ArchLens, PAdicDisk, assemble, local_set_at
from .capacity import (CapacityReport, CensusBound, census_capacity_bound,
                       fekete_oracle, global_capacity, lens_capacity,
                       lens_value, oracle_for_lens)
from .census import (CensusParams, CensusResult, gamma_gt_one_box,
                     gamma_zero_box, lambda_map, roundtrip_uniqueness,
                     run_census, sample_triples, wilson_interval)
from .classify import (CertificationResult, CertificationStatus, HnpSamples,
                       PipelineResult, Verdict, VerdictKind,
                       certify_unique_secret, count_secrets_by_enumeration,
                       hnp_reduce, homogeneous_dichotomy, run_pipeline)
from .exact import FactoringBudgetExceeded, QuadraticNumber, SqrtRat
from .intervals import RealInterval, precision_bits
from .lattice import (AuxiliaryLine, LineNotFound, SearchSpaceTooLarge,
                      find_auxiliary_line, verify_line)
from .model import CongruenceInstance, feasible, minkowski_threshold
from .rings import (ALL_RINGS, RING_GAUSS, RING_OMEGA, RING_SQRT_MINUS_2,
                    RING_Z, SearchRing, ring_by_name)
from .search import (BoxTooLarge, ObstructionInstance, SolutionCount,
                     check_obstruction, count_solutions, enumerate_solutions,
                     smaller_solutions)

__version__ = "0.1.0"

__all__ = [
    "AdelicSet", "ArchLens", "PAdicDisk", "assemble", "local_set_at",
    "CapacityReport", "CensusBound", "census_capacity_bound", "fekete_oracle",
    "global_capacity", "lens_capacity", "lens_value", "oracle_for_lens",
    "CensusParams", "CensusResult", "gamma_gt_one_box", "gamma_zero_box",
    "lambda_map", "roundtrip_uniqueness", "run_census", "sample_triples",
    "wilson_interval",
    "CertificationResult", "CertificationStatus", "HnpSamples",
    "PipelineResult", "Verdict", "VerdictKind", "certify_unique_secret",
    "count_secrets_by_enumeration", "hnp_reduce",
    "homogeneous_dichotomy", "run_pipeline",
    "FactoringBudgetExceeded", "QuadraticNumber", "SqrtRat", "RealInterval", "precision_bits",
    "AuxiliaryLine", "LineNotFound", "SearchSpaceTooLarge",
    "find_auxiliary_line", "verify_line",
    "CongruenceInstance", "feasible", "minkowski_threshold",
    "ALL_RINGS", "RING_GAUSS", "RING_OMEGA", "RING_SQRT_MINUS_2", "RING_Z",
    "SearchRing", "ring_by_name",
    "BoxTooLarge", "ObstructionInstance", "SolutionCount",
    "check_obstruction", "count_solutions", "enumerate_solutions",
    "smaller_solutions",
]
