"""Numerical verification of exponential-decay estimates on matrix
semigroups, their resolvent characterization, and the transfer of decay
from a strongly weighted space to an enlarged one, with a drift-diffusion
application at desk scale."""

from .config import DEFAULT_TOLERANCES, FPProblem, RunConfig, Tolerances
from .equivalence import (DecayCertificate, verify_decay_from_resolvent,
                          verify_resolvent_from_decay)
from .factorization import (SplitOperator, enlarged_resolvent,
                            enlargement_bound_chain, verify_factorization)
from .fokker_planck import (EnlargedWeight, FPDiscretization, FPGrid,
                            Potential, SwirlField, UniformPotential,
                            assemble_skew_part, assemble_symmetric_part,
                            decay_experiment, find_decomposition,
                            resolvent_scan_fp, spectral_gap_H)
from .hypotheses import check_h1, check_h2, check_h3, check_h4, sample_xi_region
from .instances import generate_instance, load_instance, save_instance
from .semigroup import (DecayFit, fit_exponential_decay, matrix_exponential,
                        semigroup_norms, step_trajectory)
from .spaces import (EmbeddedSpacePair, WeightedSpace, operator_norm,
                     weighted_norm)
from .spectral import (SpectralReport, eigen_decompose, resolvent_matrix,
                       spectral_projector)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCES", "Tolerances", "RunConfig", "FPProblem",
    "WeightedSpace", "EmbeddedSpacePair",
    "weighted_norm", "operator_norm",
    "SpectralReport", "resolvent_matrix", "eigen_decompose",
    "spectral_projector",
    "DecayFit", "fit_exponential_decay", "matrix_exponential",
    "semigroup_norms", "step_trajectory",
    "check_h1", "check_h2", "check_h3", "check_h4", "sample_xi_region",
    "SplitOperator", "enlarged_resolvent", "verify_factorization",
    "enlargement_bound_chain",
    "DecayCertificate", "verify_decay_from_resolvent",
    "verify_resolvent_from_decay",
    "generate_instance", "save_instance", "load_instance",
    "Potential", "UniformPotential", "EnlargedWeight", "SwirlField",
    "FPGrid", "FPDiscretization", "assemble_symmetric_part",
    "assemble_skew_part", "spectral_gap_H", "find_decomposition",
    "decay_experiment", "resolvent_scan_fp",
]
