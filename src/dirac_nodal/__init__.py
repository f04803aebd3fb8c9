"""Forward and inverse nodal analysis for the one-dimensional Dirac system.

The package solves the forward eigenvalue problem of the first canonical
Dirac system on [0, pi] by shooting, extracts nodal sets of the vector
eigenfunction components, reconstructs the potential from nodal data, and
evaluates the nodal-sequence metrics that quantify Lipschitz stability of
the inverse problem.
"""

__version__ = "0.1.0"

from .errors import (BoundaryConditionError, CaseMismatch, ComputationError,
                     ConfigError, DegenerateComponent, DiracNodalError,
                     DomainError, InputError, IntegrationFailure,
                     IterationFailure, RotationLimitExceeded, RowMismatch,
                     ToleranceNotMet, UnsupportedPrediction)
from .model import (Classical, DiracProblem, EigenRecord, GridSequence,
                    NodalSet, ParamDependent, Potential, cumulative_integral,
                    make_potential_sampled)
from .potentials import named_potential, potential_from_json, potential_to_json
from .solver import (EigenSearchConfig, IntegratorConfig, Trajectory,
                     characteristic, extract_nodes, find_eigenvalue,
                     find_eigenvalues, integrate, node_count_prediction)
from .asymptotics import (AsymptoticConstants, eigenfunction_asym, lambda_asym,
                          lambda_inverse_asym, mean_shift, nodal_length_asym,
                          nodal_point_asym, nodal_point_series)
from .reconstruction import (LocalAverages, ReconstructionMode, StepFunction,
                             jn_index, l1_distance, l1_error,
                             local_average_limit, reconstruct_step)
from .stability import (AuditReport, D0Estimate, QuasinodalReport,
                        StabilityReport, d0_estimate, d0_from_d_sigma,
                        d_sigma_from_d0, grid_diff_chi, index_functions_diff,
                        nodal_grid_sequence, pseudometric_audit, quasinodal_check,
                        s_n, stability_identity_report)
