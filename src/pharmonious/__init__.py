"""Ball-averaging operators, p-harmonious fixed points, and Holder
regularity certificates on finite metric measure spaces."""

__version__ = "0.1.0"

from .asymptotics import (ExpansionResult, SmoothTestFunction, alpha_from_p,
                          expansion_mean, expansion_midrange, expansion_p,
                          test_function)
from .errors import (AdmissibilityError, CertificateResidualError,
                     CertificateScopeError, ConfigurationError,
                     DisconnectedSpaceError, SeriesDivergenceError,
                     SpaceFormatError)
from .operators import (BallTable, CheckRecord, GapPair, ScalarField,
                        alpha_mean_value, apply_alpha_mean, ball_symdiff_ratio,
                        check_alpha_mean_modulus, check_mean_stability,
                        check_symdiff_bounds, hausdorff_gaps, mean_value,
                        midrange_value, oscillation_modulus, read_field_csv,
                        write_field_csv)
from .radius import (AdmissibilityReport, HypothesisReport, Modulus,
                     ParameterGate, RadiusField, branch_constants,
                     check_hypotheses, check_radius_bounds, exhaustion,
                     fit_holder, fit_lipschitz, fit_radius_modulus,
                     iterate_modulus, least_concave_majorant,
                     normalize_modulus, read_radius_csv, series_ratio,
                     validate_admissible, validate_parameters,
                     write_radius_csv)
from .regularity import (EmpiricalHolder, RegularityCertificate,
                         TheoreticalModulus, ModulusFamily, branch_constant,
                         certified_holder_constant, certify, empirical_holder,
                         equicontinuity_gate, fixed_point_oscillation_bound,
                         iterate_modulus_bound, root_test_margin,
                         space_constants)
from .solver import SolveConfig, SolveReport, residual, solve_dirichlet
from .space import (Ball, Space, SpaceProbeReport, disk_grid, interval_grid,
                    lattice_graph, load_space, path_graph, space_from_dict,
                    square_grid)
