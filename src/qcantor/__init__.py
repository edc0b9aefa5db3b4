"""Quasiconformal Cantor-set pairs and their nonlinear potential theory.

Construct two-sided multiscale disk systems (a compact set and its image
under a distortion-K rearrangement, linked by exact radii products), evaluate
Wolff/Riesz potentials and Menger curvature on them, estimate Riesz and
analytic capacities, run gauge/content machinery, and drive the bundled
verification experiments from a CLI.
"""

from .cantor import (SOURCE, TARGET, CantorTree, ConstructionError, LevelSchedule,
                     PackingError, build_tree, doubly_exponential_schedule,
                     harmonic_schedule, pack_disks, schedules_from_config,
                     sharpness_schedule, shrunk_schedule)
from .capacity import (CapacityEstimate, CapacityIndices, DistortedIndices,
                       direct_capacity_lower, distorted_index_map, distortion_indices,
                       melnikov_gamma_lower, wolff_capacity_lower)
from .experiments import (ExperimentReport, content_distortion_experiment,
                          doubly_exponential_experiment, gauge_criterion_experiment,
                          recompute_verdict, sharpness_experiment,
                          vanishing_content_experiment, verify_gamma_distortion,
                          verify_riesz_distortion)
from .gauges import (ContentResult, DistortedTreeGauge, DoublingReport, FrostmanResult,
                     TreeSmoothedDensityGauge, check_G1, check_G2,
                     check_G2_tree_gauge, content_Mh_tree, eps_mu_a,
                     frostman_tree, generation_cover_sum, psi_a, sample_ball_pairs)
from .measure import PlanarMeasure
from .potentials import (CurvatureEstimate, IndexDomainError, PotentialProfile,
                         default_dyadic_range, menger_curvature, riesz_potential,
                         standard_query_points, wolff_dyadic, wolff_tree)
from .realization import CantorRealization

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
