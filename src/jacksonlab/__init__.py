"""Numerical workbench for Young-function norms, smoothing operators,
moduli of smoothness, K-functionals, and best trigonometric approximation
on periodic grids in one and two dimensions, with a registry of empirical
inequality checks."""

from .approx import (ApproxResult, KFuncResult, best_approx, degree_below, k_delta,
                     k_functional, projection)
from .grid import (GridFunction, NormSpec, discretize, grid_points, lp_norm,
                   luxemburg_norm, orlicz_norm, orlicz_norm_dual_bound, random_smooth)
from .lab import (CheckReport, ConvexityEstimate, SpaceGeometry, describe_check,
                  dyadic_tail_sum, estimate_convexity_constant, registry_ids,
                  run_check, space_moduli, standard_family, verify_duality)
from .ops import (averaged_modulus, cesaro, cesaro_weights, difference, moduli_table,
                  modulus, semigroup_difference, semigroup_moduli_table,
                  semigroup_modulus, spectral_semigroup, spherical_mean, translate)
from .search import bisect_level, bisect_level_log, brent_level_log, golden_max
from .young import (ConcavityRegions, Delta2Result, Nabla2Result, PatchResult,
                    YoungFunction, check_delta2, check_nabla2, complementary, log_power,
                    log_power_tail_threshold, patch, power, power_concavity_regions,
                    two_power, zygmund)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult", "CheckReport", "ConcavityRegions", "ConvexityEstimate",
    "Delta2Result", "GridFunction", "KFuncResult", "Nabla2Result", "NormSpec",
    "PatchResult", "SpaceGeometry", "YoungFunction",
    "averaged_modulus", "best_approx", "bisect_level", "bisect_level_log",
    "brent_level_log", "cesaro", "cesaro_weights", "check_delta2",
    "check_nabla2", "complementary", "degree_below", "describe_check",
    "difference", "discretize", "dyadic_tail_sum",
    "estimate_convexity_constant", "golden_max",
    "grid_points", "k_delta", "k_functional", "log_power",
    "log_power_tail_threshold", "lp_norm", "luxemburg_norm", "moduli_table", "modulus",
    "orlicz_norm", "orlicz_norm_dual_bound", "patch",
    "power", "power_concavity_regions", "projection", "random_smooth",
    "registry_ids", "run_check", "semigroup_difference", "semigroup_moduli_table",
    "semigroup_modulus", "space_moduli", "spectral_semigroup", "spherical_mean", "standard_family",
    "translate", "two_power", "verify_duality", "zygmund",
    "__version__",
]
