"""hp-adaptive finite elements for planar elliptic eigenvalue problems."""

from .adaptivity import AdaptConfig, adapt_loop
from .assembly import (Coefficients, assemble_load, assemble_mass,
                       assemble_stiffness)
from .config import ConfigError, RunSetup, parse_config
from .defects import (DefectReport, asymptotic_ratio, cluster_bound_check,
                      defect_report, oracle_checks, sin_theta_hs)
from .eigensolve import EigenCluster, SolverError, solve_lowest
from .estimator import IndicatorField, effectivity, estimate, total_error
from .mesh import (Mesh, refine, slit_square_grid, square_grid,
                   triangle_grid, triangle_hole_grid, uniform_refine)
from .problems import ProblemSpec, problem, problem_keys
from .runner import run_study
from .space import DofHandler, transfer
from .spectra import ReferenceSpectrum, registry, verify_references

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig", "adapt_loop", "Coefficients", "assemble_load",
    "assemble_mass", "assemble_stiffness", "ConfigError", "RunSetup",
    "parse_config", "DefectReport", "asymptotic_ratio",
    "cluster_bound_check", "defect_report", "oracle_checks", "sin_theta_hs",
    "EigenCluster", "SolverError", "solve_lowest", "IndicatorField",
    "effectivity", "estimate", "total_error", "Mesh", "refine",
    "slit_square_grid", "square_grid", "triangle_grid", "triangle_hole_grid",
    "uniform_refine", "ProblemSpec", "problem", "problem_keys", "run_study",
    "DofHandler", "transfer", "ReferenceSpectrum", "registry",
    "verify_references",
]
