"""Fitting noisy scattered data on the unit sphere with sketched kernel
regularized least squares.

The expansion centers of a zonal-kernel least squares fit are restricted
to a small spherical design, cutting the solve cost from O(N^3) to
O(N m^2) while keeping accuracy on noisy data.  The package bundles
verified symmetric spherical designs (odd degrees 1..57), synthetic test
targets, and an experiment harness with CSV outputs.
"""

from .data import (Dataset, NoiseModel, TargetFunction, franke_f1,
                   load_dataset, make_dataset, rmse, sample_truncated_gaussian,
                   save_dataset, wendland_target_f2)
from .designs import available_degrees, design_path, load_design
from .harness import (ExperimentConfig, GridSpec, ResultRow, SketchMethod,
                      grid_search, grid_search_multi, parse_config,
                      run_simulation1, run_simulation2, run_simulation3,
                      select_sketch)
from .kernels import KernelSpec, cross_matrix, gram
from .legendre import DesignReport, harmonic_residuals, verify_design
from .points import (PointSet, eq_area_centers, generate_spiral,
                     load_point_file, mesh_norm, save_point_file,
                     separation_radius)
from .solver import (FittedModel, SolveDiagnostics, fit_full, fit_sketched,
                     fit_sketched_multi, fit_sketched_sweep, load_model,
                     predict, rmse_sweep, save_model)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "NoiseModel", "TargetFunction", "franke_f1", "load_dataset",
    "make_dataset", "rmse", "sample_truncated_gaussian", "save_dataset",
    "wendland_target_f2",
    "available_degrees", "design_path", "load_design",
    "ExperimentConfig", "GridSpec", "ResultRow", "SketchMethod",
    "grid_search", "grid_search_multi", "parse_config", "run_simulation1",
    "run_simulation2",
    "run_simulation3", "select_sketch",
    "KernelSpec", "cross_matrix", "gram",
    "DesignReport", "harmonic_residuals", "verify_design",
    "PointSet", "eq_area_centers", "generate_spiral", "load_point_file",
    "mesh_norm", "save_point_file", "separation_radius",
    "FittedModel", "SolveDiagnostics", "fit_full", "fit_sketched",
    "fit_sketched_multi", "fit_sketched_sweep", "load_model", "predict",
    "rmse_sweep", "save_model",
    "__version__",
]
