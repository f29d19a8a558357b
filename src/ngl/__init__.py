"""Nodal sets and growth exponents of Laplace eigenfunctions on flat-conformal tori.

The package computes eigenfunctions of the Laplace-Beltrami operator for
metrics q (dx^2 + dy^2) on the unit torus, extracts and measures their nodal
sets, evaluates wavelength-scale growth exponents and their surface average,
and numerically exercises the supporting machinery: planar localization with
small potential, rapid/slow disk classification and square tilings, Monte
Carlo integral-geometry length estimators, harmonic boundary-sign bounds,
and weighted (Carleman-type) integral inequalities.

The names below load their module on first access, so importing the package
(or ``ngl.cli``) does not import numpy; ``ngl --threads`` relies on this.
"""

import importlib

_EXPORTS = {
    "errors": ("ConfigError", "ConstraintError", "ConvergenceError",
               "CorruptFileError", "EmptyRegionError", "InfiniteGrowthError",
               "NglError", "ResolutionError"),
    "surface": ("ConformalMetric", "GridField", "flat_torus_distance",
                "lq_norm_on_disk", "make_metric", "polyline_metric_length",
                "read_gfd", "sup_on_disk", "write_gfd"),
    "eigen": ("EigenPair", "Spectrum", "analytic_eigenpair",
              "analytic_spectrum", "assemble_operators", "solve_spectrum"),
    "nodal": ("NodalSet", "extract_nodal_set", "nodal_length",
              "singular_points"),
    "growth": ("LengthGrowthReport", "average_local_growth",
               "donnelly_fefferman_constant", "growth_exponent",
               "growth_fields", "lq_growth_exponent", "quartile_trend_ratio",
               "verify_length_growth_bound"),
    "schrodinger": ("DiskAnnuli", "PlanarField", "beta_star", "classify_rapid",
                    "core_field", "count_rapid_disks", "growth_chain_report",
                    "localize", "planar_field_from_function"),
    "tiling": ("Square", "TilingState", "level_counts", "run_tiling",
               "slow_square_budgets", "total_bound_report"),
    "crofton": ("CroftonEstimate", "circle_count_length", "crofton_consistency",
                "disk_average_length", "synthetic_circle", "synthetic_segment",
                "validate_circle_kinematic_constant"),
    "harmonic": ("CircleTrace", "HarmonicExtension", "growth_vs_signs_check",
                 "growth_vs_boundary_zeros_check", "harmonic_extend",
                 "robertson_constant", "sign_changes", "trace_from_function"),
    "carleman": ("BumpComponent", "CarlemanWeight", "TestField", "build_psi0",
                 "build_weight", "carleman_c1_check",
                 "check_subharmonic_inequality", "random_test_field"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
