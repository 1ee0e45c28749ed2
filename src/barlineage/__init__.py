"""Asymmetry tests for bifurcating autoregressive cell-lineage data
with missing cells: simulation, estimation, Wald tests, and Monte Carlo
size/power tables.
"""

from .bar import (
    BarEstimate,
    BarModel,
    SufficientStats,
    ValueTree,
    asymptotic_covariance,
    coefficient_test,
    estimate_bar,
    fixed_point_test,
    ls_estimate,
    residual_noise_estimates,
    simulate_bar_values,
    sufficient_stats,
)
from .errors import (
    BarLineageError,
    DegenerateTypeProportion,
    DegenerateVariance,
    DepthError,
    DuplicateIndex,
    IndexOutOfRange,
    InsufficientData,
    MissingRoot,
    NearUnitRoot,
    NotPositive,
    OrphanCell,
    ParseError,
    Singular,
    SingularDesign,
    StatError,
    TooManyDiscards,
    TreeError,
)
from .gw import (
    GwModel,
    ReproductionEstimate,
    ReproductionLaw,
    dominant_eigen,
    estimate_reproduction,
    gw_mean_test,
    reproduction_covariance,
    simulate_observation_tree,
)
from .lineage_io import emit_lineage, ingest
from .mc import McCell, McConfig, McTable, emit_table, parse_table, run_replica, run_table, table_config
from .numerics import chi2_sf, gaussian_pair, invert, replica_stream
from .report import TestReport
from .tree import ObservationTree, ObservedCounts, observed_counts

__version__ = "0.1.0"

__all__ = [
    "BarEstimate", "BarModel", "SufficientStats", "ValueTree",
    "asymptotic_covariance", "coefficient_test", "estimate_bar",
    "fixed_point_test", "ls_estimate", "residual_noise_estimates",
    "simulate_bar_values", "sufficient_stats",
    "GwModel", "ReproductionEstimate", "ReproductionLaw", "dominant_eigen",
    "estimate_reproduction", "gw_mean_test", "reproduction_covariance",
    "simulate_observation_tree",
    "BarLineageError", "DegenerateTypeProportion", "DegenerateVariance",
    "DepthError", "DuplicateIndex", "IndexOutOfRange", "InsufficientData",
    "MissingRoot", "NearUnitRoot", "NotPositive",
    "OrphanCell", "ParseError", "Singular", "SingularDesign", "StatError",
    "TooManyDiscards", "TreeError",
    "emit_lineage", "ingest",
    "McCell", "McConfig", "McTable", "emit_table", "parse_table", "run_replica",
    "run_table", "table_config",
    "chi2_sf", "gaussian_pair", "invert", "replica_stream",
    "TestReport",
    "ObservationTree", "ObservedCounts", "observed_counts",
]
