"""Asymmetry tests for bifurcating autoregressive cell-lineage data
with missing cells: simulation, estimation, Wald tests, and Monte Carlo
size/power tables.
"""

from types import ModuleType as _ModuleType

from .bar import (
    BarModel,
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
from .errors import BarLineageError, ParseError, StatError, TooManyDiscards, TreeError
from .gw import (
    GwModel,
    ReproductionLaw,
    dominant_eigen,
    estimate_reproduction,
    gw_mean_test,
    reproduction_covariance,
    simulate_observation_tree,
)
from .lineage_io import emit_lineage, ingest
from .mc import McConfig, emit_table, parse_table, run_replica, run_table, table_config
from .numerics import chi2_sf, replica_stream
from .tree import ObservationTree

__version__ = "0.1.0"

# the names imported above are the public API, each documented in the
# README; return types, internals and the leaf errors stay in their
# submodules (e.g. barlineage.errors.OrphanCell)
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
