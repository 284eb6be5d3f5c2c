"""Exo-SIR: an SIR variant whose infected compartment is split by origin.

Endogenous infections (i_e) arise from contact within the population;
exogenous infections (i_x) arrive from outside at rate beta_x. The package
covers the deterministic ODE model, agent-based runs on contact networks,
randomized parameter sweeps with peak regression, ingestion of observed
case-count data, rate estimation, and the with/without-exogenous
counterfactual comparison.
"""

from .errors import (ConfigError, DataError, DuplicateDateError, ExoSirError,
                     HorizonError, IntegrationError, InvalidStateError,
                     NegativeCountError, NumericalError, ParameterError,
                     ScaleError, ScalingDomainError, SchemaError,
                     SingularDesignError, UnidentifiableParameterError)
from .fitting import (FittedParams, NormalizedSeries, PeakComparison,
                      counterfactual_runs, estimate_params, fold_out_exogenous,
                      normalize)
from .ingest import (IngestReport, ObservedSeries, build_observed,
                     load_populations, parse_event_counts, parse_raw_cases,
                     parse_states_daily)
from .model import CompartmentState, ModelParams, PeakStats, Trajectory, integrate, peak_of
from .network import (CombinationSummary, ContactGraph, NodeStatus, SimOutcome,
                      generate_ba_graph, run_experiment, run_simulation, step)
from .regression import RegressionReport, fit_linear, t_critical, t_sf_two_sided
from .sweep import fit_ols, run_sweep, sample_grid, scale_log_peaks

__version__ = "0.1.0"

__all__ = [
    "CombinationSummary", "CompartmentState", "ConfigError", "ContactGraph",
    "DataError", "DuplicateDateError", "ExoSirError", "FittedParams",
    "HorizonError", "IngestReport", "IntegrationError", "InvalidStateError",
    "ModelParams", "NegativeCountError", "NodeStatus", "NormalizedSeries",
    "NumericalError", "ObservedSeries", "ParameterError", "PeakComparison",
    "PeakStats", "RegressionReport", "ScaleError",
    "ScalingDomainError", "SchemaError", "SimOutcome", "SingularDesignError",
    "Trajectory", "UnidentifiableParameterError", "build_observed", "counterfactual_runs",
    "estimate_params", "fit_linear", "fit_ols",
    "fold_out_exogenous", "generate_ba_graph", "integrate",
    "load_populations", "normalize", "parse_event_counts", "parse_raw_cases",
    "parse_states_daily", "peak_of", "run_experiment", "run_simulation",
    "run_sweep", "sample_grid", "scale_log_peaks", "step",
    "t_critical", "t_sf_two_sided",
]
