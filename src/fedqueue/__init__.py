"""Queue-aware federated learning: deterministic simulator and protocol library."""

from .config import ExperimentConfig, ConfigError, default_config, load_config, save_config
from .engine import run_experiment, run_many, run_sweep
from .metrics import (MetricsLog, StalenessBoundParams, delta_threshold,
                      staleness_bound_violation_rate, time_to_target,
                      delay_statistics, admission_summary)
from .protocol import (STALENESS, staleness, ClientUpdate, compute_budget,
                       scale_learning_rate, assign_aggregation_round,
                       partition_admissions, aggregate)
from .predictor import DelayPredictor
from .queue_sim import sample_queue_delay, compute_time

__all__ = [
    "ExperimentConfig", "ConfigError", "default_config", "load_config",
    "save_config", "run_experiment", "run_many", "run_sweep", "MetricsLog",
    "StalenessBoundParams", "delta_threshold", "staleness_bound_violation_rate",
    "time_to_target", "delay_statistics", "admission_summary",
    "STALENESS", "staleness", "ClientUpdate", "compute_budget",
    "scale_learning_rate", "assign_aggregation_round",
    "partition_admissions", "aggregate", "DelayPredictor",
    "sample_queue_delay", "compute_time",
]

__version__ = "0.1.0"
