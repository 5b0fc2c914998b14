"""Sweeps, overhead computation and text reports."""

from .report import render_markdown_table, render_table, summarize_by
from .scaling import PowerLawFit, doubling_ratios, fit_power_law, measure_exponent
from .experiments import EXPERIMENTS, ExperimentContext, run_experiment
from .asciiplot import line_plot, scatter_loglog
from .stats import PairedComparison, Replication, compare_paired, replicate
from .results_io import load_rows, rows_from_csv, rows_to_csv, save_rows
from .montecarlo import Distribution, SlackStudy, game_length_distribution, overhead_distribution
from .sweep import (
    AlgorithmFactory,
    ScenarioRun,
    SweepRecord,
    SweepRun,
    record_from_row,
    run_scenarios_cached,
    run_sweep,
    run_sweep_cached,
)

__all__ = [
    "run_sweep",
    "run_sweep_cached",
    "run_scenarios_cached",
    "record_from_row",
    "SweepRecord",
    "SweepRun",
    "ScenarioRun",
    "AlgorithmFactory",
    "ExperimentContext",
    "render_markdown_table",
    "render_table",
    "summarize_by",
    "fit_power_law",
    "PowerLawFit",
    "measure_exponent",
    "doubling_ratios",
    "EXPERIMENTS",
    "run_experiment",
    "line_plot",
    "scatter_loglog",
    "Replication",
    "replicate",
    "PairedComparison",
    "compare_paired",
    "save_rows",
    "load_rows",
    "rows_to_csv",
    "rows_from_csv",
    "Distribution",
    "SlackStudy",
    "overhead_distribution",
    "game_length_distribution",
]
