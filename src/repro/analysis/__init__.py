"""Sweeps, overhead computation and text reports."""

from .report import render_markdown_table, render_table
from .scaling import PowerLawFit, fit_power_law
from .experiments import EXPERIMENTS, ExperimentContext, run_experiment
from .asciiplot import line_plot, scatter_loglog
from .results_io import load_rows, rows_from_csv, rows_to_csv, save_rows
from .montecarlo import Distribution, SlackStudy, game_length_distribution, overhead_distribution
from .sweep import SweepRecord, SweepRun, record_from_row, run_sweep_cached

__all__ = [
    "run_sweep_cached",
    "record_from_row",
    "SweepRecord",
    "SweepRun",
    "ExperimentContext",
    "render_markdown_table",
    "render_table",
    "fit_power_law",
    "PowerLawFit",
    "EXPERIMENTS",
    "run_experiment",
    "line_plot",
    "scatter_loglog",
    "save_rows",
    "load_rows",
    "rows_to_csv",
    "rows_from_csv",
    "Distribution",
    "SlackStudy",
    "overhead_distribution",
    "game_length_distribution",
]
