"""Shared utilities: RNG plumbing, ASCII plots, tables, logging."""

from repro.utils.rng import RngFactory, as_generator
from repro.utils.tables import render_table
from repro.utils.ascii_plot import ascii_line_plot, sparkline
from repro.utils.running_stats import RunningStats
from repro.utils.serialization import dump_json, load_json, save_history

__all__ = [
    "RngFactory",
    "as_generator",
    "render_table",
    "ascii_line_plot",
    "sparkline",
    "RunningStats",
    "dump_json",
    "load_json",
    "save_history",
]
