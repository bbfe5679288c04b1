"""Workload builders, figure data and the E1-E9 experiment registry."""

from .figures import figure1_data, render_figure1, trajectory_table
from .registry import EXPERIMENTS, Experiment, get_experiment, list_experiments
from .workloads import (
    Workload,
    hierarchical_workload,
    lower_bound_workload,
    multi_destination_workload,
    single_destination_workload,
    tree_workload,
)

__all__ = [
    "figure1_data",
    "render_figure1",
    "trajectory_table",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "list_experiments",
    "Workload",
    "hierarchical_workload",
    "lower_bound_workload",
    "multi_destination_workload",
    "single_destination_workload",
    "tree_workload",
]
