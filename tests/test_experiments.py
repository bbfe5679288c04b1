"""Unit tests for workloads, figure data and the experiment registry."""

from __future__ import annotations

import pytest

from repro.adversary.bounded import check_bounded
from repro.experiments.figures import figure1_data, render_figure1, trajectory_table
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.workloads import (
    hierarchical_workload,
    lower_bound_workload,
    multi_destination_workload,
    single_destination_workload,
    tree_workload,
)
from repro.network.errors import ConfigurationError
from repro.network.topology import caterpillar_tree


class TestWorkloads:
    def test_single_destination_stress_and_random(self):
        for kind in ("stress", "random"):
            workload = single_destination_workload(
                24, rho=1.0, sigma=2, num_rounds=60, kind=kind, seed=1
            )
            assert check_bounded(workload.pattern, workload.topology, 1.0, 2).bounded
            assert workload.params["kind"] == kind

    def test_multi_destination_kinds(self):
        for kind in ("round_robin", "nested", "random"):
            workload = multi_destination_workload(
                32, 6, rho=1.0, sigma=2, num_rounds=60, kind=kind, seed=2
            )
            assert check_bounded(workload.pattern, workload.topology, 1.0, 2).bounded
        with pytest.raises(ConfigurationError):
            multi_destination_workload(32, 6, 1.0, 2, 60, kind="bogus")

    def test_hierarchical_workload(self):
        workload = hierarchical_workload(4, 3, rho=1 / 3, sigma=2, num_rounds=90)
        assert workload.params["n"] == 64
        assert check_bounded(workload.pattern, workload.topology, 1 / 3, 2).bounded

    def test_tree_workload_default_and_custom(self):
        workload = tree_workload(None, rho=1.0, sigma=1, num_rounds=40)
        assert workload.params["d_prime"] >= 1
        tree = caterpillar_tree(5, 1)
        spine = [v for v in tree.nodes if tree.children(v)]
        custom = tree_workload(
            tree, rho=1.0, sigma=1, num_rounds=40, destinations=spine, kind="random",
            seed=3,
        )
        assert custom.params["d_prime"] == len(spine)

    def test_lower_bound_workload(self):
        workload = lower_bound_workload(3, 2, rho=0.5, num_phases=4)
        assert workload.params["n"] == 27
        assert workload.params["theoretical_bound"] >= 0


class TestFigures:
    def test_figure1_data_matches_paper_parameters(self):
        data = figure1_data(2, 4)
        assert data["num_nodes"] == 16
        assert data["labels"][:3] == ["0000", "0001", "0010"]
        assert len(data["rows"]) == 15

    def test_render_figure1_ascii(self):
        art = render_figure1(2, 4)
        lines = art.splitlines()
        assert len(lines) == 1 + 4  # header + one row per level
        assert "j=3" in art and "j=0" in art

    def test_render_figure1_with_trajectory(self):
        art = render_figure1(2, 4, trajectory=(2, 13))
        assert "*" in art
        assert "2 -> 13" in art

    def test_trajectory_table(self):
        rows = trajectory_table(2, 4, source=2, destination=13)
        assert rows[0]["start"] == 2
        assert rows[-1]["end"] == 13
        levels = [row["level"] for row in rows]
        assert levels == sorted(levels, reverse=True)


class TestRegistry:
    def test_all_nine_experiments_present(self):
        assert len(EXPERIMENTS) == 9
        assert [e.id for e in list_experiments()] == [f"E{i}" for i in range(1, 10)]

    def test_lookup(self):
        experiment = get_experiment("e4")
        assert "HPTS" in experiment.paper_item or "4.1" in experiment.paper_item
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_benchmarks_referenced_exist(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for experiment in list_experiments():
            assert (root / experiment.benchmark).exists(), experiment.benchmark

    def test_modules_referenced_importable(self):
        import importlib

        for experiment in list_experiments():
            for module in experiment.modules:
                importlib.import_module(module)
