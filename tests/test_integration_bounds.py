"""Integration sweeps: every algorithm against every relevant bound.

These are the end-to-end versions of the E1-E4 benchmarks, shrunk to sizes
suitable for the unit-test suite.  They run the whole stack — workload
builders, :class:`~repro.api.session.Session`, simulator, algorithms, bound
checking — and assert that every upper bound from the paper holds on every
(workload, algorithm) pair it applies to.
"""

from __future__ import annotations

import pytest

from repro.api.session import PreparedRun, RunReport, Session
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.ppts import ParallelPeakToSink
from repro.core.pts import PeakToSink
from repro.core.tree import TreeParallelPeakToSink, TreePeakToSink
from repro.experiments.workloads import (
    hierarchical_workload,
    multi_destination_workload,
    single_destination_workload,
    tree_workload,
)
from repro.network.topology import binary_tree, caterpillar_tree, star_tree


def _run(workload, algorithm) -> RunReport:
    """Run ``algorithm`` on ``workload``, bounding it at the declared sigma."""
    return Session().run(
        PreparedRun(topology=workload.topology, algorithm=algorithm,
                    adversary=workload.pattern, sigma=workload.sigma,
                    params=workload.params, name=workload.name)
    )


class TestProposition31Sweep:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    @pytest.mark.parametrize("sigma", [0, 4])
    def test_pts_bound_over_grid(self, n, rho, sigma):
        for kind in ("stress", "random"):
            workload = single_destination_workload(
                n, rho, sigma, num_rounds=80, kind=kind, seed=n + sigma
            )
            row = _run(workload, PeakToSink(workload.topology))
            assert row.within_bound, row.as_row()


class TestProposition32Sweep:
    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize("kind", ["round_robin", "nested", "random"])
    def test_ppts_bound_over_grid(self, d, kind):
        workload = multi_destination_workload(
            48, d, rho=1.0, sigma=2, num_rounds=120, kind=kind, seed=d
        )
        row = _run(workload, ParallelPeakToSink(workload.topology))
        assert row.within_bound, row.as_row()

    def test_ppts_and_pts_agree_on_single_destination(self):
        workload = single_destination_workload(32, 1.0, 2, 100, kind="stress")
        pts_row = _run(workload, PeakToSink(workload.topology))
        ppts_row = _run(workload, ParallelPeakToSink(workload.topology))
        # PPTS restricted to one destination is exactly PTS, so the measured
        # occupancies coincide.
        assert pts_row.max_occupancy == ppts_row.max_occupancy


class TestProposition35Sweep:
    @pytest.mark.parametrize(
        "tree_builder",
        [
            lambda: caterpillar_tree(5, 2),
            lambda: star_tree(8),
            lambda: binary_tree(3),
        ],
    )
    def test_tree_algorithms_over_topologies(self, tree_builder):
        tree = tree_builder()
        root_only = tree_workload(tree, 1.0, 2, 80, destinations=[tree.root])
        row = _run(root_only, TreePeakToSink(root_only.topology))
        assert row.within_bound, row.as_row()

        internal = [v for v in tree.nodes if tree.children(v)][:3] or [tree.root]
        multi = tree_workload(tree, 1.0, 2, 80, destinations=internal)
        row = _run(
            multi,
            TreeParallelPeakToSink(
                multi.topology, destinations=multi.params["destinations"]
            ),
        )
        assert row.within_bound, row.as_row()


class TestTheorem41Sweep:
    @pytest.mark.parametrize("branching,levels", [(4, 2), (2, 4), (3, 3)])
    def test_hpts_bound_over_grid(self, branching, levels):
        rho = 1.0 / levels
        workload = hierarchical_workload(
            branching, levels, rho, sigma=2, num_rounds=50 * levels
        )
        row = _run(
            workload,
            HierarchicalPeakToSink(workload.topology, levels, branching, rho=rho),
        )
        assert row.within_bound, row.as_row()

    def test_bound_shape_hpts_vs_ppts_crossover(self):
        """For many destinations at low rate the HPTS *bound* beats the PPTS
        bound, and both algorithms respect their own bounds — the crossover
        the abstract describes."""
        branching, levels = 4, 3
        rho = 1.0 / levels
        workload = hierarchical_workload(
            branching, levels, rho, sigma=1, num_rounds=180, kind="random", seed=1
        )
        hpts = _run(
            workload,
            HierarchicalPeakToSink(workload.topology, levels, branching, rho=rho),
        )
        ppts = _run(workload, ParallelPeakToSink(workload.topology))
        assert hpts.within_bound
        assert ppts.within_bound
        # The HPTS guarantee is what scales: ell * n^(1/ell) + sigma + 1 stays
        # far below 1 + d + sigma once d is large.
        d = ppts.params.get("n") - 1
        assert hpts.bound < 1 + d + 1
