"""Named workload builders for the paper's scenario families.

A *workload* bundles a topology, an adversary and the parameters needed to
build a forwarding algorithm for it; ``Session().run(PreparedRun(...))`` runs
one against an algorithm, with the bound taken at the workload's ``sigma``.  Each builder corresponds to a family of
scenarios in the paper's results (single destination, multiple destinations,
trees, hierarchy, lower bound) and exposes knobs for the sweeps in DESIGN.md's
per-experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..adversary.base import InjectionPattern
from ..adversary.generators import (
    hierarchy_random_destinations,
    random_line_adversary,
    random_tree_adversary,
    single_destination_adversary,
)
from ..adversary.lower_bound import LowerBoundConstruction
from ..adversary.stress import (
    hierarchy_stress,
    nested_route_stress,
    pts_burst_stress,
    round_robin_destination_stress,
    tree_convergecast_stress,
)
from ..network.topology import LineTopology, TreeTopology, caterpillar_tree
from ..network.errors import ConfigurationError

__all__ = [
    "Workload",
    "single_destination_workload",
    "multi_destination_workload",
    "hierarchical_workload",
    "tree_workload",
    "lower_bound_workload",
]


@dataclass
class Workload:
    """A topology plus an adversary plus the parameters that describe them."""

    name: str
    topology: object
    pattern: InjectionPattern
    rho: float
    sigma: float
    #: Extra scenario parameters (destinations, levels, ...) for reporting.
    params: Dict[str, object] = field(default_factory=dict)


def single_destination_workload(
    num_nodes: int,
    rho: float,
    sigma: float,
    num_rounds: int,
    *,
    kind: str = "stress",
    seed: Optional[int] = None,
) -> Workload:
    """The PTS setting: one destination at the right end of a line.

    ``kind`` selects between the deterministic burst stress (default) and a
    random bounded adversary.
    """
    topology = LineTopology(num_nodes)
    if kind == "stress":
        pattern = pts_burst_stress(topology, rho, sigma, num_rounds)
    elif kind == "random":
        pattern = single_destination_adversary(
            topology, rho, sigma, num_rounds, seed=seed
        )
    else:
        raise ConfigurationError(f"unknown single-destination workload kind {kind!r}")
    return Workload(
        name=f"single-dest/{kind}",
        topology=topology,
        pattern=pattern,
        rho=rho,
        sigma=sigma,
        params={"n": num_nodes, "rounds": num_rounds, "kind": kind},
    )


def multi_destination_workload(
    num_nodes: int,
    num_destinations: int,
    rho: float,
    sigma: float,
    num_rounds: int,
    *,
    kind: str = "round_robin",
    seed: Optional[int] = None,
) -> Workload:
    """The PPTS setting: ``d`` destinations on a line.

    ``kind`` is one of ``"round_robin"`` (drives the ``+ d`` term),
    ``"nested"`` (edge-disjoint nested routes) or ``"random"``.
    """
    topology = LineTopology(num_nodes)
    if kind == "round_robin":
        pattern = round_robin_destination_stress(
            topology, rho, sigma, num_rounds, num_destinations
        )
    elif kind == "nested":
        pattern = nested_route_stress(
            topology, rho, sigma, num_rounds, num_destinations
        )
    elif kind == "random":
        pattern = random_line_adversary(
            topology, rho, sigma, num_rounds, num_destinations, seed=seed
        )
    else:
        raise ConfigurationError(f"unknown multi-destination workload kind {kind!r}")
    return Workload(
        name=f"multi-dest/{kind}",
        topology=topology,
        pattern=pattern,
        rho=rho,
        sigma=sigma,
        params={
            "n": num_nodes,
            "d": num_destinations,
            "rounds": num_rounds,
            "kind": kind,
        },
    )


def hierarchical_workload(
    branching: int,
    levels: int,
    rho: float,
    sigma: float,
    num_rounds: int,
    *,
    kind: str = "hierarchy",
    seed: Optional[int] = None,
) -> Workload:
    """The HPTS setting: a line of ``m**ell`` nodes with level-spanning traffic."""
    num_nodes = branching**levels
    topology = LineTopology(num_nodes)
    if kind == "hierarchy":
        pattern = hierarchy_stress(topology, rho, sigma, num_rounds, branching, levels)
    elif kind == "random":
        num_destinations = hierarchy_random_destinations(num_nodes, branching, levels)
        pattern = random_line_adversary(
            topology, rho, sigma, num_rounds, num_destinations, seed=seed
        )
    else:
        raise ConfigurationError(f"unknown hierarchical workload kind {kind!r}")
    return Workload(
        name=f"hierarchy/{kind}",
        topology=topology,
        pattern=pattern,
        rho=rho,
        sigma=sigma,
        params={
            "n": num_nodes,
            "m": branching,
            "ell": levels,
            "rounds": num_rounds,
            "kind": kind,
        },
    )


def tree_workload(
    tree: Optional[TreeTopology],
    rho: float,
    sigma: float,
    num_rounds: int,
    destinations: Optional[Sequence[int]] = None,
    *,
    kind: str = "convergecast",
    seed: Optional[int] = None,
) -> Workload:
    """The tree setting (Proposition 3.5): traffic toward ancestors on an in-tree."""
    if tree is None:
        tree = caterpillar_tree(spine_length=8, legs_per_node=2)
    if destinations is None:
        destinations = [tree.root]
    if kind == "convergecast":
        pattern = tree_convergecast_stress(tree, rho, sigma, num_rounds, destinations)
    elif kind == "random":
        pattern = random_tree_adversary(
            tree, rho, sigma, num_rounds, destinations, seed=seed
        )
    else:
        raise ConfigurationError(f"unknown tree workload kind {kind!r}")
    return Workload(
        name=f"tree/{kind}",
        topology=tree,
        pattern=pattern,
        rho=rho,
        sigma=sigma,
        params={
            "n": len(tree.nodes),
            "destinations": list(destinations),
            "d_prime": tree.destination_depth(destinations),
            "rounds": num_rounds,
            "kind": kind,
        },
    )


def lower_bound_workload(
    branching: int,
    levels: int,
    rho: float,
    *,
    num_phases: Optional[int] = None,
) -> Workload:
    """The Theorem 5.1 adversary, packaged as a workload.

    The declared sigma is the construction's effective burst (close to 1 by
    design; the tests measure it exactly).
    """
    construction = LowerBoundConstruction(branching, levels, rho)
    pattern = construction.build_pattern(num_phases)
    return Workload(
        name="lower-bound",
        topology=construction.topology(),
        pattern=pattern,
        rho=rho,
        sigma=2.0,
        params={
            "n": construction.num_nodes,
            "m": branching,
            "ell": levels,
            "phases": num_phases or construction.num_phases,
            "theoretical_bound": construction.theoretical_bound(),
        },
    )
